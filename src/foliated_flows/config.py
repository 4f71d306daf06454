"""Declarative experiment configs: one YAML file with nested sections.

The section dataclasses below (with the domain types ``PerturbationField``,
``VerticalRegion`` and ``InvariantMeasureSpec``) are the one declaration of
the schema: ``parse_config`` takes every default from them and builds each
section as ``cls(**values)`` from the keys given, and one serializer walks
their fields back into plain data.  Every numeric field is validated against
the precondition of the operation it feeds, unknown keys are rejected at
every level, and all violations are reported together.  Parsing fills
defaults, so serializing a parsed config is canonical and idempotent.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import yaml

from .averaging import F_CHOICES, InvariantMeasureSpec, MEASURE_MODES
from .drivers import _MAX_ID, _grid_steps, _validate_horizon_dt
from .geometry import ANGULAR_CHOICES, K3_CHOICES, MODEL_NAMES, TWO_PI, PerturbationField, VerticalRegion
from .kernels import kernel_dump_name

# The config section each experiment kind reads; its ``replicas``, if it has
# one, is the run's replica count.
KIND_SECTIONS = {
    "simulate": "simulate",
    "kernel-check": "kernel_check",
    "average": "averaging",
    "rates": "averaging",
    "coalesce": "coalesce",
}
EXPERIMENT_KINDS = tuple(KIND_SECTIONS)

# The coordinates that a cylinder start leaves out.
START_COORDS = {"theta": 0.0, "r": 1.0, "z": 0.0}


def valid_seed(seed: int) -> bool:
    """Seeds are the 64-bit stream entropy: distinct valid seeds never share a stream."""
    return 0 <= seed <= _MAX_ID


class ConfigError(ValueError):
    """Invalid experiment config; carries one message per violated field."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid config:\n" + "\n".join(f"  - {p}" for p in problems))


class _Section:
    """Walks a mapping, popping known keys and collecting violations.

    A section parsed into the dataclass ``cls`` keeps in ``values`` the
    scalar keys given with a valid value (lists are parsed item by item by
    the caller, which stores the result there).  ``build`` makes ``cls``
    from them, so every other field keeps the default that ``cls``
    declares, which ``take`` also returns for a key absent or invalid.
    """

    def __init__(self, data, path: str, problems: list[str], cls=None):
        self.path = path
        self.problems = problems
        if data is None:
            data = {}
        if not isinstance(data, dict):
            problems.append(f"{path}: expected a mapping, got {type(data).__name__}")
            data = {}
        self.data = dict(data)
        self.cls = cls
        self.defaults = vars(cls()) if cls is not None else {}
        self.values: dict = {}

    def finish(self) -> None:
        for key in self.data:
            self.problems.append(f"{self.path}.{key}: unknown key")

    def build(self):
        self.finish()
        return self.cls(**self.values)

    def sub(self, key: str, cls=None) -> "_Section":
        return _Section(self.data.pop(key, None), f"{self.path}.{key}", self.problems, cls)

    def take(self, key: str, kind, check=None, describe: str = ""):
        default = self.defaults.get(key)
        raw = self.data.pop(key, None)
        if raw is None:
            return default
        where = f"{self.path}.{key}"
        if kind is float and isinstance(raw, (int, float)) and not isinstance(raw, bool):
            value = float(raw)
        elif kind is int and isinstance(raw, int) and not isinstance(raw, bool):
            value = int(raw)
        elif kind is str and isinstance(raw, str):
            value = raw
        elif kind is list and isinstance(raw, list):
            value = raw
        else:
            self.problems.append(f"{where}: expected {kind.__name__}, got {raw!r}")
            return default
        if kind is float and not math.isfinite(value):
            self.problems.append(f"{where}: must be finite, got {value!r}")
            return default
        if check is not None and not check(value):
            self.problems.append(f"{where}: {describe} (got {value!r})")
            return default
        if kind is not list:
            self.values[key] = value
        return value


@dataclass(frozen=True)
class ModelConfig:
    name: str = "rotation-jump-cylinder"
    v: tuple[float, float] | None = None  # torus-winding only
    sigma: float = 1.0  # coalescing-circle only

    def to_dict(self) -> dict:
        out: dict = {"name": self.name}
        if self.name == "torus-winding" and self.v is not None:
            out["v"] = list(self.v)
        if self.name == "coalescing-circle":
            out["sigma"] = self.sigma
        return out


@dataclass(frozen=True)
class SimulateConfig:
    horizon: float = 10.0
    dt: float = 1e-3
    replicas: int = 1
    eps: float = 0.0
    starts: tuple[dict, ...] = ()  # only the coordinates given


@dataclass(frozen=True)
class KernelCheckConfig:
    m: int = 8
    leaves: tuple[tuple[float, float], ...] = ((1.0, 0.0), (2.0, 0.0))
    times: tuple[float, ...] = (math.pi / 4.0, math.pi / 2.0)


@dataclass(frozen=True)
class AveragingConfig:
    t: float = 1.0
    p: float = 2.0
    eps_grid: tuple[float, ...] = (0.1, 0.01)
    f_choice: str = "sqrt"
    replicas: int = 100
    dt: float = 0.01  # no effect: averaging needs no time grid; kept in configs and payloads
    ode_step: float = 1e-3
    start: dict = field(default_factory=lambda: {"theta": 0.0, "r": 1.0, "z": 1.0})  # inside the region
    measure: InvariantMeasureSpec = field(default_factory=InvariantMeasureSpec)


@dataclass(frozen=True)
class CoalesceConfig:
    horizon: float = 50.0
    dt: float = 0.01
    replicas: int = 1000
    starts: tuple[dict, ...] = (
        {"theta": 0.0, "r": 1.0, "z": 0.0},
        {"theta": math.pi, "r": 1.0, "z": 0.0},
        {"theta": 0.0, "r": 2.0, "z": 0.0},
    )
    curve_points: int = 200


@dataclass(frozen=True)
class BoundsConfig:
    c1: float | None = None
    c2: float | None = None


def _plain(value):
    """A config value as YAML data: dataclasses become dicts and tuples lists."""
    if isinstance(value, ModelConfig):  # its parameters depend on its name
        return value.to_dict()
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = 0
    output_dir: str = "out"
    model: ModelConfig = field(default_factory=ModelConfig)
    perturbation: PerturbationField = field(default_factory=PerturbationField)
    region: VerticalRegion = field(default_factory=VerticalRegion)
    bounds: BoundsConfig = field(default_factory=BoundsConfig)
    simulate: SimulateConfig = field(default_factory=SimulateConfig)
    kernel_check: KernelCheckConfig = field(default_factory=KernelCheckConfig)
    averaging: AveragingConfig = field(default_factory=AveragingConfig)
    coalesce: CoalesceConfig = field(default_factory=CoalesceConfig)

    @property
    def replicas(self) -> int:
        """The replica count of the experiment's section; 0 for kernel-check."""
        return getattr(getattr(self, KIND_SECTIONS[self.experiment]), "replicas", 0)

    def to_dict(self) -> dict:
        return _plain(self)


def _take_coords(sec: _Section, coords: tuple[str, ...]) -> dict:
    """The coordinates given, as finite floats with r > 0."""
    for c in coords:
        sec.take(c, float, lambda x: c != "r" or x > 0.0, "r must be positive (excluded z-axis)")
    sec.finish()
    return sec.values


def _take_starts(sec: _Section, coords: tuple[str, ...]) -> list[dict]:
    """One dict per start, holding only the coordinates given."""
    return [
        _take_coords(_Section(item, f"{sec.path}.starts[{i}]", sec.problems), coords)
        for i, item in enumerate(sec.take("starts", list))
    ]


def _is_finite_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check(problems: list[str], message: str, rule, *args) -> None:
    """Report message if the library's rule raises ValueError on args."""
    try:
        rule(*args)
    except ValueError:
        problems.append(message)


def _check_on_grid(problems: list[str], path: str, horizon: float, dt: float) -> None:
    """A Brownian grid of step dt ends at horizon only if horizon is a multiple of dt."""
    _check(problems, f"{path}.horizon: must be a multiple of dt={dt} (got {horizon!r})", _grid_steps, horizon, dt)


def parse_config(data: dict, experiment: str | None = None) -> ExperimentConfig:
    """Validate a config mapping; raises ConfigError listing every violation."""
    problems: list[str] = []
    root = _Section(data, "config", problems)

    kind = root.take(
        "experiment", str, lambda s: s in EXPERIMENT_KINDS, f"must be one of {EXPERIMENT_KINDS}"
    )
    if experiment is not None:
        if kind is not None and kind != experiment:
            problems.append(
                f"config.experiment: {kind!r} does not match the requested subcommand {experiment!r}"
            )
        kind = experiment
    if kind is None:
        problems.append("config.experiment: missing (and no subcommand given)")
        kind = "simulate"
    root.values["experiment"] = kind
    root.take("seed", int, valid_seed, "must lie in [0, 2^64)")
    root.take("output_dir", str)

    msec = root.sub("model", ModelConfig)
    name = msec.take("name", str, lambda s: s in MODEL_NAMES, f"must be one of {MODEL_NAMES}")
    v = msec.take("v", list)
    if v is not None:
        if len(v) == 2 and all(_is_finite_number(x) for x in v):
            msec.values["v"] = (float(v[0]), float(v[1]))
            if abs(math.hypot(*v) - 1.0) > 1e-9:
                problems.append("config.model.v: winding direction must be a unit vector")
        else:
            problems.append(f"config.model.v: expected [v1, v2], got {v!r}")
    msec.take("sigma", float, lambda x: x > 0.0, "sigma must be positive")
    model = msec.build()
    if kind in ("average", "rates") and name != "rotation-jump-cylinder":
        problems.append(
            f"config.model.name: {kind} is defined for the rotation-jump-cylinder only (got {name!r})"
        )

    psec = root.sub("perturbation", PerturbationField)
    psec.take("lambda0", float)
    psec.take("k3", str, lambda s: s in K3_CHOICES, f"must be one of {', '.join(K3_CHOICES)}")
    psec.take("angular", str, lambda s: s in ANGULAR_CHOICES,
              f"must be one of {', '.join(ANGULAR_CHOICES)}")
    perturbation = psec.build()

    rsec = root.sub("region", VerticalRegion)
    r_min = rsec.take("r_min", float, lambda x: x > 0.0, "r_min must be positive")
    r_max = rsec.take("r_max", float)
    z_min = rsec.take("z_min", float)
    z_max = rsec.take("z_max", float)
    rsec.finish()
    for lo, hi, a, b in (("r_min", "r_max", r_min, r_max), ("z_min", "z_max", z_min, z_max)):
        if not a < b:  # fall back to both defaults: VerticalRegion rejects the pair
            problems.append(f"config.region: requires {lo} < {hi}")
            rsec.values.pop(lo, None)
            rsec.values.pop(hi, None)
    region = VerticalRegion(**rsec.values)

    bsec = root.sub("bounds", BoundsConfig)
    bsec.take("c1", float, lambda x: x >= 0.0, "C1 must be >= 0")
    bsec.take("c2", float, lambda x: x >= 0.0, "C2 must be >= 0")
    bounds = bsec.build()

    ssec = root.sub("simulate", SimulateConfig)
    coords = ("a", "b") if name == "torus-winding" else tuple(START_COORDS)
    ssec.values["starts"] = tuple(_take_starts(ssec, coords))
    ssec.take("horizon", float, lambda x: x >= 0.0, "horizon must be >= 0")
    ssec.take("dt", float, lambda x: x > 0.0, "dt must be positive")
    ssec.take("replicas", int, lambda x: x >= 1, "need at least one replica")
    ssec.take("eps", float, lambda x: x >= 0.0, "eps must be >= 0")
    sim = ssec.build()
    if name != "rotation-jump-cylinder":  # the cylinder's record grid ends exactly at horizon
        _check_on_grid(problems, "config.simulate", sim.horizon, sim.dt)
    else:
        _check(problems, f"config.simulate.dt: invalid step: dt={sim.dt} exceeds horizon={sim.horizon}",
               _validate_horizon_dt, sim.horizon, sim.dt)
    if sim.eps > 0.0 and name != "rotation-jump-cylinder":
        problems.append(
            "config.simulate.eps: perturbed simulation is defined for the rotation-jump-cylinder only"
        )

    ksec = root.sub("kernel_check", KernelCheckConfig)
    n_problems = len(problems)
    m = ksec.take("m", int, lambda x: x >= 2 and x % 2 == 0,
                  "build_cylinder_kernel needs an even m >= 2")
    m_valid = len(problems) == n_problems  # a rejected m has no grid to check the times against
    leaves: list[tuple[float, float]] = []
    for i, lf in enumerate(ksec.take("leaves", list, bool, "need at least one leaf")):
        if isinstance(lf, (list, tuple)) and len(lf) == 2 and all(map(_is_finite_number, lf)) and lf[0] > 0:
            leaf = (float(lf[0]), float(lf[1]))
            if leaf in leaves:
                problems.append(f"config.kernel_check.leaves[{i}]: repeats leaf {list(leaf)}")
            leaves.append(leaf)
        else:
            problems.append(f"config.kernel_check.leaves[{i}]: expected [r, z] of finite numbers, r > 0")
    times: dict[float, int] = {}  # each finite time: the index of its first entry (-0.0 is 0.0)
    dumps: dict[str, int] = {}  # each kernel dump's name: the first time that writes it
    for i, tv in enumerate(ksec.take("times", list, bool, "need at least one time")):
        if _is_finite_number(tv):
            tv = float(tv)
            where = f"config.kernel_check.times[{i}]: build_cylinder_kernel needs t"
            if tv < 0.0:
                problems.append(f"{where} >= 0")
            elif m_valid:
                _check(problems, f"{where} a multiple of 2*pi/m", _grid_steps, tv, TWO_PI / m)
            t = tv + 0.0  # a -0.0 entry is time 0, named and recorded as 0.0
            first = dumps.setdefault(kernel_dump_name(t), i)
            if (j := times.setdefault(t, i)) != i:
                problems.append(f"config.kernel_check.times[{i}]: repeats times[{j}] = {tv}")
            elif first != i:
                problems.append(f"config.kernel_check.times[{i}]: its dump {kernel_dump_name(t)} "
                                f"would overwrite that of times[{first}]")
        else:
            problems.append(f"config.kernel_check.times[{i}]: expected a finite number")
    ksec.values.update(leaves=tuple(leaves), times=tuple(times))
    kernel_check = ksec.build()

    asec = root.sub("averaging", AveragingConfig)
    asec.take("t", float, lambda x: x > 0.0, "make_partition requires t > 0")
    asec.take("p", float, lambda x: x >= 1.0, "p must lie in [1, inf)")
    eps_grid: list[float] = []
    raw_grid = asec.take("eps_grid", list, bool, "need at least one eps")
    for i, ev in enumerate(raw_grid):
        if isinstance(ev, (int, float)) and 0.0 < float(ev) < 1.0:
            if raw_grid.index(ev) != i:  # an equal value lies in (0, 1) too, so it was accepted
                problems.append(f"config.averaging.eps_grid[{i}]: repeats eps_grid[{raw_grid.index(ev)}] = {ev}")
            eps_grid.append(float(ev))
        else:
            problems.append(
                f"config.averaging.eps_grid[{i}]: make_partition requires 0 < eps < 1 (got {ev!r})"
            )
    asec.values["eps_grid"] = tuple(eps_grid)
    asec.take("f_choice", str, lambda s: s in F_CHOICES, f"must be one of {F_CHOICES}")
    asec.take("replicas", int, lambda x: x >= 1, "need at least one replica")
    asec.take("dt", float, lambda x: x > 0.0, "dt must be positive")
    asec.take("ode_step", float, lambda x: x > 0.0, "ode_step must be positive")
    start = {**asec.defaults["start"], **_take_coords(asec.sub("start"), tuple(START_COORDS))}
    if kind in ("average", "rates") and not region.contains((start["r"], start["z"])):
        problems.append(
            f"config.averaging.start: (r, z) = {(start['r'], start['z'])} lies outside the region "
            f"(r_min, r_max) x (z_min, z_max) = ({region.r_min}, {region.r_max}) x "
            f"({region.z_min}, {region.z_max})"
        )
    mssec = asec.sub("measure", InvariantMeasureSpec)
    mssec.take("mode", str, lambda s: s in MEASURE_MODES, f"must be one of {MEASURE_MODES}")
    mssec.take("horizon", float, lambda x: x > 0.0, "empirical leaf averages need a positive horizon")
    mssec.take("burn_in_fraction", float, lambda x: 0.0 <= x < 1.0, "burn-in fraction in [0, 1)")
    asec.values.update(start=start, measure=mssec.build())
    averaging = asec.build()

    csec = root.sub("coalesce", CoalesceConfig)
    csec.take("horizon", float, lambda x: x >= 0.0, "horizon must be >= 0")
    csec.take("dt", float, lambda x: x > 0.0, "dt must be positive")
    csec.take("replicas", int, lambda x: x >= 1, "need at least one replica")
    co_starts = _take_starts(csec, tuple(START_COORDS))
    if co_starts:  # an empty list keeps the default starts
        csec.values["starts"] = tuple({**START_COORDS, **s} for s in co_starts)
    csec.take("curve_points", int, lambda x: x >= 2, "need at least 2 curve points")
    co = csec.build()
    _check_on_grid(problems, "config.coalesce", co.horizon, co.dt)

    root.finish()
    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(
        **root.values, model=model, perturbation=perturbation, region=region, bounds=bounds,
        simulate=sim, kernel_check=kernel_check, averaging=averaging, coalesce=co,
    )


def load_config(path, experiment: str | None = None) -> ExperimentConfig:
    """Parse a YAML file; one that is not UTF-8 YAML raises ConfigError naming the parser's line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}, line {mark.line + 1}, column {mark.column + 1}" if mark else str(path)
        raise ConfigError([f"{where}: not valid UTF-8 YAML: {getattr(exc, 'problem', None) or exc}"]) from exc
    if data is None:
        data = {}
    return parse_config(data, experiment=experiment)
