"""Declarative experiment configs: one YAML file with nested sections.

Every numeric field is validated against the precondition of the operation it
feeds, unknown keys are rejected at every level, and all violations are
reported together.  Parsing fills defaults, so serializing a parsed config is
canonical and idempotent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import yaml

from .averaging import F_CHOICES, InvariantMeasureSpec, MEASURE_MODES
from .drivers import _GRID_TOL, _MAX_ID
from .geometry import MODEL_NAMES, PerturbationField, VerticalRegion

EXPERIMENT_KINDS = ("simulate", "kernel-check", "average", "rates", "coalesce")


def valid_seed(seed: int) -> bool:
    """Seeds are the 64-bit stream entropy: distinct valid seeds never share a stream."""
    return 0 <= seed <= _MAX_ID


class ConfigError(ValueError):
    """Invalid experiment config; carries one message per violated field."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid config:\n" + "\n".join(f"  - {p}" for p in problems))


class _Section:
    """Walks a mapping, popping known keys and collecting violations."""

    def __init__(self, data, path: str, problems: list[str]):
        self.path = path
        self.problems = problems
        if data is None:
            data = {}
        if not isinstance(data, dict):
            problems.append(f"{path}: expected a mapping, got {type(data).__name__}")
            data = {}
        self.data = dict(data)

    def finish(self) -> None:
        for key in self.data:
            self.problems.append(f"{self.path}.{key}: unknown key")

    def sub(self, key: str) -> "_Section":
        return _Section(self.data.pop(key, None), f"{self.path}.{key}", self.problems)

    def take(self, key: str, default, kind, check=None, describe: str = ""):
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
    starts: tuple[dict, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "dt": self.dt,
            "replicas": self.replicas,
            "eps": self.eps,
            "starts": [dict(s) for s in self.starts],
        }


@dataclass(frozen=True)
class KernelCheckConfig:
    m: int = 8
    leaves: tuple[tuple[float, float], ...] = ((1.0, 0.0), (2.0, 0.0))
    times: tuple[float, ...] = (math.pi / 4.0, math.pi / 2.0)

    def to_dict(self) -> dict:
        return {"m": self.m, "leaves": [list(l) for l in self.leaves], "times": list(self.times)}


@dataclass(frozen=True)
class AveragingConfig:
    t: float = 1.0
    p: float = 2.0
    eps_grid: tuple[float, ...] = (0.1, 0.01)
    f_choice: str = "sqrt"
    replicas: int = 100
    dt: float = 0.01  # no effect: averaging needs no time grid; kept in configs and payloads
    ode_step: float = 1e-3
    start: tuple[float, float, float] = (0.0, 1.0, 1.0)  # (theta, r, z), inside the region
    measure: InvariantMeasureSpec = field(default_factory=InvariantMeasureSpec)

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "p": self.p,
            "eps_grid": list(self.eps_grid),
            "f_choice": self.f_choice,
            "replicas": self.replicas,
            "dt": self.dt,
            "ode_step": self.ode_step,
            "start": {"theta": self.start[0], "r": self.start[1], "z": self.start[2]},
            "measure": {
                "mode": self.measure.mode,
                "horizon": self.measure.horizon,
                "burn_in_fraction": self.measure.burn_in_fraction,
            },
        }


@dataclass(frozen=True)
class CoalesceConfig:
    horizon: float = 50.0
    dt: float = 0.01
    replicas: int = 1000
    starts: tuple[tuple[float, float, float], ...] = (
        (0.0, 1.0, 0.0),
        (math.pi, 1.0, 0.0),
        (0.0, 2.0, 0.0),
    )
    curve_points: int = 200

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "dt": self.dt,
            "replicas": self.replicas,
            "starts": [{"theta": s[0], "r": s[1], "z": s[2]} for s in self.starts],
            "curve_points": self.curve_points,
        }


@dataclass(frozen=True)
class BoundsConfig:
    c1: float | None = None
    c2: float | None = None

    def to_dict(self) -> dict:
        return {"c1": self.c1, "c2": self.c2}


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

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "output_dir": self.output_dir,
            "model": self.model.to_dict(),
            "perturbation": {
                "lambda0": self.perturbation.lambda0,
                "k3": self.perturbation.k3,
                "angular": self.perturbation.angular,
            },
            "region": {
                "r_min": self.region.r_min,
                "r_max": self.region.r_max,
                "z_min": self.region.z_min,
                "z_max": self.region.z_max,
            },
            "bounds": self.bounds.to_dict(),
            "simulate": self.simulate.to_dict(),
            "kernel_check": self.kernel_check.to_dict(),
            "averaging": self.averaging.to_dict(),
            "coalesce": self.coalesce.to_dict(),
        }

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=True)


def _parse_starts(sec: _Section, problems: list[str], path: str, coords: tuple[str, ...]):
    """One dict per start holding only the coordinates given: finite floats, r > 0."""
    out = []
    for i, item in enumerate(sec.take("starts", [], list)):
        s = _Section(item, f"{path}.starts[{i}]", problems)
        given = {}
        for c in coords:
            value = s.take(c, None, float, lambda x: c != "r" or x > 0.0,
                           "r must be positive (excluded z-axis)")
            if value is not None:
                given[c] = value
        s.finish()
        out.append(given)
    return out


def _is_finite_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_on_grid(problems: list[str], path: str, horizon: float, dt: float) -> None:
    """A Brownian grid of step dt ends at horizon only if horizon is a multiple of dt."""
    steps = horizon / dt
    if not math.isfinite(steps) or abs(steps - round(steps)) > _GRID_TOL:
        problems.append(f"{path}.horizon: must be a multiple of dt={dt} (got {horizon!r})")


def parse_config(data: dict, experiment: str | None = None) -> ExperimentConfig:
    """Validate a config mapping; raises ConfigError listing every violation."""
    problems: list[str] = []
    root = _Section(data, "config", problems)

    kind = root.take(
        "experiment",
        None,
        str,
        lambda s: s in EXPERIMENT_KINDS,
        f"must be one of {EXPERIMENT_KINDS}",
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

    seed = root.take("seed", 0, int, valid_seed, "must lie in [0, 2^64)")
    output_dir = root.take("output_dir", "out", str)

    msec = root.sub("model")
    name = msec.take(
        "name",
        "rotation-jump-cylinder",
        str,
        lambda s: s in MODEL_NAMES,
        f"must be one of {MODEL_NAMES}",
    )
    v_raw = msec.take("v", None, list)
    v = None
    if v_raw is not None:
        if len(v_raw) == 2 and all(_is_finite_number(x) for x in v_raw):
            v = (float(v_raw[0]), float(v_raw[1]))
            if abs(math.hypot(*v) - 1.0) > 1e-9:
                problems.append("config.model.v: winding direction must be a unit vector")
        else:
            problems.append(f"config.model.v: expected [v1, v2], got {v_raw!r}")
    sigma = msec.take("sigma", 1.0, float, lambda x: x > 0.0, "sigma must be positive")
    msec.finish()
    if kind in ("average", "rates") and name != "rotation-jump-cylinder":
        problems.append(
            f"config.model.name: {kind} is defined for the rotation-jump-cylinder only (got {name!r})"
        )
    model = ModelConfig(name=name, v=v, sigma=sigma)

    psec = root.sub("perturbation")
    lambda0 = psec.take("lambda0", 0.0, float)
    k3 = psec.take("k3", "zero", str, lambda s: s in ("zero", "negate", "sine"),
                   "must be one of zero, negate, sine")
    angular = psec.take("angular", "none", str, lambda s: s in ("none", "cosine"),
                        "must be one of none, cosine")
    psec.finish()
    perturbation = PerturbationField(lambda0=lambda0, k3=k3, angular=angular)

    rsec = root.sub("region")
    r_min = rsec.take("r_min", 0.5, float, lambda x: x > 0.0, "r_min must be positive")
    r_max = rsec.take("r_max", 5.0, float)
    z_min = rsec.take("z_min", -5.0, float)
    z_max = rsec.take("z_max", 5.0, float)
    rsec.finish()
    if not r_min < r_max:
        problems.append("config.region: requires r_min < r_max")
        r_min, r_max = 0.5, 5.0
    if not z_min < z_max:
        problems.append("config.region: requires z_min < z_max")
        z_min, z_max = -5.0, 5.0
    region = VerticalRegion(r_min=r_min, r_max=r_max, z_min=z_min, z_max=z_max)

    bsec = root.sub("bounds")
    c1 = bsec.take("c1", None, float, lambda x: x >= 0.0, "C1 must be >= 0")
    c2 = bsec.take("c2", None, float, lambda x: x >= 0.0, "C2 must be >= 0")
    bsec.finish()
    bounds = BoundsConfig(c1=c1, c2=c2)

    ssec = root.sub("simulate")
    coords = ("a", "b") if name == "torus-winding" else ("theta", "r", "z")
    sim_starts = _parse_starts(ssec, problems, "config.simulate", coords)
    sim = SimulateConfig(
        horizon=ssec.take("horizon", 10.0, float, lambda x: x >= 0.0, "horizon must be >= 0"),
        dt=ssec.take("dt", 1e-3, float, lambda x: x > 0.0, "dt must be positive"),
        replicas=ssec.take("replicas", 1, int, lambda x: x >= 1, "need at least one replica"),
        eps=ssec.take("eps", 0.0, float, lambda x: x >= 0.0, "eps must be >= 0"),
        starts=tuple(sim_starts),
    )
    ssec.finish()
    if name != "rotation-jump-cylinder":  # the cylinder's record grid ends exactly at horizon
        _check_on_grid(problems, "config.simulate", sim.horizon, sim.dt)
    if sim.eps > 0.0 and name != "rotation-jump-cylinder":
        problems.append(
            "config.simulate.eps: perturbed simulation is defined for the rotation-jump-cylinder only"
        )

    ksec = root.sub("kernel_check")
    m = ksec.take("m", 8, int, lambda x: x >= 2 and x % 2 == 0,
                  "build_cylinder_kernel needs an even m >= 2")
    leaves_raw = ksec.take("leaves", [[1.0, 0.0], [2.0, 0.0]], list, bool, "need at least one leaf")
    leaves: list[tuple[float, float]] = []
    for i, lf in enumerate(leaves_raw):
        if isinstance(lf, list) and len(lf) == 2 and all(map(_is_finite_number, lf)) and lf[0] > 0:
            leaf = (float(lf[0]), float(lf[1]))
            if leaf in leaves:
                problems.append(f"config.kernel_check.leaves[{i}]: repeats leaf {list(leaf)}")
            leaves.append(leaf)
        else:
            problems.append(f"config.kernel_check.leaves[{i}]: expected [r, z] of finite numbers, r > 0")
    times_raw = ksec.take("times", [math.pi / 4.0, math.pi / 2.0], list, bool, "need at least one time")
    times: list[float] = []
    step = 2.0 * math.pi / m if m else 1.0
    for i, tv in enumerate(times_raw):
        if _is_finite_number(tv):
            tv = float(tv)
            if abs(tv / step - round(tv / step)) > 1e-9:
                problems.append(
                    f"config.kernel_check.times[{i}]: build_cylinder_kernel needs t a multiple of 2*pi/m"
                )
            times.append(tv)
        else:
            problems.append(f"config.kernel_check.times[{i}]: expected a finite number")
    ksec.finish()
    kernel_check = KernelCheckConfig(m=m, leaves=tuple(leaves), times=tuple(times))

    asec = root.sub("averaging")
    t = asec.take("t", 1.0, float, lambda x: x > 0.0, "make_partition requires t > 0")
    p = asec.take("p", 2.0, float, lambda x: x >= 1.0, "p must lie in [1, inf)")
    eps_raw = asec.take("eps_grid", [0.1, 0.01], list, bool, "need at least one eps")
    eps_grid: list[float] = []
    for i, ev in enumerate(eps_raw):
        if isinstance(ev, (int, float)) and 0.0 < float(ev) < 1.0:
            eps_grid.append(float(ev))
        else:
            problems.append(
                f"config.averaging.eps_grid[{i}]: make_partition requires 0 < eps < 1 (got {ev!r})"
            )
    f_choice = asec.take("f_choice", "sqrt", str, lambda s: s in F_CHOICES,
                         f"must be one of {F_CHOICES}")
    a_replicas = asec.take("replicas", 100, int, lambda x: x >= 1, "need at least one replica")
    a_dt = asec.take("dt", 0.01, float, lambda x: x > 0.0, "dt must be positive")
    ode_step = asec.take("ode_step", 1e-3, float, lambda x: x > 0.0, "ode_step must be positive")
    stsec = asec.sub("start")
    a_start = (
        stsec.take("theta", 0.0, float),
        stsec.take("r", 1.0, float, lambda x: x > 0.0, "r must be positive"),
        stsec.take("z", 1.0, float),
    )
    stsec.finish()
    if kind in ("average", "rates") and not region.contains(a_start[1:]):
        problems.append(
            f"config.averaging.start: (r, z) = {a_start[1:]} lies outside the region "
            f"(r_min, r_max) x (z_min, z_max) = ({r_min}, {r_max}) x ({z_min}, {z_max})"
        )
    mssec = asec.sub("measure")
    measure = InvariantMeasureSpec(
        mode=mssec.take("mode", "analytic-uniform", str, lambda s: s in MEASURE_MODES,
                        f"must be one of {MEASURE_MODES}"),
        horizon=mssec.take("horizon", 200.0, float, lambda x: x > 0.0,
                           "empirical leaf averages need a positive horizon"),
        burn_in_fraction=mssec.take("burn_in_fraction", 0.1, float,
                                    lambda x: 0.0 <= x < 1.0, "burn-in fraction in [0, 1)"),
    )
    mssec.finish()
    asec.finish()
    averaging = AveragingConfig(
        t=t, p=p, eps_grid=tuple(eps_grid), f_choice=f_choice, replicas=a_replicas,
        dt=a_dt, ode_step=ode_step, start=a_start, measure=measure,
    )

    csec = root.sub("coalesce")
    co = CoalesceConfig(
        horizon=csec.take("horizon", 50.0, float, lambda x: x >= 0.0, "horizon must be >= 0"),
        dt=csec.take("dt", 0.01, float, lambda x: x > 0.0, "dt must be positive"),
        replicas=csec.take("replicas", 1000, int, lambda x: x >= 1, "need at least one replica"),
        starts=tuple(
            (s.get("theta", 0.0), s.get("r", 1.0), s.get("z", 0.0))
            for s in _parse_starts(csec, problems, "config.coalesce", ("theta", "r", "z"))
        ),
        curve_points=csec.take("curve_points", 200, int, lambda x: x >= 2,
                               "need at least 2 curve points"),
    )
    csec.finish()
    _check_on_grid(problems, "config.coalesce", co.horizon, co.dt)
    if not co.starts:
        co = CoalesceConfig(
            horizon=co.horizon, dt=co.dt, replicas=co.replicas, curve_points=co.curve_points
        )

    root.finish()
    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(
        experiment=kind,
        seed=seed,
        output_dir=output_dir,
        model=model,
        perturbation=perturbation,
        region=region,
        bounds=bounds,
        simulate=sim,
        kernel_check=kernel_check,
        averaging=averaging,
        coalesce=co,
    )


def load_config(path, experiment: str | None = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if data is None:
        data = {}
    return parse_config(data, experiment=experiment)
