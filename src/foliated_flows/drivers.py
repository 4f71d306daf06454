"""Seeded driving noise: Brownian increments and Poisson jump clocks.

Streams are counter-based (Philox) and keyed by
(experiment_seed, replica_id, point_id, role), so distinct replicas and points
get statistically independent noise while equal keys reproduce the exact same
path, independent of execution order.  The ``common`` role realizes a shared
probability space: perturbed and unperturbed flows, or all points of an
n-point motion, consume one and the same path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

ROLE_COMMON = "common"
ROLE_INDEPENDENT = "independent"
_ROLE_CODES = {ROLE_COMMON: 0, ROLE_INDEPENDENT: 1}

# Sub-stream domains keep Brownian and Poisson draws from one key disjoint.
_DOMAIN_BROWNIAN = 0
_DOMAIN_POISSON = 1

_MASK64 = (1 << 64) - 1

_GRID_TOL = 1e-9


@dataclass(frozen=True)
class StreamKey:
    """Address of one independent noise stream."""

    experiment_seed: int
    replica_id: int = 0
    point_id: int = 0
    role: str = ROLE_COMMON

    def __post_init__(self) -> None:
        if self.role not in _ROLE_CODES:
            raise ValueError(f"role must be one of {sorted(_ROLE_CODES)}: {self.role!r}")
        for name in ("experiment_seed", "replica_id", "point_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.replica_id < 0 or self.point_id < 0:
            raise ValueError("replica_id and point_id must be nonnegative")

    def generator(self, domain: int) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.experiment_seed & _MASK64,
            spawn_key=(self.replica_id, self.point_id, _ROLE_CODES[self.role], domain),
        )
        return np.random.Generator(np.random.Philox(seq))

    def replica(self, replica_id: int) -> "StreamKey":
        return replace(self, replica_id=replica_id)

    def point(self, point_id: int) -> "StreamKey":
        return replace(self, point_id=point_id)

    def with_role(self, role: str) -> "StreamKey":
        return replace(self, role=role)


def _n_steps(horizon: float, dt: float) -> int:
    # ceil with a tolerance so horizon/dt==integer never picks up a phantom step
    return int(math.ceil(horizon / dt - _GRID_TOL)) if horizon > 0.0 else 0


@dataclass(frozen=True)
class DriverPath:
    """One realization of driving noise on [0, horizon].

    Brownian increments are Normal(0, dt) on the uniform grid (B_0 = 0 by
    convention); jump times are exact rate-``jump_rate`` Poisson arrivals, not
    binned to the grid.  Regenerating with the same key reproduces the path
    bit-exactly.
    """

    key: StreamKey
    horizon: float
    dt: float
    brownian_increments: np.ndarray = field(default_factory=lambda: np.empty(0))
    jump_times: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon >= 0.0):
            raise ValueError(f"horizon must be finite and >= 0: {self.horizon}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and positive: {self.dt}")
        if self.jump_times.size and np.any(np.diff(self.jump_times) <= 0.0):
            raise ValueError("jump times must be strictly increasing")

    @property
    def n_steps(self) -> int:
        return self.brownian_increments.size

    @cached_property
    def times(self) -> np.ndarray:
        """Uniform sample grid 0, dt, ..., covering the horizon.

        Defined by (horizon, dt) so jump-only drivers still expose a grid.
        """
        n = max(self.n_steps, _n_steps(self.horizon, self.dt))
        return np.arange(n + 1) * self.dt

    @cached_property
    def brownian(self) -> np.ndarray:
        """Prefix sums B_0=0, B_{t_1}, ..., B_{horizon} on the grid."""
        out = np.empty(self.n_steps + 1)
        out[0] = 0.0
        np.cumsum(self.brownian_increments, out=out[1:])
        return out

    def grid_index(self, t: float) -> int:
        """Index of a grid-aligned time (raises if t is off the grid)."""
        if t < -_GRID_TOL or t > self.horizon + _GRID_TOL:
            raise ValueError(f"time {t} outside driver horizon {self.horizon}")
        k = int(round(t / self.dt))
        if abs(t - k * self.dt) > _GRID_TOL * max(1.0, abs(t)):
            raise ValueError(f"time {t} does not lie on the dt={self.dt} grid")
        return min(k, self.n_steps)

    def brownian_at(self, t: float) -> float:
        return float(self.brownian[self.grid_index(t)])

    def jump_count(self, t: float) -> int:
        """Number of jump times <= t."""
        return int(np.searchsorted(self.jump_times, t, side="right"))

    def shifted(self, s: float) -> "DriverPath":
        """The driver seen from time s onward (for cocycle composition).

        s must lie on the dt grid when a Brownian component is present;
        jump-only drivers shift at arbitrary times.
        """
        if self.brownian_increments.size:
            k = self.grid_index(s)
            increments = self.brownian_increments[k:]
        else:
            if s < -_GRID_TOL or s > self.horizon + _GRID_TOL:
                raise ValueError(f"time {s} outside driver horizon {self.horizon}")
            increments = self.brownian_increments
        jumps = self.jump_times[self.jump_times > s] - s
        return DriverPath(
            key=self.key,
            horizon=self.horizon - s,
            dt=self.dt,
            brownian_increments=increments,
            jump_times=jumps,
        )


def _validate_horizon_dt(horizon: float, dt: float) -> None:
    if not (isinstance(horizon, (int, float)) and math.isfinite(horizon)) or horizon < 0.0:
        raise ValueError(f"horizon must be finite and >= 0: {horizon!r}")
    if not (isinstance(dt, (int, float)) and math.isfinite(dt)) or dt <= 0.0:
        raise ValueError(f"dt must be finite and positive: {dt!r}")
    if horizon > 0.0 and dt > horizon * (1.0 + _GRID_TOL):
        raise ValueError(f"invalid step: dt={dt} exceeds horizon={horizon}")


def sample_brownian(key: StreamKey, horizon: float, dt: float) -> DriverPath:
    """Brownian driver with independent Normal(0, dt) increments on the grid."""
    _validate_horizon_dt(horizon, dt)
    n = _n_steps(horizon, dt)
    rng = key.generator(_DOMAIN_BROWNIAN)
    increments = rng.normal(0.0, math.sqrt(dt), size=n)
    return DriverPath(key=key, horizon=float(horizon), dt=float(dt), brownian_increments=increments)


def sample_poisson_jumps(key: StreamKey, rate: float, horizon: float) -> np.ndarray:
    """Exact rate-``rate`` Poisson arrival times in [0, horizon]."""
    if not (isinstance(rate, (int, float)) and math.isfinite(rate)) or rate <= 0.0:
        raise ValueError(f"jump rate must be finite and positive: {rate!r}")
    if not (isinstance(horizon, (int, float)) and math.isfinite(horizon)) or horizon < 0.0:
        raise ValueError(f"horizon must be finite and >= 0: {horizon!r}")
    if horizon == 0.0:
        return np.empty(0)
    rng = key.generator(_DOMAIN_POISSON)
    block = max(8, int(2 * rate * horizon) + 8)
    arrivals: list[np.ndarray] = []
    total = 0.0
    while True:
        gaps = rng.exponential(1.0 / rate, size=block)
        cum = total + np.cumsum(gaps)
        arrivals.append(cum)
        total = cum[-1]
        if total > horizon:
            break
    times = np.concatenate(arrivals)
    return times[times <= horizon]


def sample_driver(
    key: StreamKey, horizon: float, dt: float, jump_rate: float | None = None
) -> DriverPath:
    """Driver carrying both a Brownian path and (optionally) a jump clock."""
    path = sample_brownian(key, horizon, dt)
    if jump_rate is not None:
        jumps = sample_poisson_jumps(key, jump_rate, horizon)
        path = replace(path, jump_times=jumps)
    return path


def sample_jump_driver(key: StreamKey, horizon: float, dt: float, rate: float = 1.0) -> DriverPath:
    """Jump-clock-only driver (no Brownian component); dt sets the recording grid."""
    _validate_horizon_dt(horizon, dt)
    jumps = sample_poisson_jumps(key, rate, horizon) if horizon > 0.0 else np.empty(0)
    return DriverPath(key=key, horizon=float(horizon), dt=float(dt), jump_times=jumps)

