"""Seeded driving noise: Brownian increments and Poisson jump clocks.

Streams are counter-based (Philox) and keyed by
(experiment_seed, replica_id, point_id, role), so distinct replicas and points
get statistically independent noise while equal keys reproduce the exact same
path, independent of execution order.  The ``common`` role realizes a shared
probability space: perturbed and unperturbed flows, or all points of an
n-point motion, consume one and the same path.

A key becomes a Philox key through numpy's ``SeedSequence`` hash of the entropy
(seed) and spawn key (replica, point, role, domain).  That hash is 32-bit
integer arithmetic, so ``philox_keys`` runs it over a whole array of replica
ids at once, and ``KeyedGenerators`` resets a reused generator to a key, which
puts it in the very state a fresh seeding gives.  Loops over replicas thus pay
one array hash plus a state reset per stream instead of building a
``SeedSequence``, a ``Philox`` and a ``Generator`` each time; ``coalescence_times``,
``coalescence_batch`` and ``replica_poisson_jumps`` draw that way, with the bits of
``StreamKey.generator``.
The seed's part of the hash is cached, so opening one stream costs only its
spawn key's part.

A Poisson stream is one running sum: its arrival times are the left-to-right
sums of the stream's exponential gaps, however many gaps are drawn at a time.
So the jumps drawn up to a horizon h are, bit for bit, the part <= h of the
jumps drawn up to any H >= h, and an averaging run draws each replica's clock
once, at its longest horizon (``replica_poisson_jumps``), for all its eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

ROLE_COMMON = "common"
ROLE_INDEPENDENT = "independent"
_ROLE_CODES = {ROLE_COMMON: 0, ROLE_INDEPENDENT: 1}

# Sub-stream domains keep Brownian, Poisson and exit-time draws from one key disjoint.
_DOMAIN_BROWNIAN = 0
_DOMAIN_POISSON = 1
_DOMAIN_EXIT = 2

# numpy's SeedSequence hash: a pool of 4 32-bit words and its multipliers
_M32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MAX_ID = (1 << 64) - 1

_GRID_TOL = 1e-9


def _uint32_words(n: int) -> list[int]:
    """n as little-endian 32-bit words, the way SeedSequence reads an int (0 is one word)."""
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _hashmix(value, hash_const):
    """numpy's SeedSequence hashmix: the mixed value and the next hash constant."""
    next_const = hash_const * _MULT_A & _M32
    value = (value ^ hash_const) * next_const & _M32
    return value ^ value >> 16, next_const


def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return r ^ r >> 16


@lru_cache(maxsize=64)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """The hash pool after mixing in the seed's words (zero-padded to 4), and the hash constant reached."""
    words = _uint32_words(seed)
    pool, hash_const = [], _INIT_A
    for w in words + [0] * (_POOL_SIZE - len(words)):
        value, hash_const = _hashmix(w, hash_const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    return tuple(pool), hash_const


def _seed_sequence_key(seed: int, spawn_words: list) -> tuple:
    """``SeedSequence(seed, spawn_key).generate_state(2, np.uint64)`` from the spawn key's words.

    Each spawn word is an int or a uint64 array of 32-bit values, one key
    per element.  All arithmetic is mod 2^32, kept in the low bits of ints or
    uint64s by masking after each product.  Returns the two 64-bit key words.
    """
    words, hash_const = _seed_pool(seed)
    pool = list(words)
    for w in spawn_words:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(w, hash_const)
            pool[dst] = _mix(pool[dst], value)
    hash_const, out = _INIT_B, []
    for value in pool:
        next_const = hash_const * _MULT_B & _M32
        value = (value ^ hash_const) * next_const & _M32
        out.append(value ^ value >> 16)
        hash_const = next_const
    return out[0] | out[1] << 32, out[2] | out[3] << 32


@dataclass(frozen=True)
class StreamKey:
    """Address of one independent noise stream.

    ``experiment_seed`` and the ids lie in [0, 2^64), so distinct keys never
    share a stream and every key hashes as one lane of ``philox_keys``.
    """

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
            if not 0 <= v <= _MAX_ID:
                raise ValueError(f"{name} must lie in [0, 2^64): {v}")

    def _philox_key(self, replica_words: list, domain: int) -> tuple:
        spawn = replica_words + _uint32_words(int(self.point_id)) + [_ROLE_CODES[self.role], domain]
        return _seed_sequence_key(int(self.experiment_seed), spawn)

    def generator(self, domain: int) -> np.random.Generator:
        """A fresh generator on this key's stream in ``domain``."""
        key = self._philox_key(_uint32_words(int(self.replica_id)), domain)
        return _fresh_generator(np.array(key, dtype=np.uint64))

    def replica(self, replica_id: int) -> "StreamKey":
        return replace(self, replica_id=replica_id)

    def point(self, point_id: int) -> "StreamKey":
        return replace(self, point_id=point_id)

    def with_role(self, role: str) -> "StreamKey":
        return replace(self, role=role)


def philox_keys(key: StreamKey, replica_ids, domain: int) -> np.ndarray:
    """(R, 2) uint64: the Philox key of ``key.replica(i).generator(domain)`` for each id i.

    One array pass of the SeedSequence hash; the seed, point and role come
    from ``key``, whose own replica id is not used.  An id of 2^32 or more
    is two entropy words, so those ids are hashed as their own group.
    """
    ids = np.asarray(replica_ids)
    if ids.ndim != 1 or (ids.size and (ids.dtype.kind not in "iu" or ids.min() < 0)):
        raise ValueError("replica ids must be a 1-D array of nonnegative integers")
    ids = ids.astype(np.uint64)
    out = np.empty((ids.size, 2), dtype=np.uint64)
    wide = ids > _M32
    for group, replica_words in (
        (~wide, lambda r: [r]),
        (wide, lambda r: [r & _M32, r >> 32]),
    ):
        if group.any():
            out[group] = np.stack(key._philox_key(replica_words(ids[group]), domain), axis=1)
    return out


def _fresh_generator(key: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))


class KeyedGenerators:
    """Generators handed out reset to a Philox key; one generator per slot, reused.

    Slots are numbered from 0 and first used in that order.  A reset sets
    counter 0, the key, an empty buffer (``buffer_pos`` 4) and no cached
    32-bit half (``has_uint32`` 0), which is the state a fresh seeding gives,
    so no draw of a slot's previous key leaks into the next.  A key is two
    64-bit words, such as a row of ``philox_keys``; it is made a uint64
    array first, since ``Philox(key=...)`` reads a list of ints through
    float64 and would round words of 2^53 or more on a fresh slot.
    """

    def __init__(self):
        self._slots: list[np.random.Generator] = []
        zeros = [0, 0, 0, 0]
        self._state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": None}, "buffer": zeros,
                       "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def reset(self, slot: int, key) -> np.random.Generator:
        key = np.asarray(key, dtype=np.uint64)
        if slot == len(self._slots):
            self._slots.append(_fresh_generator(key))
            return self._slots[slot]
        gen = self._slots[slot]
        self._state["state"]["key"] = key
        gen.bit_generator.state = self._state
        return gen


def _grid_steps(t: float, step: float) -> int:
    """The one time-grid rule: t lies on the grid of step h iff t/h is within _GRID_TOL of a whole
    number k, which is returned (ValueError if none).  Config and the library both ask it."""
    ratio = t / step
    if not (math.isfinite(ratio) and abs(ratio - round(ratio)) <= _GRID_TOL):
        raise ValueError(f"time {t} does not lie on the grid of step {step}")
    return round(ratio)


def _n_steps(horizon: float, dt: float) -> int:
    """Steps of dt that cover horizon: a ratio within _GRID_TOL above a whole k needs no phantom step."""
    return int(math.ceil(horizon / dt - _GRID_TOL)) if horizon > 0.0 else 0


def _n_full_steps(t: float, step: float) -> int:
    """Whole steps that fit in t: a ratio within _GRID_TOL below a whole k still counts k."""
    return int(math.floor(t / step + _GRID_TOL))


def _check_in_horizon(t: float, horizon: float) -> None:
    """t lies in [0, horizon], up to _GRID_TOL."""
    if not -_GRID_TOL <= t <= horizon + _GRID_TOL:
        raise ValueError(f"time {t} outside [0, {horizon}]")


@dataclass(frozen=True)
class DriverPath:
    """One realization of driving noise on [0, horizon].

    Brownian increments are Normal(0, dt) on the uniform grid (B_0 = 0 by
    convention); jump times are exact rate-``jump_rate`` Poisson arrivals, not
    binned to the grid.  Regenerating with the same key reproduces the path
    bit-exactly.
    """

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
        _check_in_horizon(t, self.horizon)
        return min(_grid_steps(t, self.dt), self.n_steps)

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
        _check_in_horizon(s, self.horizon)
        increments = self.brownian_increments
        if increments.size:
            increments = increments[self.grid_index(s) :]
        jumps = self.jump_times[self.jump_times > s] - s
        return DriverPath(
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
    return DriverPath(horizon=float(horizon), dt=float(dt), brownian_increments=increments)


def _validate_rate_horizon(rate: float, horizon: float) -> None:
    if not (isinstance(rate, (int, float)) and math.isfinite(rate)) or rate <= 0.0:
        raise ValueError(f"jump rate must be finite and positive: {rate!r}")
    if not (isinstance(horizon, (int, float)) and math.isfinite(horizon)) or horizon < 0.0:
        raise ValueError(f"horizon must be finite and >= 0: {horizon!r}")


def sample_poisson_jumps(key: StreamKey, rate: float, horizon: float) -> np.ndarray:
    """Exact rate-``rate`` Poisson arrival times in [0, horizon]."""
    _validate_rate_horizon(rate, horizon)
    if horizon == 0.0:
        return np.empty(0)
    return poisson_arrivals(key.generator(_DOMAIN_POISSON), rate, horizon)


def _arrival_block(rate: float, horizon: float) -> int:
    """How many gaps ``poisson_arrivals`` draws at a time for this horizon."""
    return max(8, int(2 * rate * horizon) + 8)


def replica_poisson_jumps(key: StreamKey, n: int, rate: float, horizon: float) -> np.ndarray:
    """(n, width), NaN-padded: row i is ``sample_poisson_jumps(key.replica(i), rate, horizon)``, bit for bit.

    One generator is reset to each replica's Philox key and fills that row
    with the stream's first block of standard exponentials; one multiply
    (``exponential(scale)`` is scale * ``standard_exponential``) and one
    cumsum give the block's arrival times.  A row whose block ends at or
    before the horizon is drawn whole from its own stream.
    """
    _validate_rate_horizon(rate, horizon)
    keys = philox_keys(key, np.arange(n), _DOMAIN_POISSON)
    pool = KeyedGenerators()
    block = _arrival_block(rate, horizon)
    sums = np.empty((n, block))
    for i in range(n):
        pool.reset(0, keys[i]).standard_exponential(out=sums[i])
    sums *= 1.0 / rate
    np.cumsum(sums, axis=1, out=sums)
    counts = np.count_nonzero(sums <= horizon, axis=1)
    long_rows = {
        i: poisson_arrivals(pool.reset(0, keys[i]), rate, horizon) for i in np.flatnonzero(counts == block)
    }
    width = max([int(counts.max(initial=0))] + [r.size for r in long_rows.values()])
    out = np.full((n, width), np.nan)
    k = min(width, block)
    np.copyto(out[:, :k], sums[:, :k], where=np.arange(k) < counts[:, None])
    for i, r in long_rows.items():
        out[i, : r.size] = r
    return out


def poisson_arrivals(rng: np.random.Generator, rate: float, horizon: float) -> np.ndarray:
    """The arrival times in [0, horizon] that ``sample_poisson_jumps`` draws from rng.

    Each block's first gap carries the total so far, so one cumsum per block
    continues a single running sum and no block size changes a bit.
    """
    block = _arrival_block(rate, horizon)
    arrivals: list[np.ndarray] = []
    total = 0.0
    while total <= horizon:
        gaps = rng.exponential(1.0 / rate, size=block)
        gaps[0] += total
        arrivals.append(np.cumsum(gaps, out=gaps))
        total = gaps[-1]
    times = np.concatenate(arrivals)
    return times[times <= horizon]


def sample_jump_driver(key: StreamKey, horizon: float, dt: float, rate: float = 1.0) -> DriverPath:
    """Jump-clock-only driver (no Brownian component); dt sets the recording grid."""
    _validate_horizon_dt(horizon, dt)
    jumps = sample_poisson_jumps(key, rate, horizon)
    return DriverPath(horizon=float(horizon), dt=float(dt), jump_times=jumps)

