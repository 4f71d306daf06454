"""Seeded driving noise: Brownian increments and Poisson jump clocks.

Streams are addressed in the counter of Philox-4x64-10 (Salmon et al.,
SC'11): under the key (experiment_seed, 0), the stream of (replica_id,
point_id, role, domain) is the blocks at counters (block, replica_id,
point_id, role_code << 32 | domain), block = 1, 2, ....  Each id fills a
64-bit word, so distinct replicas and points get disjoint streams by
construction, while equal keys reproduce the exact same path, independent
of execution order.  The ``common`` role realizes a shared probability
space: perturbed and unperturbed flows, or all points of an n-point motion,
consume one and the same path.

``stream_words`` stacks the words (seed, replica, point, code) of many
replicas' streams.  ``philox_uniforms`` runs the ten Philox rounds over
them and many blocks at once, with the bits of ``StreamKey.generator``'s
``random``, so the exit uniforms of ``coalescence_batch`` and the Poisson
clocks, whose gaps are inverted uniforms, need no ``numpy.random``.
Normals come from numpy's ziggurat, so the scan ``coalescence_times``
draws them from a generator that ``KeyedGenerators`` resets to each stream:
one state reset per stream, not a ``Philox`` and a ``Generator`` each.

A Poisson stream is one running sum: its arrival times are the left-to-right
sums of the stream's gaps -log1p(-U) / rate, however many are drawn at a time.
So the jumps drawn up to a horizon h are, bit for bit, the part <= h of the
jumps drawn up to any H >= h, and an averaging run draws each replica's clock
once, at its longest horizon (``replica_poisson_jumps``), for all its eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

ROLE_COMMON = "common"
ROLE_INDEPENDENT = "independent"
_ROLE_CODES = {ROLE_COMMON: 0, ROLE_INDEPENDENT: 1}

# Sub-stream domains keep Brownian, Poisson and exit-time draws from one key disjoint.
_DOMAIN_BROWNIAN = 0
_DOMAIN_POISSON = 1
_DOMAIN_EXIT = 2

_M32 = 0xFFFFFFFF
_MAX_ID = _M64 = (1 << 64) - 1

# Philox-4x64-10 (Salmon et al., SC'11): the round multipliers and the key's Weyl bumps
_PHILOX_MULT = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_PHILOX_PASS = 1 << 14  # blocks per array pass of Philox: about 2 MB of uint64 temporaries

_GRID_TOL = 1e-9


@dataclass(frozen=True)
class StreamKey:
    """Address of one independent noise stream.

    ``experiment_seed`` and the ids lie in [0, 2^64).  In a domain, the
    stream is Philox-4x64-10 under key (experiment_seed, 0), read at the
    counters (block, replica_id, point_id, role_code << 32 | domain) for
    block = 1, 2, ...; ``words`` gives (seed, replica, point, code).  Each
    id fills a 64-bit word of its own, so distinct keys, roles and domains
    never share a stream.  A stream could only run into the next replica's
    after 2^64 blocks, when the block word wraps and carries.
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

    def words(self, domain: int) -> tuple:
        """The stream's words (seed, replica, point, role_code << 32 | domain), as Python ints."""
        code = _ROLE_CODES[self.role] << 32 | domain
        return int(self.experiment_seed), int(self.replica_id), int(self.point_id), code

    def generator(self, domain: int) -> np.random.Generator:
        """A fresh generator on this key's stream in ``domain``."""
        return KeyedGenerators().reset(0, self.words(domain))

    def replica(self, replica_id: int) -> "StreamKey":
        return replace(self, replica_id=replica_id)

    def point(self, point_id: int) -> "StreamKey":
        return replace(self, point_id=point_id)

    def with_role(self, role: str) -> "StreamKey":
        return replace(self, role=role)


def stream_words(key: StreamKey, replica_ids, domain: int) -> np.ndarray:
    """(R, 4) uint64: the words of ``key.replica(i)``'s stream in ``domain`` for each id i.

    The seed, point and role come from ``key``, whose own replica id is not used.
    """
    ids = np.asarray(replica_ids)
    if ids.ndim != 1 or (ids.size and (ids.dtype.kind not in "iu" or ids.min() < 0)):
        raise ValueError("replica ids must be a 1-D array of nonnegative integers")
    out = np.empty((ids.size, 4), dtype=np.uint64)
    out[:] = np.array(key.words(domain), dtype=np.uint64)
    out[:, 1] = ids
    return out


def _mulhilo(mult: int, x) -> tuple:
    """The high and low 64-bit words of mult * x, for a Python int x or a uint64 array.

    An array's high word sums products of 32-bit halves: a * b + c < 2^64 for a carry c < 2^32.
    """
    if isinstance(x, int):
        p = mult * x
        return p >> 64, p & _M64
    m_lo, m_hi = np.uint64(mult & _M32), np.uint64(mult >> 32)
    x_lo, x_hi = x & _M32, x >> 32
    mid_a = m_hi * x_lo + (m_lo * x_lo >> 32)
    mid_b = m_lo * x_hi + (mid_a & _M32)
    return m_hi * x_hi + (mid_a >> 32) + (mid_b >> 32), x * np.uint64(mult)


def _philox_block(words, block) -> tuple:
    """The four words of a stream's Philox-4x64-10 block: counter (block, replica, point, code), key (seed, 0).

    ``words`` is (seed, replica, point, code): Python ints, or uint64 arrays
    that broadcast with ``block``, such as (R, 1) columns and (1, m) blocks.
    """
    k0, c1, c2, c3 = words
    c0, k1 = block, 0
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = (k0 + _PHILOX_BUMP[0]) & _M64, (k1 + _PHILOX_BUMP[1]) & _M64
        hi0, lo0 = _mulhilo(_PHILOX_MULT[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_MULT[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


def _uniforms(words) -> np.ndarray:
    """Philox words as ``Generator.random`` reads them: shifted right by 11 and scaled by 2^-53."""
    return (words >> 11) * 2.0**-53


def philox_uniforms(words, n: int, first_block: int = 1) -> np.ndarray:
    """(R, n) float64: n uniforms of the stream of each row of the (R, 4) uint64 words, from block ``first_block`` on.

    A fresh stream reads the blocks 1, 2, ..., four words each, so from
    block 1 a row is ``StreamKey.generator(domain).random(n)`` bit for bit.
    The rounds run on uint64 arrays, which wrap mod 2^64, so no
    ``numpy.random`` is needed, in passes of at most ``_PHILOX_PASS`` blocks.
    """
    words = np.asarray(words, dtype=np.uint64)
    blocks = -(-n // 4)
    counters = np.arange(first_block, first_block + blocks, dtype=np.uint64)[None, :]
    out = np.empty((words.shape[0], 4 * blocks))
    step = max(1, _PHILOX_PASS // max(blocks, 1))
    for lo in range(0, words.shape[0], step):
        w = words[lo : lo + step]
        block = np.stack(_philox_block(w.T[:, :, None], counters), axis=-1)
        out[lo : lo + step] = _uniforms(block.reshape(w.shape[0], -1))
    return out[:, :n]


def first_uniforms(words) -> np.ndarray:
    """(R,) float64: the first uniform of the stream of each row of the (R, 4) uint64 words."""
    return philox_uniforms(words, 1)[:, 0]


class KeyedGenerators:
    """Generators handed out reset to a stream; one generator per slot, reused.

    The scan ``coalescence_times`` draws its normals through it; streams
    read for uniforms only take ``philox_uniforms`` instead.

    Slots are numbered from 0 and first used in that order.  A reset takes
    a stream's words (seed, replica, point, code), such as a row of
    ``stream_words``, and gives numpy's own ``Philox(key=[seed, 0],
    counter=[0, replica, point, code])``: that key and counter, an empty
    buffer (``buffer_pos`` 4) and no cached 32-bit half (``has_uint32`` 0),
    so no draw of a slot's previous stream leaks into the next.  Key and
    counter are uint64 arrays, since ``Philox`` reads a list of ints through
    float64 and would round words of 2^53 or more.
    """

    def __init__(self):
        self._slots: list[np.random.Generator] = []
        self._key, self._counter = np.zeros(2, dtype=np.uint64), np.zeros(4, dtype=np.uint64)
        self._state = {"bit_generator": "Philox", "state": {"counter": self._counter, "key": self._key},
                       "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def reset(self, slot: int, words) -> np.random.Generator:
        self._key[0], self._counter[1:] = words[0], words[1:]
        if slot == len(self._slots):
            self._slots.append(np.random.Generator(np.random.Philox(key=self._key, counter=self._counter)))
        else:
            self._slots[slot].bit_generator.state = self._state
        return self._slots[slot]


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
    """Exact rate-``rate`` Poisson arrival times in [0, horizon].

    The law of ``replica_poisson_jumps`` for one key, with Philox on Python
    ints, which beats arrays by far on one short stream.  A pass costs more
    in numpy calls than a block does, so it holds the mean count and one sd.
    """
    _validate_rate_horizon(rate, horizon)
    if horizon == 0.0:
        return np.empty(0)
    stream = key.words(_DOMAIN_POISSON)
    blocks = _arrival_block(rate, horizon, 1.0) // 4
    passes, total, first = [], np.zeros(1), 1
    while total[0] <= horizon:
        words = np.array([w for c in range(first, first + blocks) for w in _philox_block(stream, c)], dtype=np.uint64)
        sums = _arrival_sums(_uniforms(words)[None, :], rate, total)
        passes.append(sums[0])
        total, first = sums[:, -1], first + blocks
    times = np.concatenate(passes)
    return times[times <= horizon]


def _arrival_block(rate: float, horizon: float, spread: float) -> int:
    """Gaps per pass: whole Philox blocks of 4 that hold more than the mean count plus ``spread`` deviations."""
    mean = rate * horizon
    return 4 * (1 + int(mean + spread * math.sqrt(mean)) // 4)


def _arrival_sums(u: np.ndarray, rate: float, total: np.ndarray) -> np.ndarray:
    """In place: the uniforms u (R, k) become each row's arrival times after its running sum ``total``.

    A gap is -log1p(-U) / rate, numpy's exponential by inversion; each row's
    first gap carries its total so far, so one cumsum per pass continues a
    single running sum and no pass length changes a bit.
    """
    np.log1p(np.negative(u, out=u), out=u)
    u /= -rate
    u[:, 0] += total
    return np.cumsum(u, axis=1, out=u)


def replica_poisson_jumps(key: StreamKey, n: int, rate: float, horizon: float) -> np.ndarray:
    """(n, width), NaN-padded: row i is ``sample_poisson_jumps(key.replica(i), rate, horizon)``, bit for bit.

    A pass of Philox over all rows draws the mean count and three sd; the
    rows (about 0.1 %) whose arrivals end at or before the horizon continue
    their sums from the next block, all at once.  That draws fewer gaps than
    one pass long enough for every row.  The result is contiguous, since a
    view would be copied again by each search of its jumps.
    """
    _validate_rate_horizon(rate, horizon)
    words = stream_words(key, np.arange(n), _DOMAIN_POISSON)
    block = _arrival_block(rate, horizon, 3.0)
    parts, rows, total = [], np.arange(n), np.zeros(n)
    while rows.size:
        sums = _arrival_sums(philox_uniforms(words[rows], block, 1 + len(parts) * block // 4), rate, total)
        parts.append((rows, sums))
        live = sums[:, -1] <= horizon
        rows, total = rows[live], sums[live, -1]
    # each row increases, so the columns where some row is <= horizon come first
    width = max((j * block + int(np.count_nonzero(np.fmin.reduce(sums, axis=0) <= horizon))
                 for j, (_, sums) in enumerate(parts)), default=0)
    out = np.full((n, width), np.nan)
    for j, (rows, sums) in enumerate(parts):
        sums = sums[:, : width - j * block]
        sums[sums > horizon] = np.nan
        out[rows, j * block : j * block + sums.shape[1]] = sums
    return out


def sample_jump_driver(key: StreamKey, horizon: float, dt: float, rate: float = 1.0) -> DriverPath:
    """Jump-clock-only driver (no Brownian component); dt sets the recording grid."""
    _validate_horizon_dt(horizon, dt)
    jumps = sample_poisson_jumps(key, rate, horizon)
    return DriverPath(horizon=float(horizon), dt=float(dt), jump_times=jumps)

