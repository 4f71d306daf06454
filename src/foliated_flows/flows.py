"""Pathwise simulation of the foliated flows.

* Torus winding: x_t = x_0 + v B_t on the universal cover, displayed mod Z^2.
* Rotation-jump cylinder: theta_t = theta_0 + t + pi N_t with N a rate-1
  Poisson clock; (r, z) are untouched by the unperturbed flow.  The
  eps-perturbed flow moves (r, z) by the transversal field eps*K while theta
  keeps the exact same rotation and jumps (common noise).
* Coalescing circle: each point follows an independent leafwise Brownian
  motion; same-leaf trajectories merge when they meet and move together
  afterwards.  Points on different leaves can never meet.
  ``coalescence_batch``, which the coalesce experiment runs, picks the
  engine.  When every leaf holds at most two classes, a leaf's pair merges
  at the exit time of its gap from (0, 2 pi), drawn with no grid from one
  uniform per replica (``_gap_exit_times``), so dt does not enter it.
  Otherwise the slot scan ``coalescence_times`` finds every merge on the dt
  grid: it draws the paths in blocks and stops once every leaf is one
  class; a point alone on its leaf draws nothing.  It runs many replicas as
  one batch: slots that each hold one replica at its own block, pooled
  generators reset to keys hashed in one pass, draws straight into one
  reused buffer, and one array scan per block over the busy slots, which
  wraps the gaps to ``np.mod``'s bits but calls it only on the rare rows
  whose gap leaves [-3 pi, 3 pi).  ``evolve_coalescing_circle`` is the
  scan's one-key case, whatever the starts, so the paths it draws agree
  with its hit times; it draws them whole, and only when its ``states`` are
  read.  The scan, and so ``simulate``, keeps the grid law and its bias.
  Its leaf defects come from the starts, since the points move only in
  theta.

The angular path of the cylinder models is piecewise linear between jump
times, so time integrals of trigonometric functions along it are computed in
closed form (no quadrature error).  ``AngularJumpPath`` holds the jump times of
many replicas, or of one, as one NaN-padded array and evaluates every row at
shared times with array operations.  Each row is a prefix of one Poisson
stream's running sum and may carry jumps past the last time asked about;
every reader ignores those, so a shorter horizon's clock is a column slice of
a longer one's.  The vertical coordinate z solves
the autonomous ODE z' = eps * k3(z), the same for every replica, and is also
evaluated in closed form at any time.  The perturbed radius is closed form
too, so a manifold exit (r reaching 0) is located exactly, not on a time grid
(``manifold_exit_times``).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .drivers import (
    _DOMAIN_BROWNIAN,
    _DOMAIN_EXIT,
    _GRID_TOL,
    ROLE_INDEPENDENT,
    DriverPath,
    KeyedGenerators,
    StreamKey,
    _check_in_horizon,
    _n_full_steps,
    _n_steps,
    _validate_horizon_dt,
    philox_keys,
    sample_brownian,
    sample_jump_driver,
)
from .geometry import (
    TWO_PI,
    CoalescingCircle,
    CylPoint,
    FoliatedModel,
    PerturbationField,
    RotationJumpCylinder,
    TorusPoint,
    TorusWinding,
    UnsupportedModel,
    _leaf_defects,
    wrap_angle,
)

CYLINDER_JUMP_RATE = 1.0

# Steps of Brownian increments that coalescence_times draws per point at a time.
_DRAW_BLOCK = 512
# Replicas that coalescence_times scans together: the slots of its block buffer.
_REPLICA_CHUNK = 16
# Replicas whose exit times coalescence_batch draws and inverts together.
_EXIT_CHUNK = 4096
# The exit law's CDF is summed by images below this scaled time and by
# Dirichlet modes above it; its terms past these counts are below 1e-17 of it.
_IMAGE_END = 0.05
_IMAGE_TERMS = 2
_EIGEN_TERMS = 7
# Points of the tables that give the first guesses; the erfc argument at the
# small-time table's end, where the CDF is below 1e-32 < 2^-53; and the
# large-time table's end, where 1 - F < 1.3 exp(-pi^2 s / 2) is below 2^-53.
_TABLE_POINTS = 33
_TABLE_ERFC_END = 8.5
_TABLE_S_END = 8.5
_NEWTON_STEPS = 100
_ERFC = np.frompyfunc(math.erfc, 1, 1)


class ManifoldExit(RuntimeError):
    """A perturbed trajectory left the manifold (r reached 0)."""

    def __init__(self, exit_time: float):
        super().__init__(f"trajectory exited the manifold (r <= 0) at t={exit_time}")
        self.exit_time = exit_time


@dataclass(frozen=True)
class Trajectory:
    """Single-point sample path on a model, recorded on explicit times."""

    model: FoliatedModel
    start: TorusPoint | CylPoint
    times: np.ndarray
    states: np.ndarray
    columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.times[0] != 0.0:
            raise ValueError("trajectory must start at time 0")
        if len(self.times) != len(self.states):
            raise ValueError("times/states length mismatch")


@dataclass(frozen=True)
class NPointSeries:
    """n simultaneous trajectories plus the coalescence bookkeeping.

    ``class_ids[k, i]`` is the canonical label (lowest member index) of the
    partition class of point i at sample time k; classes only ever merge.
    ``hit_times`` maps unordered index pairs to their first meeting time.
    ``leaf_defects[k, i]`` is point i's distance from its start's leaf at
    sample time k.  ``states`` (n_times, n_points, n_coords) is what
    ``draw_states`` returns the first time it is read.
    """

    model: FoliatedModel
    times: np.ndarray
    columns: tuple[str, ...]
    class_ids: np.ndarray  # (n_times, n_points) int
    hit_times: dict[tuple[int, int], float]
    leaf_defects: np.ndarray  # (n_times, n_points)
    draw_states: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def states(self) -> np.ndarray:
        return self.draw_states()


# ---------------------------------------------------------------------------
# Torus winding flow


def evolve_torus(model: TorusWinding, start: TorusPoint, driver: DriverPath, t: float) -> TorusPoint:
    """phi_t(x) = x + v B_t on the cover, displayed mod Z^2 (t on the driver grid)."""
    b = driver.brownian_at(t)
    return TorusPoint.from_lift((start.lift[0] + model.v[0] * b, start.lift[1] + model.v[1] * b))


def torus_trajectory(model: TorusWinding, start: TorusPoint, driver: DriverPath) -> Trajectory:
    """Full path on the driver's dt grid, carrying cover lifts."""
    lifts = np.array(start.lift) + np.outer(driver.brownian, model.v)
    states = np.hstack((lifts - np.floor(lifts), lifts))
    return Trajectory(model, start, driver.times, states, ("a", "b", "lift_a", "lift_b"))


# ---------------------------------------------------------------------------
# Rotation-jump cylinder flow


@dataclass(frozen=True)
class AngularJumpPath:
    """theta(s) = theta0 + s + pi * N_s for many replicas, piecewise linear between jump times.

    Row i of ``jumps`` holds replica i's jump times, increasing, NaN-padded
    to a common width; one path is one row.  Provides exact prefix integrals
    of cos(theta(s)), so every time integral over a subinterval is a
    difference of two prefix values; sums of such integrals over adjacent
    intervals telescope exactly.  Every reader takes sorted times and ignores
    the jumps after the last of them.  ``prefix``, if given, is
    ``jump_prefix`` already computed, e.g. sliced from a longer clock's.
    """

    theta0: float
    jumps: np.ndarray  # (replicas, width)
    prefix: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if np.ndim(self.jumps) != 2:
            raise ValueError(f"jumps must be a (replicas, width) array, got shape {np.shape(self.jumps)}")

    @cached_property
    def _nodes(self) -> np.ndarray:
        return np.concatenate((np.zeros((self.jumps.shape[0], 1)), self.jumps), axis=1)

    @cached_property
    def jump_prefix(self) -> np.ndarray:
        """(replicas, width + 1): F at 0 and at each jump time, NaN on padding.

        A left-to-right sum along each row, so F at a jump does not depend on
        the jumps after it.
        """
        if self.prefix is not None:
            return self.prefix
        out = np.empty((self.jumps.shape[0], self.jumps.shape[1] + 1))
        out[:, 0] = self.theta0
        np.add(self.theta0, self.jumps, out=out[:, 1:])
        np.sin(out, out=out)
        seg = out[:, 1:] - out[:, :-1]
        seg *= (-1.0) ** np.arange(seg.shape[1])
        out[:, 0] = 0.0
        np.cumsum(seg, axis=1, out=out[:, 1:])
        return out

    def counts(self, ts) -> np.ndarray:
        """(replicas,) + ts.shape: the number of jumps <= each of ts in every row; ts sorted.

        A jump lies at or before ts[k] exactly when fewer than k + 1 of the
        ts are below it, so one search of the jumps in ts and a per-row
        histogram give every count, with no float offset that could round.
        """
        ts = np.asarray(ts, dtype=float)
        n_rows, n_ts = self.jumps.shape[0], ts.size
        below = np.searchsorted(ts.ravel(), self.jumps, side="left")  # NaN and later jumps land at n_ts
        below += (n_ts + 1) * np.arange(n_rows)[:, None]
        hist = np.bincount(below.ravel(), minlength=n_rows * (n_ts + 1)).reshape(n_rows, n_ts + 1)
        return np.cumsum(hist[:, :n_ts], axis=1).reshape((n_rows,) + ts.shape)

    def theta(self, ts) -> np.ndarray:
        """(replicas,) + ts.shape: the angle at ts in [0, 2 pi); ts sorted."""
        ts = np.asarray(ts, dtype=float)
        return np.mod(self.theta0 + ts + math.pi * self.counts(ts), TWO_PI)

    def cos_integral_prefix(self, ts) -> np.ndarray:
        """(replicas,) + ts.shape: F(ts) = integral of cos(theta(s)) ds over [0, ts], exact; ts sorted."""
        ts = np.asarray(ts, dtype=float)
        n_rows = self.jumps.shape[0]
        f = self._cos_prefix_at(self.counts(ts).reshape(n_rows, ts.size), ts.ravel())
        return f.reshape((n_rows,) + ts.shape)

    def _cos_prefix_at(self, counts: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """F at ts from each row's number of jumps <= ts: counts (replicas, k), ts broadcast to it."""
        last_jump = np.take_along_axis(self._nodes, counts, axis=1)
        return np.take_along_axis(self.jump_prefix, counts, axis=1) + (-1.0) ** counts * (
            np.sin(self.theta0 + ts) - np.sin(self.theta0 + last_jump)
        )


def radius(r0: float, eps: float, perturbation: PerturbationField, s, cos_prefix=None):
    """r(s) = r0 + eps (lambda0 s + F(s)), F the cos integral at s (angular modulation only)."""
    if perturbation.has_angular:
        return r0 + eps * (perturbation.lambda0 * s + cos_prefix)
    return r0 + eps * perturbation.lambda0 * s


def _critical_times(theta0: float, lambda0: float, horizon: float) -> np.ndarray:
    """Times in (0, horizon) where cos(theta0 + s + pi c) = -lambda0 for c even or odd.

    That is theta0 + s = +-arccos(-lambda0) mod pi; needs |lambda0| < 1.
    """
    a = math.acos(-lambda0)
    first = np.mod(np.array([a, -a]) - theta0, math.pi)
    s = (first[:, None] + math.pi * np.arange(int(horizon / math.pi) + 2)).ravel()
    return np.sort(s[(s > 0.0) & (s < horizon)])


def _bisect(inside, lo, hi):
    """hi after 80 halvings of each bracket [lo, hi] that keep inside(lo) true and inside(hi) false."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        ok = inside(mid)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return hi


def manifold_exit_times(
    clocks: AngularJumpPath, r0: float, eps: float, perturbation: PerturbationField, horizon: float
) -> np.ndarray:
    """First time each row's r reaches 0 on [0, horizon], exactly; inf where it never does.

    Jumps past the horizon are ignored.

    Between jumps r' = eps (lambda0 + cos theta) changes sign only where
    cos theta = -lambda0, and r' keeps its sign everywhere unless there are
    angular modulation and |lambda0| < 1.  So r is monotone between
    consecutive candidates (0, the jumps, those critical times and the
    horizon, or just 0 and the horizon when r is monotone): the earliest
    candidate with r <= 0 and the latest one before it bracket the first
    exit, and bisection on the exact r finds it, for all exiting rows at once.
    """
    exits = np.full(clocks.jumps.shape[0], np.inf)
    shared = np.array([horizon])
    with_jumps = perturbation.has_angular and abs(perturbation.lambda0) < 1.0
    if with_jumps:
        shared = np.append(_critical_times(clocks.theta0, perturbation.lambda0, horizon), horizon)
    prefix = clocks.cos_integral_prefix(shared) if perturbation.has_angular else None
    down = np.broadcast_to(radius(r0, eps, perturbation, shared, prefix) <= 0.0, (exits.size, shared.size))
    hit = down.any(axis=1)
    if with_jumps:
        at_jumps = radius(r0, eps, perturbation, clocks.jumps, clocks.jump_prefix[:, 1:])
        down_jumps = (at_jumps <= 0.0) & (clocks.jumps <= horizon)  # NaN compares False
        hit |= down_jumps.any(axis=1)
    rows = np.flatnonzero(hit)
    if not rows.size:
        return exits
    path = AngularJumpPath(clocks.theta0, clocks.jumps[rows])
    times, below = np.broadcast_to(shared, (rows.size, shared.size)), down[rows]
    if with_jumps:
        times, below = np.hstack((times, path.jumps)), np.hstack((below, down_jumps[rows]))
    hi = np.where(below, times, np.inf).min(axis=1, keepdims=True)
    lo = np.where(times < hi, times, 0.0).max(axis=1, keepdims=True)  # NaN compares False

    def inside(mid):
        counts = np.count_nonzero(path.jumps <= mid, axis=1, keepdims=True)
        f = path._cos_prefix_at(counts, mid) if perturbation.has_angular else None
        return radius(r0, eps, perturbation, mid, f) > 0.0

    exits[rows] = _bisect(inside, lo, hi)[:, 0]
    return exits


def evolve_cylinder(start: CylPoint, driver: DriverPath, t: float) -> CylPoint:
    """Unperturbed flow: rotate by t, jump by pi at each driver jump time <= t."""
    _check_in_horizon(t, driver.horizon)
    theta = wrap_angle(start.theta + t + math.pi * driver.jump_count(t))
    return CylPoint(theta=theta, r=start.r, z=start.z)


def _record_grid(driver: DriverPath, t: float) -> np.ndarray:
    """dt grid up to t, plus t and the jump times, sorted unique."""
    grid = np.arange(_n_full_steps(t, driver.dt) + 1) * driver.dt
    ts = np.unique(np.concatenate((grid, [t], driver.jump_times[driver.jump_times <= t])))
    # collapse near-duplicates (e.g. a jump landing within tolerance of a grid point)
    keep = np.concatenate(([True], np.diff(ts) > _GRID_TOL * max(1.0, t)))
    ts = ts[keep]
    ts[0] = 0.0
    ts[-1] = t
    return ts


@dataclass(frozen=True)
class PerturbedCylinderPath:
    """eps-perturbed cylinder path recorded on the dt grid plus jump times.

    theta equals the unperturbed flow's angle pathwise; r integrates
    eps * (lambda0 [+ cos theta]) exactly piecewise, and z is the closed-form
    solution of z' = eps * k3(z) (``PerturbationField.vertical_flow``), which
    no noise touches.
    """

    start: CylPoint
    eps: float
    perturbation: PerturbationField
    angular: AngularJumpPath
    times: np.ndarray
    r: np.ndarray
    z: np.ndarray

    def index_of(self, t: float) -> int:
        """Index of the recorded time nearest to t (within the grid-collapse tolerance)."""
        k = int(np.searchsorted(self.times, t))
        best = k
        if k >= self.times.size or (k > 0 and t - self.times[k - 1] < self.times[k] - t):
            best = k - 1
        if abs(self.times[best] - t) > _GRID_TOL * max(1.0, self.times[-1]):
            raise ValueError(f"time {t} not on the recorded grid")
        return best


def perturbed_cylinder_path(
    start: CylPoint,
    driver: DriverPath,
    t: float,
    eps: float,
    perturbation: PerturbationField,
) -> PerturbedCylinderPath:
    """Simulate the perturbed flow up to time t (t <= driver horizon)."""
    _check_in_horizon(t, driver.horizon)
    if eps < 0.0:
        raise ValueError(f"eps must be >= 0: {eps}")
    angular = AngularJumpPath(start.theta, driver.jump_times[None, :])
    exit_time = float(manifold_exit_times(angular, start.r, eps, perturbation, t)[0])
    if math.isfinite(exit_time):
        raise ManifoldExit(exit_time=exit_time)
    ts = _record_grid(driver, t)
    prefix = angular.cos_integral_prefix(ts)[0] if perturbation.has_angular else None
    r = radius(start.r, eps, perturbation, ts, prefix)
    z = perturbation.vertical_flow(start.z, eps * ts)

    return PerturbedCylinderPath(
        start=start, eps=eps, perturbation=perturbation, angular=angular, times=ts, r=r, z=z
    )


def cylinder_trajectory(
    start: CylPoint,
    driver: DriverPath,
    perturbation: PerturbationField | None = None,
    eps: float = 0.0,
) -> Trajectory:
    """Path on the dt grid plus all jump times; with no perturbation or eps = 0, the zero field's."""
    if perturbation is None or eps == 0.0:
        perturbation, eps = PerturbationField(), 0.0
    path = perturbed_cylinder_path(start, driver, driver.horizon, eps, perturbation)
    states = np.column_stack((path.angular.theta(path.times)[0], path.r, path.z))
    return Trajectory(RotationJumpCylinder(), start, path.times, states, ("theta", "r", "z"))


# ---------------------------------------------------------------------------
# n-point motions


def _initial_partition(starts: list, same_point) -> tuple[list[int], dict]:
    """Class ids (lowest member index) of equal starts, and hit time 0.0 for their pairs."""
    n = len(starts)
    ids = list(range(n))
    for j in range(n):
        for i in range(j):
            if ids[i] == i and same_point(starts[i], starts[j]):
                ids[j] = ids[i]
                break
    return ids, {(i, j): 0.0 for j in range(n) for i in range(j) if ids[i] == ids[j]}


def n_point_motion(
    model: FoliatedModel,
    starts: list,
    key: StreamKey,
    horizon: float,
    dt: float,
    perturbation: PerturbationField | None = None,
    eps: float = 0.0,
) -> NPointSeries:
    """The n-point motion of the model's flow, the pathwise realization of its n-point kernels.

    On the torus and the cylinder every point sees one common DriverPath: for
    n = 1 it is the single-point evolve, and identical starts stay identical
    (diagonal preservation); on the cylinder, eps > 0 moves every point by the
    eps-perturbed flow of ``perturbation`` (``cylinder_trajectory``).  There
    the leaf defects are ``leaf_defects`` of each point's trajectory.  On the
    coalescing circle the points follow independent leafwise drivers and
    merge on meeting (``evolve_coalescing_circle``): the hit times and classes
    come from the merge scan, the leaf defects from the starts, and the
    states are drawn on their first read.
    """
    if eps > 0.0 and not isinstance(model, RotationJumpCylinder):
        raise UnsupportedModel("the eps-perturbed motion is defined on the rotation-jump cylinder only")
    if isinstance(model, CoalescingCircle):
        return evolve_coalescing_circle(starts, key, horizon, dt, model.sigma)
    if not starts:
        raise ValueError("need at least one start point")

    if isinstance(model, TorusWinding):
        driver = sample_brownian(key, horizon, dt)
        trajs = [torus_trajectory(model, p, driver) for p in starts]
        same = lambda p, q: p.lift == q.lift
    else:
        driver = sample_jump_driver(key, horizon, dt, rate=CYLINDER_JUMP_RATE)
        trajs = [cylinder_trajectory(p, driver, perturbation, eps) for p in starts]
        same = lambda p, q: (p.theta, p.r, p.z) == (q.theta, q.r, q.z)

    times = trajs[0].times
    states = np.stack([tr.states for tr in trajs], axis=1)
    ids0, hit_times = _initial_partition(starts, same)
    class_ids = np.tile(np.array(ids0, dtype=int), (times.size, 1))
    return NPointSeries(
        model=model, times=times, columns=trajs[0].columns, class_ids=class_ids, hit_times=hit_times,
        leaf_defects=np.column_stack([leaf_defects(tr) for tr in trajs]), draw_states=lambda: states,
    )


def _coalescing_start(starts: list[CylPoint], sigma: float | None):
    """Validated sigma, initial class ids and hit times (0.0 for identical starts)."""
    sig = CoalescingCircle(sigma=1.0 if sigma is None else sigma).sigma
    if not starts:
        raise ValueError("need at least one start point")
    for p in starts:
        if not isinstance(p, CylPoint):
            raise ValueError("coalescing circle starts must be CylPoints")
    ids, hit_times = _initial_partition(
        starts, lambda p, q: p.leaf == q.leaf and wrap_angle(p.theta - q.theta) == 0.0
    )
    return sig, ids, hit_times


def _live_pairs(ids: list[int], leaves: list) -> list[tuple[int, int]]:
    """Pairs a < b of class representatives on one leaf: the pairs that can still merge."""
    reps = [i for i, c in enumerate(ids) if c == i]
    return [(a, b) for bi, b in enumerate(reps) for a in reps[:bi] if leaves[a] == leaves[b]]


def _wrap_gap(gap: np.ndarray) -> np.ndarray:
    """Set gap to ``np.mod(gap + pi, TWO_PI) - pi`` in place, to the bit where y = gap + pi lies in [-TWO_PI, 2 TWO_PI).

    There ``np.mod(y, TWO_PI)`` is y + TWO_PI for y < 0, y - TWO_PI for
    y >= TWO_PI and y otherwise: fmod is exact (y, y - TWO_PI, or -0.0 at
    -TWO_PI), numpy adds TWO_PI once to a negative remainder and makes a zero
    +0.0, and y - TWO_PI is exact (Sterbenz).  The -0.0 this leaves where
    numpy has +0.0 gives the same bits after the - pi.  Returns the mask of
    the entries outside that range, whose value this leaves wrong.
    """
    gap += math.pi
    work = np.empty_like(gap)
    outside = ~((-TWO_PI <= gap) & (gap < 2.0 * TWO_PI))
    np.greater_equal(gap, TWO_PI, out=work)
    gap -= np.multiply(work, TWO_PI, out=work)
    np.less(gap, 0.0, out=work)
    gap += np.multiply(work, TWO_PI, out=work)
    gap -= math.pi
    return outside


def _hits(g: np.ndarray, delta_c: float) -> np.ndarray:
    """hit[..., r]: the wrapped gaps g (..., steps) meet at step r + 1, by the rule of ``_meetings``."""
    # consecutive steps on the flat array, so no pass copies an operand; the
    # last step of each row pairs with the next row and is cut
    head, tail = g.reshape(-1)[:-1], g.reshape(-1)[1:]
    work = np.empty_like(head)
    hit = np.empty(g.shape, dtype=bool)
    flat = hit.reshape(-1)[:-1]
    np.less_equal(np.multiply(head, tail, out=work), 0.0, out=flat)
    flat &= np.abs(np.subtract(tail, head, out=work), out=work) <= math.pi
    flat |= np.abs(tail, out=work) < delta_c
    return hit[..., :-1]


def _meetings(theta: np.ndarray, a, b, delta_c: float):
    """Whether and at which step each pair (a[p], b[p]) first meets along the last axis of theta.

    theta is (..., points, steps), the angles at consecutive steps.  A pair
    meets at step r >= 1 when its wrapped gap changes sign from step r - 1
    with a jump of at most pi (a true zero crossing, not an antipodal wrap)
    or its magnitude drops below delta_c.  Returns the (..., pairs) arrays
    ``met`` and ``first``, the first meeting step less 1 where ``met``.
    """
    g = np.empty((len(a),) + theta.shape[:-2] + theta.shape[-1:])  # pair-major
    for p, (i, j) in enumerate(zip(a, b)):
        np.subtract(theta[..., i, :], theta[..., j, :], out=g[p])
    # the few rows with a gap the wrap leaves wrong are wrapped with np.mod
    rows = np.nonzero(_wrap_gap(g).any(axis=-1))
    if rows[0].size:
        at = rows[1:]
        gap = theta[at + (np.asarray(a)[rows[0]],)] - theta[at + (np.asarray(b)[rows[0]],)]
        g[rows] = np.mod(gap + math.pi, TWO_PI) - math.pi
    hit = _hits(g, delta_c)
    met, first = hit.any(axis=-1), hit.argmax(axis=-1)
    return np.moveaxis(met, 0, -1), np.moveaxis(first, 0, -1)


def _apply_meetings(events: list, ids: list[int], dt: float, hit_times: dict) -> list:
    """Merge classes at the meetings (step, b, a), applied in that order.

    b's class joins a's unless either was absorbed earlier, and each pair
    across the two classes gets the step's time.  Updates ids and hit_times;
    returns the merges as (step, absorbed, survivor).
    """
    merges = []
    for k, absorbed, survivor in sorted(events):
        if ids[absorbed] != absorbed or ids[survivor] != survivor:
            continue
        members_a = [i for i, c in enumerate(ids) if c == absorbed]
        members_s = [i for i, c in enumerate(ids) if c == survivor]
        for i in members_a:
            ids[i] = survivor
            for j in members_s:
                hit_times[(min(i, j), max(i, j))] = k * dt
        merges.append((k, absorbed, survivor))
    return merges


def evolve_coalescing_circle(
    starts: list[CylPoint], key: StreamKey, horizon: float, dt: float, sigma: float | None = None
) -> NPointSeries:
    """Independent leafwise Brownian points with merge-on-meeting: the one-key case of ``coalescence_times``.

    The hit times are the scan's, and point j's class at step k is the
    lowest i whose hit time with j is at most times[k], or j: hits are
    step * dt, as the times are, so the comparison is exact.  The points move
    only in theta, so each point's leaf defect is the one of its start at
    every time; nothing is drawn for it.  ``states`` is drawn the first time
    it is read: every point's full path from its stream with
    ``sample_brownian``, point i at step k showing its class's path there,
    wrapped into [0, 2 pi).
    """
    batch = coalescence_times(starts, key, horizon, dt, sigma)
    model = CoalescingCircle(sigma=1.0 if sigma is None else sigma)
    n = len(starts)
    times = np.arange(_n_steps(horizon, dt) + 1) * float(dt)
    class_ids = np.tile(np.arange(n), (times.size, 1))
    hit_times = {}
    for (i, j), t in zip(batch.pairs, batch.hit_times[0].tolist()):
        if t < math.inf:
            hit_times[(i, j)] = t
            joined = class_ids[np.searchsorted(times, t) :, j]
            np.minimum(joined, i, out=joined)

    def draw_states() -> np.ndarray:
        theta = np.column_stack([
            p.theta + model.sigma * sample_brownian(key.point(i).with_role(ROLE_INDEPENDENT), horizon, dt).brownian
            for i, p in enumerate(starts)
        ])
        states = np.empty((times.size, n, 3))
        states[:, :, 0] = np.mod(np.take_along_axis(theta, class_ids, axis=1), TWO_PI)
        states[:, :, 1] = [p.r for p in starts]
        states[:, :, 2] = [p.z for p in starts]
        return states

    defects = np.concatenate([_leaf_defects(model, p, np.array([p.leaf])) for p in starts])
    return NPointSeries(
        model=model, times=times, columns=("theta", "r", "z"), class_ids=class_ids, hit_times=hit_times,
        leaf_defects=np.broadcast_to(defects, class_ids.shape), draw_states=draw_states,
    )


@dataclass(frozen=True)
class CoalescenceBatch:
    """Pair hit times of many replicas, and the noise and merges it took.

    ``hit_times[r, p]`` is the first meeting time of ``pairs[p]`` in replica
    r, inf where the pair never meets; the pairs are (i, j), i < j, ordered
    by j, then i.
    """

    pairs: tuple[tuple[int, int], ...]
    hit_times: np.ndarray  # (replicas, pairs)
    streams_opened: int
    normals_drawn: int
    merges: int
    uniforms_drawn: int = 0


def _batch_start(starts, key, horizon, dt, sigma, replicas) -> tuple:
    """Validated sigma, class ids, live pairs, replica ids, all pairs and hit times holding the equal starts' 0s."""
    sig, ids0, hits0 = _coalescing_start(starts, sigma)
    _validate_horizon_dt(horizon, dt)
    replica_ids = np.asarray([key.replica_id] if replicas is None else replicas)
    n = len(starts)
    pairs = tuple((i, j) for j in range(n) for i in range(j))
    hit_times = np.full((replica_ids.size, len(pairs)), np.inf)
    for pq, t in hits0.items():
        hit_times[:, pairs.index(pq)] = t
    return sig, ids0, _live_pairs(ids0, [p.leaf for p in starts]), replica_ids, pairs, hit_times


def coalescence_times(
    starts: list[CylPoint],
    key: StreamKey,
    horizon: float,
    dt: float,
    sigma: float | None = None,
    replicas=None,
) -> CoalescenceBatch:
    """Pair hit times of independent leafwise Brownian points that merge on meeting, for many replicas.

    Row r of the returned ``CoalescenceBatch`` holds the hit times of
    ``key.replica(replicas[r])``; ``replicas`` defaults to ``[key.replica_id]``,
    the one key on its own (``evolve_coalescing_circle``).

    Each point consumes its own stream (point_id = index, role independent).
    Identical starts hit at 0.  Two same-leaf points merge when their signed
    circular gap changes sign within a step (a true zero crossing, not an
    antipodal wrap) or its magnitude drops below sigma*sqrt(dt)/10; the
    merged class adopts the lowest-index driver.  Cross-leaf pairs never merge.

    Only representatives sharing their leaf with another class draw, each
    from its stream, _DRAW_BLOCK steps at a time.  Normals drawn in blocks
    are the numbers of one call, and each block's Brownian sum starts from
    the last value of the one before, so the angles are those of the whole
    path ``sample_brownian`` draws, to the bit.  A replica stops drawing once
    every leaf is one class; a point alone on its leaf opens no stream.
    _REPLICA_CHUNK slots each hold one replica at its own block (see
    ``_scan_slots``): the slots' normals fill one reused buffer, and one
    array pass finds the meetings of every slot's block.
    """
    sig, ids0, live0, replica_ids, pairs, hit_times = _batch_start(starts, key, horizon, dt, sigma, replicas)
    n_steps = _n_steps(horizon, dt)
    counts = (0, 0, 0)  # streams opened, normals drawn, merges
    if live0 and n_steps and replica_ids.size:
        counts = _scan_slots(starts, ids0, live0, key, replica_ids, hit_times, pairs, n_steps, dt, sig)
    return CoalescenceBatch(pairs, hit_times, *counts)


def _scan_slots(starts, ids0, live0, key, replica_ids, hit_times, pairs, n_steps, dt, sig) -> tuple:
    """Draw and scan blocks until each replica has every leaf one class or reaches n_steps.

    Replica ``replica_ids[r]`` of key has its hit times put in row r of
    hit_times.  Each slot holds one replica at its own block start; a slot
    whose replica is done takes the next one, and once none is left the last
    busy slot moves into it, so every block scans busy slots only.  Returns
    (streams opened, normals drawn, merges).
    """
    drawers = sorted({i for pq in live0 for i in pq})
    keys = np.stack(
        [philox_keys(key.point(i).with_role(ROLE_INDEPENDENT), replica_ids, _DOMAIN_BROWNIAN) for i in drawers],
        axis=1,
    )
    n_rep, n_draw, slots = replica_ids.size, len(drawers), min(_REPLICA_CHUNK, replica_ids.size)
    a_col, b_col = ([drawers.index(pq[e]) for pq in live0] for e in (0, 1))
    sd = math.sqrt(dt)
    delta_c = sig * sd / 10.0
    theta0 = np.array([starts[i].theta for i in drawers])[:, None, None]
    pool = KeyedGenerators()
    # (drawer, slot, step): B at the block's start, then the normals and B at
    # its steps, then the angles; drawers that no longer draw add zeros.  A
    # drawer's rows are contiguous, so no in-place pass copies its operands.
    buf = np.zeros((n_draw, slots, _DRAW_BLOCK + 1))
    blocks = [list(buf[:, s, 1:]) for s in range(slots)]  # each slot's draws, by drawer
    carry = np.zeros((n_draw, slots))  # B at each slot's last drawn step
    rep, k0, gens, ids, hits, drawing = ([None] * slots for _ in range(6))

    def start(s, r):
        rep[s], k0[s], ids[s], hits[s], drawing[s] = r, 0, list(ids0), {}, [True] * n_draw
        gens[s] = [pool.reset(s * n_draw + d, k) for d, k in enumerate(keys[r])]
        carry[:, s] = 0.0

    for s in range(slots):
        start(s, s)
    queued, busy, normals, merges = slots, slots, 0, 0
    while busy:
        steps = [min(_DRAW_BLOCK, n_steps - k) for k in k0[:busy]]
        for s, n in enumerate(steps):
            if n < _DRAW_BLOCK:
                buf[:, s, n + 1 :] = 0.0
            for gen, out, draws in zip(gens[s], blocks[s], drawing[s]):
                if draws:
                    gen.standard_normal(out=out[:n])
                else:
                    out.fill(0.0)
            normals += n * sum(drawing[s])
        theta = buf[:, :busy]
        theta *= sd  # normal(0, sd) is 0.0 + sd * z: the same bits once summed
        theta[:, :, 0] = carry[:, :busy]
        np.cumsum(theta, axis=-1, out=theta)
        carry[:, :busy] = theta[:, :, -1]
        theta *= sig
        theta += theta0
        # a pair with an absorbed end scans stale angles; its meetings are
        # no-ops in _apply_meetings
        scan = theta[:, :, : max(steps) + 1].transpose(1, 0, 2)  # (slot, drawer, step)
        met, first = (x.tolist() for x in _meetings(scan, a_col, b_col, delta_c))
        for s in reversed(range(busy)):
            n = steps[s]
            if any(met[s]):
                events = [(k0[s] + 1 + f, j, i) for (i, j), m, f in zip(live0, met[s], first[s]) if m and f < n]
                if merged := _apply_meetings(events, ids[s], dt, hits[s]):
                    merges += len(merged)
                    c = ids[s]
                    live = [pq for pq in live0 if c[pq[0]] == pq[0] and c[pq[1]] == pq[1]]
                    drawing[s] = [any(x in pq for pq in live) for x in drawers]
            k0[s] += n
            if k0[s] < n_steps and any(drawing[s]):
                continue
            for pq, t in hits[s].items():
                hit_times[rep[s], pairs.index(pq)] = t
            if queued < n_rep:
                start(s, queued)
                queued += 1
            else:
                busy -= 1
                for slot in (rep, k0, gens, ids, hits, drawing):
                    slot[s] = slot[busy]
                carry[:, s] = carry[:, busy]
    return n_rep * n_draw, normals, merges


def coalescence_batch(
    starts: list[CylPoint],
    key: StreamKey,
    horizon: float,
    dt: float,
    sigma: float | None = None,
    replicas=None,
) -> CoalescenceBatch:
    """The pair hit times of ``coalescence_times``'s points, exact wherever a pair is alone on its leaf.

    When every leaf holds at most two classes once equal starts are joined,
    each leaf's pair merges when its circular gap, a Brownian motion of
    variance 2 sigma^2 per unit time, first leaves (0, 2 pi), and that time
    is drawn with no grid: one uniform of the stream keyed by (replica, the
    pair's lower point, independent role) in the exit domain, inverted
    through the gap's exit-time CDF (``_gap_exit_times``).  Hit times past the
    horizon are inf, and dt is validated but not used.  Otherwise a leaf
    holds three classes or more and every hit comes from the slot scan of
    ``coalescence_times``, on the dt grid.
    """
    sig, ids0, live0, replica_ids, pairs, hit_times = _batch_start(starts, key, horizon, dt, sigma, replicas)
    if len({i for pq in live0 for i in pq}) < 2 * len(live0):  # some point is in two live pairs
        return coalescence_times(starts, key, horizon, dt, sigma, replicas)
    if not (live0 and horizon > 0.0 and replica_ids.size):
        return CoalescenceBatch(pairs, hit_times, 0, 0, 0)
    pool = KeyedGenerators()
    merges = 0
    for a, b in live0:
        gap = abs(math.remainder(starts[b].theta - starts[a].theta, TWO_PI))  # exact, so never 0 here
        stream = key.point(a).with_role(ROLE_INDEPENDENT)
        column = hit_times[:, pairs.index((a, b))]
        for lo in range(0, replica_ids.size, _EXIT_CHUNK):
            keys = philox_keys(stream, replica_ids[lo : lo + _EXIT_CHUNK], _DOMAIN_EXIT)
            u = np.fromiter((pool.reset(0, k).random() for k in keys), float, len(keys))
            column[lo : lo + u.size] = _gap_exit_times(u, gap, 2.0 * sig * sig)
        column[column > horizon] = np.inf
        merges += int(np.isfinite(column).sum())
        # every pair across the two classes merges with their representatives
        members = [[i for i, c in enumerate(ids0) if c == rep] for rep in (a, b)]
        hit_times[:, [pairs.index((min(i, j), max(i, j))) for i in members[0] for j in members[1]]] = column[:, None]
    draws = len(live0) * replica_ids.size
    return CoalescenceBatch(pairs, hit_times, draws, 0, merges, uniforms_drawn=draws)


def _image_cdf(s: np.ndarray, xi: float) -> tuple:
    """F(s) and F'(s), F the CDF of the exit time of (0, 1) from xi by the image series, term by term."""
    r = 1.0 / np.sqrt(2.0 * s)
    f, df = np.zeros_like(s), np.zeros_like(s)
    for k in range(_IMAGE_TERMS):
        sign = -1.0 if k % 2 else 1.0
        for a in (k + xi, k + 1.0 - xi):
            z = a * r
            f += sign * np.asarray(_ERFC(z), dtype=float)
            df += sign * a * np.exp(-z * z)
    df *= (2.0 / math.sqrt(math.pi)) * r**3
    return f, df


def _eigen_survival(s: np.ndarray, xi: float) -> tuple:
    """1 - F(s) and its derivative by the Dirichlet eigenfunction series, term by term."""
    g, dg = np.zeros_like(s), np.zeros_like(s)
    for k in range(1, 2 * _EIGEN_TERMS, 2):
        e = math.sin(k * math.pi * xi) * np.exp(-0.5 * (k * math.pi) ** 2 * s)
        g += (4.0 / (k * math.pi)) * e
        dg -= (2.0 * k * math.pi) * e
    return g, dg


def _solve(h, target: np.ndarray, table: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Each x with H(x) = target, H increasing, table = H(xs) and h(x, rows) = (H(x) - target[rows], H'(x)).

    Newton steps start from the table's interpolation of the target, in the
    bracket of the table cell around it; a step that leaves the bracket the
    signs of h keep is replaced by bisection.  Each root stops after a step
    below 1e-12 of it, past which Newton's quadratic convergence leaves only
    rounding, so no root's steps depend on the others.
    """
    cell = np.clip(np.searchsorted(table, target), 1, xs.size - 1)
    x, lo, hi = np.interp(target, table, xs), xs[cell - 1], xs[cell]
    rows = np.arange(x.size)
    for _ in range(_NEWTON_STEPS):
        if not rows.size:
            break
        old = x[rows]
        value, slope = h(old, rows)
        lo[rows] = np.where(value < 0.0, old, lo[rows])
        hi[rows] = np.where(value > 0.0, old, hi[rows])
        new = old - value / slope
        outside = ~((lo[rows] <= new) & (new <= hi[rows]))  # NaN too
        new[outside] = 0.5 * (lo[rows] + hi[rows])[outside]
        x[rows] = new
        rows = rows[(np.abs(new - old) > 1e-12 * np.abs(new)) & (value != 0.0)]
    return x


def _gap_exit_times(u: np.ndarray, gap: float, variance_rate: float) -> np.ndarray:
    """The u-quantiles, u in [0, 1), of the first time a Brownian gap of variance ``variance_rate`` per unit time leaves (0, 2 pi).

    The gap starts at ``gap`` in (0, pi], the start gap folded by the
    symmetry x -> 2 pi - x.  In the scaled time s = variance_rate * t / (2 pi)^2
    this is the exit time of (0, 1) by a standard Brownian motion from
    xi = gap / (2 pi), whose CDF F this solves F(s) = u for: below
    _IMAGE_END, -log F = -log u in w = 1/s, where it is near linear; above
    it, -log(1 - F) = -log(1 - u) in s, where it is.  Tables of both give
    the first guesses.  Each time depends on its own u only.
    """
    xi = gap / TWO_PI
    to_time = TWO_PI**2 / variance_rate
    out = np.zeros(u.shape)
    f_image = float(_image_cdf(np.array([_IMAGE_END]), xi)[0][0])
    early = np.flatnonzero((u > 0.0) & (u <= f_image))
    if early.size:
        y = -np.log(u[early])
        z0 = xi / math.sqrt(2.0 * _IMAGE_END)
        w = 2.0 * (np.linspace(z0, max(z0, _TABLE_ERFC_END), _TABLE_POINTS) / xi) ** 2
        w[0] = 1.0 / _IMAGE_END

        def h(w, rows):
            f, df = _image_cdf(1.0 / w, xi)
            return -np.log(f) - y[rows], df / (w * w * f)

        out[early] = to_time / _solve(h, y, -np.log(_image_cdf(1.0 / w, xi)[0]), w)
    late = np.flatnonzero(u > f_image)
    if late.size:
        y = -np.log(1.0 - u[late])
        s = np.linspace(_IMAGE_END, _TABLE_S_END, _TABLE_POINTS)

        def h(s, rows):
            g, dg = _eigen_survival(s, xi)
            return -np.log(g) - y[rows], -dg / g

        out[late] = to_time * _solve(h, y, -np.log(_eigen_survival(s, xi)[0]), s)
    return out


# ---------------------------------------------------------------------------
# Leaf invariance


def leaf_defects(trajectory: Trajectory) -> np.ndarray:
    """The leaf defect of a trajectory at each recorded time, relative to its start point."""
    coords = trajectory.states[:, 2:4] if isinstance(trajectory.model, TorusWinding) else trajectory.states[:, 1:3]
    return _leaf_defects(trajectory.model, trajectory.start, coords)


def check_leaf_invariance(trajectory: Trajectory) -> float:
    """Max leaf defect of a trajectory relative to its start point."""
    return float(np.max(leaf_defects(trajectory)))
