"""Transversal averaging: leaf averages, averaged ODE, error decomposition, rates.

The slow transversal motion of the eps-perturbed cylinder flow, watched at the
rescaled time t/eps, is compared with the ODE driven by the leafwise ergodic
averages of the perturbing field.  The averaging defect per vertical component

    delta_i = integral_0^t [ dpi_i(K)(y_{r/eps}) - Q^{dpi_i(K)}(pi(y_{r/eps})) ] dr

is split over a partition of [0, t/eps] into four terms A1..A4 (fresh-restart
mismatch, per-interval ergodic error, Riemann-sum error, and the unpartitioned
tail), each with a pathwise bound.

For the cylinder model every integral in the decomposition is exact and is
needed only at the partition times t_0..t_N and t/eps: the theta-integrals are
closed form (``AngularJumpPath.cos_integral_prefix``), z solves z' = eps k3(z)
in closed form, so eps times the integral of k3(z) over an interval is the z
increment, and the leafwise dynamics do not see (r, z), so one invariant
measure on the circle serves every leaf.  Interval integrals are differences
of values at those N+2 times, so their sums telescope and |delta| <= sum |A_i|
holds to rounding on every realization.  Three terms vanish identically and
are reported as exact zeros: A1 of the radial component (the restart shares
the rotation and jumps, and dpi_1(K) sees only theta), and A2 and delta of
the vertical component (dpi_2(K) = k3(z) does not see theta, so it equals its
own leaf average).

The averaged side is closed form too.  The only leaf average ever taken is
Q(cos theta): exactly 0 under the uniform measure, and (F(T) - F(T0)) / (T - T0)
on one long jump clock under the empirical one.  So the averaged field is
(q1, k3(z)) with the one float q1 = lambda0 + Q(cos theta)
(``averaged_radial_rate``), and its ODE is solved by v(s) = (r0 + q1 s, z(s))
with the same vertical flow as the replicas.

The replicas of one eps are one batch (``decompose_batch``).  Each replica
draws only its jump times, from its own keyed stream, once per run
(``averaging_errors``).  A stream is one running sum of its gaps, so the draw
at the longest horizon t / min(eps) holds the draw at every t/eps as its part
<= t/eps, and each eps reads a column slice of that one array; the jumps past
t/eps that a slice still carries are ignored.  The jump times of all
replicas, NaN-padded into one array, give every replica's cos integrals at the
N+2 times, its decomposition, its end point r0 + eps (lambda0 t/eps + F(t/eps))
and the bound checks as row reductions, and z, which no noise touches, is one
closed-form evaluation shared by all; q1 and the averaged ODE are solved once
per run.  The manifold exit is exact
(``flows.manifold_exit_times``): r is monotone between the jump times and the
times where cos theta = -lambda0, so its minimum over [0, t/eps] is found
there, with no time grid.  A batch is the one result type: the one-replica
``decompose_error`` returns a batch of one row, and ``check_pathwise_bounds``,
the one bound check, reads the rows that stayed on the manifold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drivers import ROLE_INDEPENDENT, StreamKey, _n_full_steps, _n_steps, replica_poisson_jumps, sample_poisson_jumps
from .flows import CYLINDER_JUMP_RATE, AngularJumpPath, _bisect, manifold_exit_times
from .geometry import (
    CylPoint,
    PerturbationField,
    RotationJumpCylinder,
    VerticalRegion,
)

TRIANGLE_TOL = 1e-12

F_CHOICES = ("sqrt", "log")
MEASURE_MODES = ("analytic-uniform", "empirical")


# ---------------------------------------------------------------------------
# Invariant measures and leaf averages


@dataclass(frozen=True)
class InvariantMeasureSpec:
    """The invariant measure on the circle that leaf averages Q^g are taken against.

    The leafwise dynamics (unit rotation plus antipodal jumps) do not depend
    on the leaf, so one measure serves every leaf, and the only average the
    model needs is Q(cos theta).  ``analytic-uniform`` is the normalized
    Lebesgue measure of the circle, under which Q(cos theta) is exactly 0.
    ``empirical`` is the time average along one long unperturbed
    rotation-jump run of length ``horizon``, with the leading
    ``burn_in_fraction`` discarded; ``averaged_radial_rate`` draws that run's
    jump clock from the stream ``key.with_role("independent")``.
    """

    mode: str = "analytic-uniform"
    horizon: float = 200.0
    burn_in_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.mode not in MEASURE_MODES:
            raise ValueError(f"measure mode must be one of {MEASURE_MODES}: {self.mode!r}")
        if not self.horizon > 0.0:
            raise ValueError(f"the empirical measure needs a positive horizon: {self.horizon!r}")
        if not 0.0 <= self.burn_in_fraction < 1.0:
            raise ValueError("burn-in fraction must lie in [0, 1)")


def averaged_radial_rate(
    perturbation: PerturbationField, measure: InvariantMeasureSpec, key: StreamKey | None = None
) -> float:
    """Q^{dpi_1(K)}, the radial component of the averaged field: one constant on every leaf.

    It is lambda0 + Q(cos theta) (just lambda0 without the angular
    modulation); the vertical component is k3(z) itself, exactly, because k3
    does not see theta.  On the empirical measure's one run
    theta(s) = s + pi N_s, drawn from ``key.with_role("independent")``,
    Q(cos theta) is (F(T) - F(T0)) / (T - T0), with F the exact cos
    integral, T the horizon and T0 the end of the burn-in.
    """
    if not perturbation.has_angular:
        return perturbation.lambda0
    cos_average = 0.0  # under the uniform measure
    if measure.mode == "empirical":
        if key is None:
            raise ValueError("the empirical measure needs a StreamKey for its jump clock")
        jumps = sample_poisson_jumps(key.with_role(ROLE_INDEPENDENT), CYLINDER_JUMP_RATE, measure.horizon)
        t0 = measure.burn_in_fraction * measure.horizon
        f0, f1 = AngularJumpPath(0.0, jumps[None, :]).cos_integral_prefix([t0, measure.horizon])[0]
        cos_average = float(f1 - f0) / (measure.horizon - t0)
    return perturbation.lambda0 + cos_average


def measured_lipschitz(perturbation: PerturbationField, leaves: list[tuple[float, float]]) -> float:
    """Numerical Lipschitz estimate of the averaged field over the given (r, z) leaves.

    The radial component is the same constant on every leaf, so only k3 varies.
    """
    worst = 0.0
    rates = [float(perturbation.vertical_rate(z)) for _, z in leaves]
    for j in range(len(leaves)):
        for i in range(j):
            dist = math.hypot(leaves[i][0] - leaves[j][0], leaves[i][1] - leaves[j][1])
            if dist > 0:
                worst = max(worst, abs(rates[i] - rates[j]) / dist)
    return worst


# ---------------------------------------------------------------------------
# Averaged ODE


@dataclass(frozen=True)
class AveragedTrajectory:
    times: np.ndarray
    values: np.ndarray  # (n_times, 2)
    radial_rate: float  # q1, the constant radial component of the averaged field
    exit_time: float | None = None

    @property
    def final(self) -> np.ndarray:
        return self.values[-1]


def solve_averaged_ode(
    perturbation: PerturbationField,
    measure: InvariantMeasureSpec,
    v0,
    T: float,
    step: float,
    region: VerticalRegion | None = None,
    key: StreamKey | None = None,
) -> AveragedTrajectory:
    """dv/dt = (Q^{dpi_1(K)}, Q^{dpi_2(K)})(v) in closed form, recorded every T/ceil(T/step).

    v(s) = (r0 + q1 s, z(s)), with q1 = lambda0 + Q(cos theta) and z the flow
    of z' = k3(z).  Each coordinate is monotone in s, so v leaves the vertical
    region V before T exactly when v(T) lies outside it; the exit time T0 is
    then found by bisection on the closed form, and the record stops there.
    """
    region = region or VerticalRegion()
    v0 = np.asarray(v0, dtype=float)
    if not region.contains(v0):
        raise ValueError(f"v0={v0} lies outside the vertical region")
    if T <= 0.0 or step <= 0.0:
        raise ValueError("T and step must be positive")
    q1 = averaged_radial_rate(perturbation, measure, key)

    def v(s):
        s = np.asarray(s, dtype=float)
        return np.stack((v0[0] + q1 * s, perturbation.vertical_flow(v0[1], s)), axis=-1)

    times = np.linspace(0.0, T, max(1, _n_steps(T, step)) + 1)
    exit_time = None
    if not region.contains(v(T)):
        exit_time = float(_bisect(lambda s: region.contains(v(s)), 0.0, T))
        times = np.append(times[times < exit_time], exit_time)
    return AveragedTrajectory(times=times, values=v(times), radial_rate=q1, exit_time=exit_time)


# ---------------------------------------------------------------------------
# Partition scheme


def _f_value(eps: float, f_choice: str, p: float) -> float:
    if f_choice == "sqrt":
        return math.sqrt(eps)
    if f_choice == "log":
        return abs(math.log(eps)) ** (-1.0 / (2.0 * p))
    raise ValueError(f"f_choice must be one of {F_CHOICES}: {f_choice!r}")


@dataclass(frozen=True)
class PartitionScheme:
    """Partition of [0, t/eps] with increment delta_t = t/f(eps).

    The number of full intervals is the largest N with N*delta_t <= t/eps
    (for f = sqrt this is the integer part of eps^{-1/2}); the remainder
    [t_N, t/eps] of length < delta_t is the tail estimated by the A4 term.
    """

    eps: float
    t: float
    f_choice: str
    p: float
    f_value: float
    delta_t: float
    n_intervals: int

    @property
    def horizon(self) -> float:
        return self.t / self.eps

    @property
    def boundaries(self) -> np.ndarray:
        b = np.arange(self.n_intervals + 1) * self.delta_t
        return np.minimum(b, self.horizon)


def make_partition(eps: float, t: float, f_choice: str = "sqrt", p: float = 2.0) -> PartitionScheme:
    if not 0.0 < eps < 1.0:
        raise ValueError(f"make_partition requires 0 < eps < 1 (got eps={eps}); the partition degenerates otherwise")
    if t <= 0.0:
        raise ValueError(f"t must be positive: {t}")
    if p < 1.0:
        raise ValueError(f"p must be >= 1: {p}")
    f = _f_value(eps, f_choice, p)
    delta_t = t / f
    return PartitionScheme(
        eps=eps, t=t, f_choice=f_choice, p=p, f_value=f, delta_t=delta_t, n_intervals=_n_full_steps(f, eps)
    )


# ---------------------------------------------------------------------------
# Error decomposition


@dataclass(frozen=True)
class DecompositionBatch:
    """A1..A4, delta and end points of many replicas under one partition.

    ``terms[i, c]`` holds (a1, a2, a3, a4, delta) of component c + 1 (radial,
    then vertical) for replica i.  ``exit_times`` is inf for a replica that
    stays on the manifold; the terms and end point of one that exits mean
    nothing and are read only where ``stayed``.
    """

    partition: PartitionScheme
    terms: np.ndarray  # (replicas, 2, 5)
    r_end: np.ndarray  # (replicas,)
    z_end: float
    exit_times: np.ndarray  # (replicas,)

    @property
    def stayed(self) -> np.ndarray:
        return np.isinf(self.exit_times)


def decompose_batch(
    perturbation: PerturbationField,
    q1: float,
    partition: PartitionScheme,
    start: CylPoint,
    clocks: AngularJumpPath,
) -> DecompositionBatch:
    """The decomposition of every replica, from its jump times on [0, t/eps], as array passes.

    ``q1`` is the radial component of the averaged field (``averaged_radial_rate``);
    row i of ``clocks`` holds replica i's jumps, from theta0 = start.theta;
    jumps past t/eps are ignored.
    """
    n = clocks.jumps.shape[0]
    eps = partition.eps
    # Every integral below is a difference of exact values at t_0..t_N, t/eps.
    ts = np.append(partition.boundaries, partition.horizon)
    steps, tail = np.diff(ts)[:-1], float(ts[-1] - ts[-2])
    terms = np.zeros((n, 2, 5))

    # Radial: g1 = lambda0 [+ cos theta] against the constant average q1.  The
    # unperturbed restart from y_{t_k} shares the rotation and jumps
    # pathwise, so its g1-integrals equal the perturbed path's and A1 = 0.
    g1_prefix = perturbation.lambda0 * ts
    prefix = None
    if perturbation.has_angular:
        prefix = clocks.cos_integral_prefix(ts)
        g1_prefix = g1_prefix + prefix
    g1_int = np.diff(g1_prefix, axis=-1)
    terms[:, 0, 1] = eps * np.sum(g1_int[..., :-1] - q1 * steps, axis=-1)
    terms[:, 0, 2] = -eps * q1 * tail
    terms[:, 0, 3] = eps * g1_int[..., -1]
    terms[:, 0, 4] = eps * (g1_prefix[..., -1] - q1 * ts[-1])
    # The end point is taken at t itself, where the averaged ODE reads v(t):
    # eps * (t/eps) can round away from t by an ulp.
    r_end = start.r + perturbation.lambda0 * partition.t
    if prefix is not None:
        r_end = r_end + eps * prefix[:, -1]

    # Vertical: eps * integral of k3(z) is the z increment; the restart
    # freezes z at z(t_k), whose rate k3(z(t_k)) is also the leaf average.
    # No noise touches z, so these terms are the same for every replica.
    z = perturbation.vertical_flow(start.z, eps * ts)
    dz = np.diff(z)
    riemann = eps * perturbation.vertical_rate(z[:-2]) * steps
    terms[:, 1, 0] = np.sum(dz[:-1] - riemann)
    terms[:, 1, 2] = np.sum(riemann) - (z[-1] - z[0])
    terms[:, 1, 3] = dz[-1]

    return DecompositionBatch(
        partition=partition,
        terms=terms,
        r_end=np.broadcast_to(r_end, (n,)),
        z_end=float(perturbation.vertical_flow(start.z, partition.t)),
        exit_times=manifold_exit_times(clocks, start.r, eps, perturbation, partition.horizon),
    )


def decompose_error(
    model: RotationJumpCylinder,
    perturbation: PerturbationField,
    eps: float,
    t: float,
    key: StreamKey,
    measure: InvariantMeasureSpec | None = None,
    f_choice: str = "sqrt",
    p: float = 2.0,
    start: CylPoint | None = None,
) -> DecompositionBatch:
    """Realized averaging-error decomposition for one replica: a batch of one row.

    Draws the replica's jump clock on the rescaled horizon t/eps from key and
    runs ``decompose_batch`` on it.  A manifold exit before the horizon shows
    as a finite ``exit_times[0]``; the terms of that row then mean nothing.
    """
    if not isinstance(model, RotationJumpCylinder):
        raise ValueError("the error decomposition is defined for the rotation-jump cylinder")
    measure = measure or InvariantMeasureSpec()
    start = start or CylPoint(theta=0.0, r=1.0, z=1.0)
    partition = make_partition(eps, t, f_choice, p)
    jumps = sample_poisson_jumps(key, CYLINDER_JUMP_RATE, partition.horizon)
    q1 = averaged_radial_rate(perturbation, measure, key)
    return decompose_batch(perturbation, q1, partition, start, AngularJumpPath(start.theta, jumps[None, :]))


# ---------------------------------------------------------------------------
# Rate bounds


@dataclass(frozen=True)
class RateBound:
    """Constants entering H(eps, t) = min{h*sqrt(t), C1 eps^(1/4), C2 sqrt(eps) t^(3/2), C3 sqrt(eps t)}.

    gronwall_c is the Lipschitz constant of the averaged field (so
    G = sqrt(t) e^{C t} H); sup_k feeds the commuting-class
    h(eps, t) = sqrt(eps) * t * sup|K|.
    """

    gronwall_c: float
    c1: float
    c2: float
    c3: float
    sup_k: float

    def __post_init__(self) -> None:
        for name in ("gronwall_c", "c1", "c2", "c3", "sup_k"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")

    def h(self, eps: float, t: float) -> float:
        return math.sqrt(eps) * t * self.sup_k

    def H(self, eps: float, t: float) -> float:
        if eps < 0.0 or t < 0.0:
            raise ValueError("eps and t must be >= 0")
        return min(
            self.h(eps, t) * math.sqrt(t),
            self.c1 * eps ** 0.25,
            self.c2 * math.sqrt(eps) * t ** 1.5,
            self.c3 * math.sqrt(eps * t),
        )

    def G(self, eps: float, t: float) -> float:
        return math.sqrt(t) * math.exp(self.gronwall_c * t) * self.H(eps, t)


def default_rate_bound(
    perturbation: PerturbationField,
    region: VerticalRegion | None = None,
    c1: float | None = None,
    c2: float | None = None,
) -> RateBound:
    """Instantiate the bound constants from the field catalog.

    C1 and C2 come from a central-limit rate and are not derivable at desk
    scale; the default 10*sup|K| makes the bound check one-sided by design.
    C3 = sup|g| is exact for the catalog.
    """
    region = region or VerticalRegion()
    sup_k = perturbation.sup_norm(region)
    c3 = max(perturbation.sup_radial(), perturbation.sup_vertical(region))
    return RateBound(
        gronwall_c=perturbation.k3_lipschitz(),
        c1=10.0 * sup_k if c1 is None else c1,
        c2=10.0 * sup_k if c2 is None else c2,
        c3=c3,
        sup_k=sup_k,
    )


# ---------------------------------------------------------------------------
# Monte Carlo averaging error


@dataclass(frozen=True)
class BoundViolation:
    replica_id: int
    component: int
    kind: str  # "triangle" or "a4"


@dataclass(frozen=True)
class AveragingErrorResult:
    eps: float
    t: float
    p: float
    estimate: float
    std_error: float
    bound_g: float
    averaged: AveragedTrajectory  # the averaged ODE's solution v on [0, t]
    errors: np.ndarray  # per-replica |pi(y_{t/eps}) - v(t)|
    n_exited: int
    n_jumps: int  # jumps <= t/eps on all replicas' clocks; none are drawn without a cos term
    n_intervals: int  # full intervals of the partition of [0, t/eps]
    violations: tuple[BoundViolation, ...]
    max_triangle_slack: float
    max_a4_ratio: float
    decomp_rows: np.ndarray | None = None  # (replica, component, a1..a4, delta)

    @property
    def v_final(self) -> np.ndarray:
        return self.averaged.final


def check_pathwise_bounds(
    batch: DecompositionBatch, perturbation: PerturbationField, region: VerticalRegion
) -> tuple[list[BoundViolation], float, float]:
    """Triangle and tail (A4) bound checks on the rows of a batch that stayed on the manifold.

    Each violation names its row.  Returns the violations plus the worst
    triangle slack |delta| - sum |A_i| and the worst ratio
    |A4| / (sup|g| t f(eps)) seen, for reporting; f(eps) is sqrt(eps) for
    the sqrt partition.
    """
    rows = np.flatnonzero(batch.stayed)
    a = np.abs(batch.terms[rows])
    slack = a[..., 4] - (a[..., 0] + a[..., 1] + a[..., 2] + a[..., 3])
    sup_g = np.array([perturbation.sup_radial(), perturbation.sup_vertical(region)])
    limit = sup_g * batch.partition.t * batch.partition.f_value
    ratio = np.divide(a[..., 3], limit, out=np.zeros(a.shape[:-1]), where=limit > 0.0)
    failed = np.stack((slack > TRIANGLE_TOL, a[..., 3] > limit + TRIANGLE_TOL), axis=-1)
    violations = [
        BoundViolation(int(rows[i]), int(c) + 1, ("triangle", "a4")[k])
        for i, c, k in np.argwhere(failed)
    ]
    worst_slack = float(slack.max()) if slack.size else -math.inf
    worst_ratio = max(0.0, float(ratio.max())) if ratio.size else 0.0
    return violations, worst_slack, worst_ratio


def _replica_clocks(key: StreamKey, n: int, theta0: float, horizons: list[float], angular: bool, rate: float):
    """Yield, per horizon h, the clock whose row i is ``sample_poisson_jumps(key.replica(i), rate, h)``.

    Every replica's stream is drawn once, at the longest horizon
    (``replica_poisson_jumps``).  A stream is one running sum, so the part
    <= h of each row is the draw at h, and the clock at h is the first
    columns of the run's array, as many as its longest row at h needs: a
    slice, not a copy, whose rows may carry jumps past h that every reader
    ignores.  F at the jumps is computed once and sliced the same way.
    Without ``angular`` no reader needs a jump, so none is drawn.
    """
    jumps = replica_poisson_jumps(key, n, rate, max(horizons)) if angular else np.empty((n, 0))
    run = AngularJumpPath(theta0, jumps)
    for h in horizons:
        width = int(np.count_nonzero(run.jumps <= h, axis=1).max(initial=0))
        yield AngularJumpPath(theta0, run.jumps[:, :width], run.jump_prefix[:, : width + 1])


def averaging_errors(
    perturbation: PerturbationField,
    eps_grid,
    t: float,
    p: float,
    n_replicas: int,
    key: StreamKey,
    measure: InvariantMeasureSpec | None = None,
    ode_step: float = 1e-3,
    region: VerticalRegion | None = None,
    f_choice: str = "sqrt",
    start: CylPoint | None = None,
    rate_bound: RateBound | None = None,
    keep_decompositions: bool = False,
) -> list[AveragingErrorResult]:
    """Monte Carlo estimates of [E |pi(y_{t/eps}) - v(t)|^p]^(1/p) with their G bounds, one per eps.

    Replica i's jump clock at every eps comes from one stream, the one
    ``sample_poisson_jumps(key.replica(i), ...)`` draws from, and is drawn
    once per run, at the longest horizon t / min(eps); each eps reads its
    part on [0, t/eps] from a slice of that draw (``_replica_clocks``).  The averaged ODE and
    its q1 are solved once.  Per eps, one array pass over all replicas then
    gives their end points, their A1..A4 decompositions, their exact manifold
    exits and the pathwise A1..A4 bound checks.  Requires t < T0 (the ODE
    must not leave V before t).  Every quantity is exact, so ``ode_step``
    only spaces the averaged ODE's record.
    """
    if p < 1.0:
        raise ValueError(f"p must be in [1, inf): {p}")
    if n_replicas < 1:
        raise ValueError("need at least one replica")
    if not len(eps_grid):
        raise ValueError("need at least one eps")
    measure = measure or InvariantMeasureSpec()
    region = region or VerticalRegion()
    start = start or CylPoint(theta=0.0, r=1.0, z=1.0)
    rb = rate_bound or default_rate_bound(perturbation, region)
    ode = solve_averaged_ode(perturbation, measure, (start.r, start.z), t, ode_step, region, key)
    if ode.exit_time is not None:
        raise ValueError(f"t={t} is not before the averaged ODE's boundary exit T0={ode.exit_time}")

    partitions = [make_partition(eps, t, f_choice, p) for eps in eps_grid]
    horizons = [part.horizon for part in partitions]
    clocks = _replica_clocks(
        key, n_replicas, start.theta, horizons, perturbation.has_angular, CYLINDER_JUMP_RATE
    )
    results = []
    for part, clock in zip(partitions, clocks):
        batch = decompose_batch(perturbation, ode.radial_rate, part, start, clock)
        stayed = np.flatnonzero(batch.stayed)
        valid = np.hypot(batch.r_end[stayed] - ode.final[0], batch.z_end - ode.final[1])
        errors = np.full(n_replicas, np.nan)
        errors[stayed] = valid
        violations, worst_slack, worst_ratio = check_pathwise_bounds(batch, perturbation, region)
        decomp_rows = None
        if keep_decompositions:
            rows = np.empty((stayed.size, 2, 7))
            rows[:, :, 0] = stayed[:, None]
            rows[:, :, 1] = (1.0, 2.0)
            rows[:, :, 2:] = batch.terms[stayed]
            decomp_rows = rows.reshape(-1, 7)

        if valid.size == 0:
            raise RuntimeError("all replicas exited the manifold; no estimate")
        powers = valid ** p
        mean_p = float(np.mean(powers))
        estimate = mean_p ** (1.0 / p)
        if valid.size > 1 and mean_p > 0.0:
            se_mean = float(np.std(powers, ddof=1)) / math.sqrt(valid.size)
            std_error = se_mean / (p * mean_p ** ((p - 1.0) / p))
        else:
            std_error = 0.0

        results.append(
            AveragingErrorResult(
                eps=part.eps,
                t=t,
                p=p,
                estimate=estimate,
                std_error=std_error,
                bound_g=rb.G(part.eps, t),
                averaged=ode,
                errors=errors,
                n_exited=n_replicas - stayed.size,
                n_jumps=int(np.count_nonzero(clock.jumps <= part.horizon)),
                n_intervals=part.n_intervals,
                violations=tuple(violations),
                max_triangle_slack=worst_slack,
                max_a4_ratio=worst_ratio,
                decomp_rows=decomp_rows,
            )
        )
    return results


def averaging_error(
    model: RotationJumpCylinder,
    perturbation: PerturbationField,
    eps: float,
    t: float,
    p: float,
    n_replicas: int,
    key: StreamKey,
    measure: InvariantMeasureSpec | None = None,
    dt: float = 0.01,
    ode_step: float = 1e-3,
    region: VerticalRegion | None = None,
    f_choice: str = "sqrt",
    start: CylPoint | None = None,
    rate_bound: RateBound | None = None,
    keep_decompositions: bool = False,
) -> AveragingErrorResult:
    """``averaging_errors`` at the one eps; ``model`` must be the cylinder, and ``dt`` has no effect."""
    if not isinstance(model, RotationJumpCylinder):
        raise ValueError("the error decomposition is defined for the rotation-jump cylinder")
    return averaging_errors(
        perturbation, [eps], t, p, n_replicas, key, measure, ode_step, region,
        f_choice, start, rate_bound, keep_decompositions,
    )[0]


# ---------------------------------------------------------------------------
# Rate-exponent fitting


@dataclass(frozen=True)
class RateFit:
    slope: float | None
    intercept: float | None
    r_squared: float | None
    flag: str  # "ok" or "exact"
    n_zero: int


def fit_rate_exponent(pairs) -> RateFit:
    """Least-squares fit of ln(error) against ln(eps).

    Zero errors are excluded and counted; an all-zero input is the
    commuting/exact case and gets a flag instead of a slope.
    """
    eps = np.array([float(a) for a, _ in pairs])
    err = np.array([float(b) for _, b in pairs])
    if np.any(eps <= 0.0):
        raise ValueError("eps values must be positive")
    if np.any(err < 0.0):
        raise ValueError("errors must be nonnegative")
    usable = err > 0.0
    n_zero = int(np.sum(~usable))
    if not np.any(usable):
        return RateFit(slope=None, intercept=None, r_squared=None, flag="exact", n_zero=n_zero)
    if np.sum(usable) < 3:
        raise ValueError("need at least 3 pairs with positive error to fit a rate")
    if len(set(eps[usable].tolist())) < 2:  # not np.unique: its first call imports numpy.ma
        raise ValueError("need at least 2 distinct eps with positive error to fit a rate")
    x = np.log(eps[usable])
    y = np.log(err[usable])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(
        slope=float(slope), intercept=float(intercept), r_squared=r2, flag="ok", n_zero=n_zero
    )
