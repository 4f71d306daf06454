import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foliated_flows.drivers import DriverPath, StreamKey, replica_poisson_jumps, sample_brownian, sample_jump_driver
from foliated_flows.flows import (
    AngularJumpPath,
    ManifoldExit,
    Trajectory,
    check_leaf_invariance,
    cylinder_trajectory,
    evolve_coalescing_circle,
    evolve_cylinder,
    evolve_torus,
    leaf_defects,
    manifold_exit_times,
    n_point_motion,
    perturbed_cylinder_path,
    radius,
    torus_trajectory,
)
from foliated_flows.geometry import (
    TWO_PI,
    CoalescingCircle,
    CylPoint,
    PerturbationField,
    RotationJumpCylinder,
    TorusPoint,
    TorusWinding,
    UnsupportedModel,
    _leaf_defects,
)

SEED = 20250811


def _padded_clocks(theta0, rows):
    """Rows of jump times as one AngularJumpPath, NaN-padded to the longest."""
    jumps = np.full((len(rows), max(r.size for r in rows)), np.nan)
    for i, r in enumerate(rows):
        jumps[i, : r.size] = r
    return AngularJumpPath(theta0, jumps)


def _manual_driver(increments, dt, jumps=()):
    inc = np.asarray(increments, dtype=float)
    return DriverPath(
        horizon=inc.size * dt,
        dt=dt,
        brownian_increments=inc,
        jump_times=np.asarray(jumps, dtype=float),
    )


# ---------------------------------------------------------------------------
# torus


def test_torus_zero_noise_is_identity():
    model = TorusWinding.dense_default()
    start = TorusPoint.from_coords(0.3, 0.6)
    driver = _manual_driver([0.0, 0.0], dt=0.5)
    out = evolve_torus(model, start, driver, 1.0)
    assert out.lift == start.lift


def test_torus_full_wrap_returns_to_displayed_start():
    model = TorusWinding(v=(1.0, 0.0))
    start = TorusPoint.from_coords(0.25, 0.5)
    driver = _manual_driver([1.0], dt=1.0)
    out = evolve_torus(model, start, driver, 1.0)
    assert (out.a, out.b) == pytest.approx((start.a, start.b), abs=1e-12)
    assert out.lift[0] == pytest.approx(start.lift[0] + 1.0, abs=1e-12)


def test_torus_trajectory_stays_on_leaf():
    model = TorusWinding.dense_default()
    start = TorusPoint.from_coords(0.1, 0.9)
    driver = sample_brownian(StreamKey(SEED, 4), horizon=5.0, dt=1e-3)
    traj = torus_trajectory(model, start, driver)
    assert check_leaf_invariance(traj) <= 1e-12
    end = evolve_torus(model, start, driver, 5.0)
    assert _leaf_defects(model, start, np.array([end.lift]))[0] <= 1e-12


def test_torus_time_beyond_horizon_rejected():
    model = TorusWinding.dense_default()
    driver = _manual_driver([0.1], dt=1.0)
    with pytest.raises(ValueError):
        evolve_torus(model, TorusPoint.from_coords(0, 0), driver, 2.0)


def test_torus_cocycle():
    model = TorusWinding.dense_default()
    start = TorusPoint.from_coords(0.4, 0.2)
    driver = sample_brownian(StreamKey(SEED, 8), horizon=2.0, dt=0.25)
    whole = evolve_torus(model, start, driver, 2.0)
    mid = evolve_torus(model, start, driver, 1.0)
    comp = evolve_torus(model, mid, driver.shifted(1.0), 1.0)
    assert comp.lift == pytest.approx(whole.lift, abs=1e-12)


# ---------------------------------------------------------------------------
# rotation-jump cylinder


def test_cylinder_t0_is_identity():
    driver = _manual_driver([], dt=1.0)
    start = CylPoint(1.0, 2.0, 3.0)
    assert evolve_cylinder(start, driver, 0.0) == start


def test_cylinder_pure_rotation_without_jumps():
    driver = DriverPath(
        horizon=math.pi, dt=math.pi,
        brownian_increments=np.zeros(1), jump_times=np.empty(0),
    )
    start = CylPoint(0.5, 2.0, -3.0)
    out = evolve_cylinder(start, driver, math.pi)
    assert out.theta == pytest.approx(0.5 + math.pi, abs=1e-12)
    assert (out.r, out.z) == (2.0, -3.0)


def test_cylinder_jump_adds_pi():
    driver = _manual_driver([0.0], dt=2.0, jumps=[0.5])
    out = evolve_cylinder(CylPoint(0.0, 1.0, 0.0), driver, 1.0)
    assert out.theta == pytest.approx((1.0 + math.pi) % (2 * math.pi), abs=1e-12)


def test_cylinder_mc_mean_matches_semigroup_formula():
    # E cos(theta_t) = cos(t) e^{-2t} under the rotation-jump semigroup
    t, n = 1.0, 4000
    vals = np.empty(n)
    for i in range(n):
        driver = sample_jump_driver(StreamKey(SEED, i), 2.0, 0.5)
        vals[i] = math.cos(evolve_cylinder(CylPoint(0.0, 1.0, 0.0), driver, t).theta)
    expected = math.cos(t) * math.exp(-2.0 * t)
    se = float(np.std(vals, ddof=1)) / math.sqrt(n)
    assert abs(float(np.mean(vals)) - expected) <= 4.0 * se


def test_cylinder_cocycle():
    driver = sample_jump_driver(StreamKey(SEED, 3), 4.0, 0.5)
    start = CylPoint(0.7, 1.0, 0.0)
    whole = evolve_cylinder(start, driver, 3.0)
    mid = evolve_cylinder(start, driver, 1.25)
    comp = evolve_cylinder(mid, driver.shifted(1.25), 1.75)
    assert abs(math.remainder(comp.theta - whole.theta, TWO_PI)) <= 1e-12


def test_angular_jump_path_prefix_matches_direct_quadrature():
    # independent oracle: dense trapezoid quadrature within each inter-jump
    # segment (theta is smooth there), segments summed
    jumps = np.array([0.4, 1.1, 2.3])
    path = AngularJumpPath(theta0=0.7, jumps=jumps[None, :])
    a, b = 0.2, 3.0
    breakpoints = np.concatenate(([a], jumps[(jumps > a) & (jumps < b)], [b]))
    total = 0.0
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        ss = np.linspace(lo, hi, 200_001)
        count = np.searchsorted(jumps, 0.5 * (lo + hi), side="right")
        total += np.trapezoid(np.cos(0.7 + ss + math.pi * count), ss)
    f_a, f_b = path.cos_integral_prefix([a, b])[0]
    assert f_b - f_a == pytest.approx(total, abs=1e-9)


# ---------------------------------------------------------------------------
# perturbed cylinder


def _perturbed_end(start, driver, t, eps, K):
    # the recorded state at t, the last time of the path
    path = perturbed_cylinder_path(start, driver, t, eps, K)
    k = path.index_of(t)
    assert k == path.times.size - 1
    return CylPoint.from_angle(float(path.angular.theta(t)[0]), float(path.r[k]), float(path.z[k]))


def test_perturbed_eps_zero_reduces_to_unperturbed():
    driver = sample_jump_driver(StreamKey(SEED, 12), 3.0, 0.01)
    start = CylPoint(0.3, 1.5, 0.7)
    K = PerturbationField(lambda0=2.0, k3="sine", angular="cosine")
    a = _perturbed_end(start, driver, 2.0, 0.0, K)
    b = evolve_cylinder(start, driver, 2.0)
    assert a == b


def test_perturbed_radial_closed_form():
    # r + eps*lambda0*t with angular = none, exactly
    driver = sample_jump_driver(StreamKey(SEED, 13), 10.0, 0.01)
    K = PerturbationField(lambda0=1.0, k3="zero", angular="none")
    out = _perturbed_end(CylPoint(0.0, 1.0, 0.5), driver, 10.0, 0.1, K)
    assert out.r == pytest.approx(2.0, abs=1e-12)
    assert out.z == 0.5


def test_perturbed_cosine_integral_closed_form_without_jumps():
    # lambda0 = 0, no jumps: r_t = r0 + eps (sin(theta0 + t) - sin(theta0))
    driver = DriverPath(
        horizon=2.0, dt=0.05,
        brownian_increments=np.zeros(40), jump_times=np.empty(0),
    )
    K = PerturbationField(lambda0=0.0, k3="zero", angular="cosine")
    theta0, eps, t = 0.9, 0.25, 1.7
    out = _perturbed_end(CylPoint(theta0, 1.0, 0.0), driver, t, eps, K)
    expected = 1.0 + eps * (math.sin(theta0 + t) - math.sin(theta0))
    assert out.r == pytest.approx(expected, abs=1e-12)


def test_perturbed_vertical_rk4_against_linear_oracle():
    # z' = -eps z has the exact solution z0 e^{-eps t}
    driver = sample_jump_driver(StreamKey(SEED, 14), 5.0, 0.01)
    K = PerturbationField(lambda0=0.0, k3="negate", angular="none")
    out = _perturbed_end(CylPoint(0.0, 1.0, 2.0), driver, 5.0, 0.3, K)
    assert out.z == pytest.approx(2.0 * math.exp(-0.3 * 5.0), abs=1e-10)


def test_perturbed_manifold_exit_carries_time():
    driver = sample_jump_driver(StreamKey(SEED, 15), 10.0, 0.01)
    K = PerturbationField(lambda0=-1.0, k3="zero", angular="none")
    with pytest.raises(ManifoldExit) as info:
        _perturbed_end(CylPoint(0.0, 1.0, 0.0), driver, 10.0, 0.5, K)
    assert info.value.exit_time == pytest.approx(2.0, abs=1e-6)


def _dip_within_one_step():
    # lambda0 = -1/2 and one jump at 0.5: r' = eps (-1/2 - cos s) after the
    # jump, so on [0, 4] r has one local minimum, at s* = 2 pi / 3.  r0 puts
    # it 1e-6 (relative) below 0, so r < 0 only within about 1.5e-3 of s*,
    # strictly between the dt grid points 2.09 and 2.10.
    K = PerturbationField(lambda0=-0.5, k3="zero", angular="cosine")
    eps, s_star = 0.1, 2.0 * math.pi / 3.0
    g_min = -0.5 * s_star + 2.0 * math.sin(0.5) - math.sin(s_star)
    start = CylPoint(0.0, -eps * g_min * (1.0 - 1e-6), 0.0)
    driver = _manual_driver(np.zeros(400), dt=0.01, jumps=[0.5])
    return K, eps, start, driver


def test_perturbed_exit_found_inside_one_dt_step():
    K, eps, start, driver = _dip_within_one_step()
    angular = AngularJumpPath(start.theta, driver.jump_times[None, :])
    grid = driver.times
    assert np.all(radius(start.r, eps, K, grid, angular.cos_integral_prefix(grid)[0]) > 0.0)
    with pytest.raises(ManifoldExit) as info:
        perturbed_cylinder_path(start, driver, 4.0, eps, K)
    exit_time = info.value.exit_time
    assert 2.09 < exit_time < 2.0 * math.pi / 3.0 < 2.10
    assert abs(radius(start.r, eps, K, exit_time, angular.cos_integral_prefix(exit_time)[0])) <= 1e-15
    with pytest.raises(ManifoldExit) as info:
        cylinder_trajectory(start, driver, K, eps)
    assert info.value.exit_time == exit_time


def test_manifold_exit_times_match_a_dense_grid():
    # independent oracle: r on a 1e-4 grid plus the jump times; an exit is
    # flagged where that grid reaches 0, and r is 0 at the exit time
    K = PerturbationField(lambda0=-0.4, k3="zero", angular="cosine")
    eps, horizon, r0, theta0 = 0.5, 1.6, 0.35, 1.0
    rows = [sample_jump_driver(StreamKey(SEED, i), horizon, 0.1).jump_times for i in range(120)]
    exits = manifold_exit_times(_padded_clocks(theta0, rows), r0, eps, K, horizon)
    fine = np.linspace(0.0, horizon, 16001)
    n_exits = 0
    for jumps, exit_time in zip(rows, exits):
        angular = AngularJumpPath(theta0, jumps[None, :])
        ts = np.union1d(fine, jumps)
        r = radius(r0, eps, K, ts, angular.cos_integral_prefix(ts)[0])
        if np.any(r <= 0.0):
            n_exits += 1
            first = ts[np.argmax(r <= 0.0)]
            assert first - 1e-4 <= exit_time <= first
            assert abs(radius(r0, eps, K, exit_time, angular.cos_integral_prefix(exit_time)[0])) <= 1e-15
        else:
            assert exit_time == np.inf
        single = manifold_exit_times(angular, r0, eps, K, horizon)
        assert single[0] == exit_time
    assert 10 <= n_exits <= 110


# sha256 of manifold_exit_times' output on 200 replicas' clocks drawn to twice
# the horizon, computed while every exiting row was searched on its own:
# field, r0 and the number of rows that exit
_EXIT_SHA256 = {
    "cos, |lambda0| < 1": (PerturbationField(lambda0=-0.4, k3="zero", angular="cosine"), 1.1, 120,
                           "12c1a09d917fa73bb2711d52b6aaa4f813e396d188b8381c58ed97ef65f25acf"),
    "cos, lambda0 <= -1": (PerturbationField(lambda0=-1.0, k3="zero", angular="cosine"), 2.6, 131,
                           "b4e1ba424907ca597c36bc81f6ca0ddd6776b630a5d5af6dd9d751b25ccef210"),
    "no cos, lambda0 < 0": (PerturbationField(lambda0=-0.3, k3="zero", angular="none"), 0.5, 200,
                            "9afd941f6218cef290d8a96aa7dfce234e59f71ef1c05a7ab6202243e49be55a"),
    "cos, lambda0 >= 1": (PerturbationField(lambda0=1.0, k3="zero", angular="cosine"), 0.05, 0,
                          "157e53e4b09b7d6521aa268ec87be70b026d20b3e92d2f9962c5cc8d7290f209"),
}


def _exit_clocks():
    # theta0 = 1 and clocks drawn to twice the horizon 6 that the exit tests use
    return AngularJumpPath(1.0, replica_poisson_jumps(StreamKey(SEED), 200, 1.0, 12.0))


@pytest.mark.parametrize("name", sorted(_EXIT_SHA256))
def test_manifold_exit_times_are_pinned(name):
    K, r0, n_exits, sha256 = _EXIT_SHA256[name]
    exits = manifold_exit_times(_exit_clocks(), r0, 0.5, K, 6.0)
    assert np.count_nonzero(np.isfinite(exits)) == n_exits
    assert hashlib.sha256(exits.tobytes()).hexdigest() == sha256


def test_exit_search_cost_in_f_evaluations_does_not_grow_with_exiting_rows(monkeypatch):
    # every exiting row is bracketed and bisected in the same array passes
    K, r0, _, _ = _EXIT_SHA256["cos, |lambda0| < 1"]
    clocks = _exit_clocks()
    exits = manifold_exit_times(clocks, r0, 0.5, K, 6.0)
    out, stay = np.flatnonzero(np.isfinite(exits)), np.flatnonzero(np.isinf(exits))
    calls = []
    prefix = AngularJumpPath.cos_integral_prefix
    monkeypatch.setattr(AngularJumpPath, "cos_integral_prefix", lambda self, ts: calls.append(1) or prefix(self, ts))
    made = []
    for n_out in (5, 50):
        rows = np.concatenate((out[:n_out], stay[:50]))
        calls.clear()
        got = manifold_exit_times(AngularJumpPath(clocks.theta0, clocks.jumps[rows]), r0, 0.5, K, 6.0)
        assert got.tobytes() == exits[rows].tobytes()
        made.append(len(calls))
    assert made[0] == made[1]


def test_jump_clocks_rows_equal_their_angular_paths():
    # counts against a per-row searchsorted oracle, jumps past the last time
    # included; each row's F is that of the one-row path, and F at the jumps
    # is the jump prefix
    rows = [sample_jump_driver(StreamKey(SEED, i), 40.0, 1.0).jump_times for i in range(40)]
    rows += [np.empty(0), np.array([0.25, 0.5])]
    ts = np.concatenate(([0.0, 0.25], np.linspace(0.1, 30.0, 57), [30.0, 30.0]))
    ts.sort()
    clocks = _padded_clocks(0.3, rows)
    counts, prefix = clocks.counts(ts), clocks.cos_integral_prefix(ts)
    assert counts.shape == prefix.shape == (len(rows), ts.size)
    assert any(jumps[-1] > ts[-1] for jumps in rows[:40])
    for i, jumps in enumerate(rows):
        np.testing.assert_array_equal(counts[i], np.searchsorted(jumps, ts, side="right"))
        angular = AngularJumpPath(0.3, jumps[None, :])
        assert prefix[i].tobytes() == angular.cos_integral_prefix(ts)[0].tobytes()
        at_jumps = angular.cos_integral_prefix(jumps)[0]
        np.testing.assert_array_equal(clocks.jump_prefix[i, 1 : jumps.size + 1], at_jumps)
    assert clocks.counts(7.5).shape == clocks.cos_integral_prefix(7.5).shape == (len(rows),)
    np.testing.assert_array_equal(clocks.counts(7.5), [np.searchsorted(j, 7.5, side="right") for j in rows])


def test_angular_jump_path_takes_rows_of_jumps():
    with pytest.raises(ValueError):
        AngularJumpPath(0.0, np.array([0.5, 1.0]))


def test_perturbation_continuity_pathwise_bound():
    # common driver: sup_s |g(y_s) - g(y_s^eps)| <= Lip(g) eps t sup|K|
    # for the commuting field, with g ranging over the coordinate functions
    from foliated_flows.geometry import VerticalRegion

    driver = sample_jump_driver(StreamKey(SEED, 16), 8.0, 0.01)
    K = PerturbationField(lambda0=1.0, k3="sine", angular="none")
    eps, t = 0.05, 8.0
    start = CylPoint(0.2, 1.0, 1.0)
    path = perturbed_cylinder_path(start, driver, t, eps, K)
    sup_k = K.sup_norm(VerticalRegion())
    bound = eps * t * sup_k
    assert np.max(np.abs(path.r - start.r)) <= bound + 1e-12
    assert np.max(np.abs(path.z - start.z)) <= bound + 1e-12


# ---------------------------------------------------------------------------
# n-point motion (common noise)


def test_n_point_identical_starts_stay_identical():
    model = RotationJumpCylinder()
    starts = [CylPoint(1.0, 1.0, 0.0), CylPoint(1.0, 1.0, 0.0)]
    series = n_point_motion(model, starts, StreamKey(SEED, 21), horizon=5.0, dt=0.01)
    np.testing.assert_array_equal(series.states[:, 0, :], series.states[:, 1, :])
    assert series.hit_times == {(0, 1): 0.0}
    assert np.all(series.class_ids[:, 1] == 0)


def test_n_point_single_point_matches_evolve():
    model = RotationJumpCylinder()
    key = StreamKey(SEED, 22)
    series = n_point_motion(model, [CylPoint(0.5, 1.0, 0.0)], key, horizon=3.0, dt=0.05)
    traj = cylinder_trajectory(CylPoint(0.5, 1.0, 0.0), sample_jump_driver(key, 3.0, 0.05))
    np.testing.assert_array_equal(series.states[:, 0, :], traj.states)


def test_n_point_torus_common_noise_rigid():
    model = TorusWinding.dense_default()
    starts = [TorusPoint.from_coords(0.1, 0.2), TorusPoint.from_coords(0.5, 0.9)]
    series = n_point_motion(model, starts, StreamKey(SEED, 23), horizon=2.0, dt=0.01)
    gaps = series.states[:, 0, 2:4] - series.states[:, 1, 2:4]
    assert np.max(np.abs(gaps - gaps[0])) <= 1e-12


def test_n_point_cylinder_gap_constant():
    # both points share rotation and jumps, so the angular gap is invariant
    model = RotationJumpCylinder()
    delta = 0.8
    starts = [CylPoint(0.0, 1.0, 0.0), CylPoint(delta, 1.0, 0.0)]
    series = n_point_motion(model, starts, StreamKey(SEED, 24), horizon=10.0, dt=0.01)
    gap = np.array([
        abs(math.remainder(a - b, TWO_PI)) for a, b in zip(series.states[:, 0, 0], series.states[:, 1, 0])
    ])
    np.testing.assert_allclose(gap, delta, atol=1e-12)
    assert series.hit_times == {}


def test_n_point_coalescing_circle_is_evolve_coalescing_circle():
    # the coalescing circle's n-point motion: independent leafwise drivers
    # that merge on meeting, with the model's sigma
    starts = [CylPoint(0.0, 1.0, 0.0), CylPoint(0.2, 1.0, 0.0), CylPoint(0.0, 1.0, 0.0), CylPoint(3.0, 2.0, 0.0)]
    key = StreamKey(SEED, 27)
    series = n_point_motion(CoalescingCircle(sigma=0.7), starts, key, 2.0, 0.01)
    reference = evolve_coalescing_circle(starts, key, 2.0, 0.01, sigma=0.7)
    for name in ("times", "states", "class_ids"):
        np.testing.assert_array_equal(getattr(series, name), getattr(reference, name))
    assert series.hit_times == reference.hit_times
    assert series.model == CoalescingCircle(sigma=0.7)
    assert len(set(series.class_ids[-1].tolist())) < len(set(series.class_ids[0].tolist())) == 3
    with pytest.raises(UnsupportedModel):
        n_point_motion(CoalescingCircle(), starts, key, 1.0, 0.1, PerturbationField(lambda0=1.0), 0.1)


def test_n_point_perturbed_matches_per_point_trajectories():
    k = PerturbationField(lambda0=1.0, k3="sine", angular="cosine")
    starts = [CylPoint(0.3, 1.0, 0.5), CylPoint(2.0, 2.0, -1.0), CylPoint(0.3, 1.0, 0.5)]
    key = StreamKey(SEED, 25)
    series = n_point_motion(RotationJumpCylinder(), starts, key, 2.0, 0.01, k, 0.1)
    driver = sample_jump_driver(key, 2.0, 0.01)
    for i, p in enumerate(starts):
        traj = cylinder_trajectory(p, driver, k, 0.1)
        np.testing.assert_array_equal(series.times, traj.times)
        np.testing.assert_array_equal(series.states[:, i, :], traj.states)
    assert np.ptp(series.states[:, 0, 1]) > 0.0  # the perturbation moved r


def test_n_point_perturbed_repeated_start_shares_class():
    k = PerturbationField(lambda0=1.0, k3="negate", angular="cosine")
    starts = [CylPoint(0.3, 1.0, 0.5), CylPoint(1.0, 1.5, 0.0), CylPoint(0.3, 1.0, 0.5)]
    series = n_point_motion(RotationJumpCylinder(), starts, StreamKey(SEED, 26), 2.0, 0.01, k, 0.2)
    assert np.all(series.class_ids == [0, 1, 0])
    assert series.hit_times == {(0, 2): 0.0}
    np.testing.assert_array_equal(series.states[:, 0, :], series.states[:, 2, :])


def test_n_point_rejects_perturbation_on_torus():
    k = PerturbationField(lambda0=1.0)
    starts = [TorusPoint.from_coords(0.1, 0.2)]
    with pytest.raises(UnsupportedModel):
        n_point_motion(TorusWinding.dense_default(), starts, StreamKey(SEED), 1.0, 0.1, k, 0.1)
    series = n_point_motion(TorusWinding.dense_default(), starts, StreamKey(SEED), 1.0, 0.1, k, 0.0)
    assert series.states.shape[1] == 1


@pytest.mark.parametrize(
    "model, starts, eps",
    [
        (TorusWinding.dense_default(), [TorusPoint.from_coords(0.1, 0.2), TorusPoint.from_lift((2.5, -0.9))], 0.0),
        (RotationJumpCylinder(), [CylPoint(0.3, 1.0, 0.5), CylPoint(2.0, 2.0, -1.0)], 0.0),
        (RotationJumpCylinder(), [CylPoint(0.3, 1.0, 0.5), CylPoint(2.0, 2.0, -1.0), CylPoint(0.3, 1.0, 0.5)], 0.1),
        # a start at z = inf has a NaN defect, which the series must keep
        (CoalescingCircle(sigma=0.7), [CylPoint(0.0, 1.0, 0.0), CylPoint(0.2, 1.0, 0.0), CylPoint(0.0, 1.0, 0.0),
                                       CylPoint(3.0, 2.0, 0.0), CylPoint(1.0, 1.0, math.inf)], 0.0),
    ],
)
@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")  # inf - inf
def test_series_leaf_defects_are_each_points_trajectory_defects(model, starts, eps):
    k = PerturbationField(lambda0=1.0, k3="sine", angular="cosine")
    series = n_point_motion(model, starts, StreamKey(SEED, 28), 2.0, 0.01, k, eps)
    reference = np.column_stack([
        leaf_defects(Trajectory(model, p, series.times, series.states[:, i], series.columns))
        for i, p in enumerate(starts)
    ])
    assert series.leaf_defects.shape == reference.shape == (series.times.size, len(starts))
    assert series.leaf_defects.dtype == reference.dtype
    assert np.ascontiguousarray(series.leaf_defects).tobytes() == reference.tobytes()
    assert (np.nanmax(reference) > 1e-9) == (eps > 0.0)  # only the perturbation moves a point off its leaf


# ---------------------------------------------------------------------------
# coalescing circle


def test_coalescing_identical_starts_merge_at_zero():
    starts = [CylPoint(1.0, 1.0, 0.0), CylPoint(1.0, 1.0, 0.0)]
    series = evolve_coalescing_circle(starts, StreamKey(SEED, 31), 1.0, 0.01, sigma=1.0)
    assert series.hit_times[(0, 1)] == 0.0
    np.testing.assert_array_equal(series.states[:, 0, 0], series.states[:, 1, 0])


def test_coalescing_cross_leaf_never_merges():
    starts = [CylPoint(0.0, 1.0, 0.0), CylPoint(0.0, 2.0, 0.0), CylPoint(0.0, 1.0, 5.0)]
    series = evolve_coalescing_circle(starts, StreamKey(SEED, 32), 20.0, 0.01, sigma=2.0)
    assert series.hit_times == {}
    assert np.all(series.class_ids[-1] == [0, 1, 2])


def test_coalescing_same_leaf_pair_merges_and_moves_together():
    n_hit = 0
    for rep in range(40):
        starts = [CylPoint(0.0, 1.0, 0.0), CylPoint(math.pi, 1.0, 0.0)]
        series = evolve_coalescing_circle(
            starts, StreamKey(SEED, rep), 30.0, 0.01, sigma=2.0
        )
        if (0, 1) in series.hit_times:
            n_hit += 1
            t_hit = series.hit_times[(0, 1)]
            k = int(np.searchsorted(series.times, t_hit))
            # merged class adopts the lowest-index driver from the merge on
            np.testing.assert_array_equal(
                series.states[k:, 0, 0], series.states[k:, 1, 0]
            )
            assert np.all(series.class_ids[k:, 1] == 0)
            assert np.all(series.class_ids[:k, 1] == 1)
    assert n_hit >= 36  # absorption by T=30 at this diffusivity is near-certain


def test_coalescing_partition_classes_never_split():
    starts = [
        CylPoint(0.0, 1.0, 0.0),
        CylPoint(2.0, 1.0, 0.0),
        CylPoint(4.0, 1.0, 0.0),
    ]
    series = evolve_coalescing_circle(starts, StreamKey(SEED, 99), 40.0, 0.01, sigma=1.5)
    n_classes = np.array([len(set(row)) for row in series.class_ids])
    assert np.all(np.diff(n_classes) <= 0)
    # hit_times <= horizon implies merged at all later sampled times
    for (i, j), t_hit in series.hit_times.items():
        k = int(np.searchsorted(series.times, t_hit))
        assert np.all(series.class_ids[k:, i] == series.class_ids[k:, j])


def test_coalescing_rejects_bad_sigma():
    with pytest.raises(ValueError):
        evolve_coalescing_circle([CylPoint(0.0, 1.0, 0.0)], StreamKey(SEED), 1.0, 0.01, sigma=0.0)


# ---------------------------------------------------------------------------
# leaf invariance summary


def test_leaf_invariance_unperturbed_cylinder_exact_zero():
    driver = sample_jump_driver(StreamKey(SEED, 41), 50.0, 0.01)
    traj = cylinder_trajectory(CylPoint(0.0, 1.0, 0.0), driver)
    assert check_leaf_invariance(traj) == 0.0


def test_leaf_invariance_perturbed_cylinder_positive():
    driver = sample_jump_driver(StreamKey(SEED, 42), 10.0, 0.01)
    K = PerturbationField(lambda0=1.0, k3="zero", angular="none")
    traj = cylinder_trajectory(CylPoint(0.0, 1.0, 0.0), driver, perturbation=K, eps=0.1)
    assert check_leaf_invariance(traj) > 0.0


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 2**31), horizon=st.floats(0.5, 20.0))
def test_torus_leaf_invariance_property(seed, horizon):
    model = TorusWinding.dense_default()
    start = TorusPoint.from_coords(0.2, 0.7)
    driver = sample_brownian(StreamKey(seed), horizon, 0.01)
    traj = torus_trajectory(model, start, driver)
    assert check_leaf_invariance(traj) <= 1e-9
