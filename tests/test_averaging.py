import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foliated_flows import averaging, drivers
from foliated_flows.averaging import (
    InvariantMeasureSpec,
    _replica_clocks,
    RateBound,
    averaged_radial_rate,
    averaging_error,
    averaging_errors,
    check_pathwise_bounds,
    decompose_batch,
    decompose_error,
    default_rate_bound,
    fit_rate_exponent,
    make_partition,
    measured_lipschitz,
    solve_averaged_ode,
)
from foliated_flows.drivers import (
    _DOMAIN_POISSON,
    StreamKey,
    replica_poisson_jumps,
    sample_jump_driver,
    sample_poisson_jumps,
)
from foliated_flows.flows import (
    CYLINDER_JUMP_RATE,
    AngularJumpPath,
    manifold_exit_times,
    perturbed_cylinder_path,
)
from foliated_flows.geometry import (
    CoalescingCircle,
    CylPoint,
    PerturbationField,
    RotationJumpCylinder,
    TorusWinding,
    VerticalRegion,
)

SEED = 20250811
MODEL = RotationJumpCylinder()
ANALYTIC = InvariantMeasureSpec()
A1, A2, A3, A4, DELTA = range(5)  # the columns of DecompositionBatch.terms


# ---------------------------------------------------------------------------
# leaf averages


def test_leaf_average_of_radial_component_is_lambda0():
    # under the uniform measure Q(lambda0 + cos theta) is lambda0 exactly
    for lambda0 in (0.7, 0.5, -0.4, 1.0):
        K = PerturbationField(lambda0=lambda0, k3="sine", angular="cosine")
        assert averaged_radial_rate(K, ANALYTIC) == lambda0


def test_leaf_average_cos_vanishes():
    K = PerturbationField(lambda0=0.0, k3="zero", angular="cosine")
    assert averaged_radial_rate(K, ANALYTIC) == 0.0


def test_empirical_mode_requires_horizon_and_key():
    K = PerturbationField(lambda0=1.0, k3="zero", angular="cosine")
    with pytest.raises(ValueError):
        averaged_radial_rate(K, InvariantMeasureSpec(mode="empirical", horizon=0.0), StreamKey(SEED))
    with pytest.raises(ValueError):
        averaged_radial_rate(K, InvariantMeasureSpec(mode="empirical"))
    # without the angular modulation there is nothing to average, so no key is needed
    flat = PerturbationField(lambda0=1.0, k3="zero", angular="none")
    assert averaged_radial_rate(flat, InvariantMeasureSpec(mode="empirical")) == 1.0


def test_empirical_cos_average_matches_dense_trapezoid_on_the_same_jumps():
    # independent oracle: trapezoid quadrature of cos(theta) on a fine grid
    # within each inter-jump segment of the run the average draws
    horizon, burn_in = 40.0, 0.25
    key = StreamKey(SEED, 7)
    measure = InvariantMeasureSpec(mode="empirical", horizon=horizon, burn_in_fraction=burn_in)
    K = PerturbationField(lambda0=0.0, k3="zero", angular="cosine")
    got = averaged_radial_rate(K, measure, key)
    jumps = sample_poisson_jumps(key.with_role("independent"), 1.0, horizon)
    t0 = burn_in * horizon
    edges = np.concatenate(([t0], jumps[jumps > t0], [horizon]))
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        s = np.linspace(a, b, 2001)
        theta = s + math.pi * np.searchsorted(jumps, a, side="right")
        total += np.trapezoid(np.cos(theta), s)
    assert got == pytest.approx(total / (horizon - t0), abs=2e-8)  # the trapezoid error is 5e-9
    assert got != 0.0


def test_averaged_field_analytic_closed_form():
    K = PerturbationField(lambda0=1.2, k3="sine", angular="cosine")
    v = (averaged_radial_rate(K, ANALYTIC), K.vertical_rate(0.5))
    assert v[0] == 1.2
    assert v[1] == pytest.approx(math.sin(0.5), abs=1e-15)
    assert K.k3_lipschitz() == 1.0


def test_averaged_field_empirical_matches_analytic_within_clt():
    K = PerturbationField(lambda0=1.0, k3="sine", angular="cosine")
    measure = InvariantMeasureSpec(mode="empirical", horizon=200.0)
    v = (averaged_radial_rate(K, measure, StreamKey(SEED, 0)), K.vertical_rate(1.0))
    assert abs(v[0] - 1.0) <= 4.0 / math.sqrt(200.0)
    assert abs(v[1] - math.sin(1.0)) <= 1e-12  # vertical rate has no angular part


def test_empirical_averaged_field_is_leaf_independent():
    # one measure serves every leaf, so leaves that differ only in (r, z)
    # see the same radial average and the same noise
    measure = InvariantMeasureSpec(mode="empirical", horizon=200.0)
    K = PerturbationField(lambda0=1.0, k3="sine", angular="cosine")
    one, other = (
        decompose_error(MODEL, K, 0.1, 1.0, StreamKey(SEED), measure=measure, start=CylPoint(0.0, r, z))
        for r, z in ((1.0, 0.0), (3.0, 2.0))
    )
    np.testing.assert_array_equal(one.terms[:, 0], other.terms[:, 0])
    flat = PerturbationField(lambda0=1.0, k3="zero", angular="cosine")
    assert measured_lipschitz(flat, [(1.0, 0.0), (2.0, 0.0), (3.5, 0.0)]) == 0.0


def test_measured_lipschitz_reported():
    K = PerturbationField(lambda0=0.0, k3="sine", angular="none")
    got = measured_lipschitz(K, [(1.0, 0.0), (1.0, 0.5), (1.0, 1.0)])
    # |sin z - sin z'| / |z - z'| near 0..1 is close to but below 1
    assert 0.5 <= got <= 1.0


# ---------------------------------------------------------------------------
# averaged ODE


def test_averaged_ode_constant_radial_drift():
    K = PerturbationField(lambda0=0.5, k3="zero", angular="none")
    out = solve_averaged_ode(K, ANALYTIC, (1.0, 0.0), T=2.0, step=1e-3)
    assert out.exit_time is None
    assert out.final[0] == pytest.approx(2.0, abs=1e-10)
    assert out.final[1] == pytest.approx(0.0, abs=1e-14)


def test_averaged_ode_zero_field_constant():
    K = PerturbationField(lambda0=0.0, k3="zero", angular="none")
    out = solve_averaged_ode(K, ANALYTIC, (2.0, 1.0), T=3.0, step=0.01)
    np.testing.assert_array_equal(out.values[-1], out.values[0])


def test_averaged_ode_reports_boundary_exit():
    K = PerturbationField(lambda0=-1.0, k3="zero", angular="none")
    region = VerticalRegion(r_min=0.5, r_max=5.0, z_min=-5.0, z_max=5.0)
    out = solve_averaged_ode(K, ANALYTIC, (1.0, 0.0), T=10.0, step=1e-3, region=region)
    assert out.exit_time == pytest.approx(0.5, abs=1e-6)  # r hits r_min at (r0-r_min)/|l0|
    assert out.times[-1] == pytest.approx(out.exit_time, abs=1e-12)


def test_averaged_ode_rejects_outside_start():
    K = PerturbationField(lambda0=1.0, k3="zero", angular="none")
    with pytest.raises(ValueError):
        solve_averaged_ode(K, ANALYTIC, (0.1, 0.0), T=1.0, step=0.01)


def test_averaged_ode_exit_time_is_exact():
    # r-exit: r = 1 - s reaches r_min = 0.5 at s = 0.5
    K = PerturbationField(lambda0=-1.0, k3="zero", angular="none")
    out = solve_averaged_ode(K, ANALYTIC, (1.0, 0.0), T=10.0, step=1e-3)
    assert out.exit_time == pytest.approx(0.5, abs=1e-15)
    # z-exit: z = 2 e^{-s} reaches z_min = 1 at s = ln 2, while r stays put
    K = PerturbationField(lambda0=0.0, k3="negate", angular="none")
    region = VerticalRegion(z_min=1.0)
    out = solve_averaged_ode(K, ANALYTIC, (1.0, 2.0), T=1.0, step=1e-3, region=region)
    assert out.exit_time == pytest.approx(math.log(2.0), abs=1e-15)
    assert out.times[-1] == out.exit_time
    assert np.all(np.diff(out.times) > 0.0)
    assert all(region.contains(v) for v in out.values[:-1])
    np.testing.assert_array_equal(out.values[:, 0], 1.0)


def _rk4_vertical(K: PerturbationField, z0: float, T: float, n: int) -> float:
    """Classical RK4 for z' = k3(z) with n equal steps."""
    h, z = T / n, z0
    for _ in range(n):
        k1 = K.vertical_rate(z)
        k2 = K.vertical_rate(z + 0.5 * h * k1)
        k3 = K.vertical_rate(z + 0.5 * h * k2)
        k4 = K.vertical_rate(z + h * k3)
        z += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return z


@pytest.mark.parametrize("k3", ["zero", "negate", "sine"])
def test_vertical_flow_matches_averaged_ode_rk4(k3):
    # a test-local RK4 is an independent check of the closed form that both the
    # averaged ODE and the replicas use, including starts with |z0| > pi on
    # other branches of the sine flow
    K = PerturbationField(lambda0=0.0, k3=k3, angular="none")
    for z0 in (-4.9, -math.pi, -1.0, 0.0, 0.3, math.pi, 3.5, 4.9):
        out = solve_averaged_ode(K, ANALYTIC, (1.0, z0), T=1.0, step=1e-3)
        assert out.exit_time is None
        assert out.final[1] == K.vertical_flow(z0, 1.0)
        assert abs(K.vertical_flow(z0, 1.0) - _rk4_vertical(K, z0, 1.0, 1000)) <= 1e-12


def test_perturbed_path_z_is_vertical_flow():
    K = PerturbationField(lambda0=0.5, k3="sine", angular="cosine")
    eps, z0 = 0.1, 3.5
    driver = sample_jump_driver(StreamKey(SEED, 3), 10.0, 0.01)
    path = perturbed_cylinder_path(CylPoint(0.0, 1.0, z0), driver, 10.0, eps, K)
    np.testing.assert_array_equal(path.z, K.vertical_flow(z0, eps * path.times))


# ---------------------------------------------------------------------------
# partition scheme


def test_make_partition_examples():
    part = make_partition(0.01, 2.0, "sqrt")
    assert part.delta_t == pytest.approx(20.0, rel=1e-12)
    assert part.n_intervals == 10
    part = make_partition(0.25, 1.0, "sqrt")
    assert part.delta_t == pytest.approx(2.0, rel=1e-12)
    assert part.n_intervals == 2


def test_make_partition_rejects_degenerate_eps():
    with pytest.raises(ValueError):
        make_partition(1.5, 1.0)
    with pytest.raises(ValueError):
        make_partition(1.0, 1.0)
    with pytest.raises(ValueError):
        make_partition(0.1, 0.0)


@settings(deadline=None, max_examples=200)
@given(
    eps=st.floats(1e-6, 0.999),
    t=st.floats(1e-3, 100.0),
    f_choice=st.sampled_from(["sqrt", "log"]),
)
def test_partition_covers_without_overshoot(eps, t, f_choice):
    part = make_partition(eps, t, f_choice)
    assert part.n_intervals * part.delta_t <= t / eps * (1.0 + 1e-9)
    # tail shorter than one increment
    tail = t / eps - part.n_intervals * part.delta_t
    assert tail <= part.delta_t * (1.0 + 1e-9)
    assert part.boundaries[0] == 0.0
    assert part.boundaries.size == part.n_intervals + 1


def test_partition_log_reduces_to_sqrt_form():
    # for f = sqrt(eps) the interval count is the integer part of eps^{-1/2}
    for eps in (0.3, 0.1, 0.05, 0.01):
        part = make_partition(eps, 1.0, "sqrt")
        assert part.n_intervals == int(math.floor(eps ** -0.5 + 1e-9))


# ---------------------------------------------------------------------------
# error decomposition


def test_decompose_commuting_radial_delta_exactly_zero():
    # angular = none: the radial integrand is the constant lambda0 = its average
    K = PerturbationField(lambda0=1.0, k3="zero", angular="none")
    res = decompose_error(MODEL, K, 0.1, 1.0, StreamKey(SEED, 5))
    radial = res.terms[0, 0]
    assert radial[DELTA] == 0.0
    vertical = res.terms[0, 1]
    assert vertical[DELTA] == 0.0


def test_decompose_triangle_and_tail_bounds_pathwise():
    K = PerturbationField(lambda0=1.0, k3="sine", angular="cosine")
    region = VerticalRegion()
    sup_g = {1: K.sup_radial(), 2: K.sup_vertical(region)}
    for rep in range(25):
        res = decompose_error(MODEL, K, 0.08, 1.0, StreamKey(SEED, rep))
        assert res.stayed[0]
        for component, (a1, a2, a3, a4, delta) in enumerate(res.terms[0], start=1):
            assert abs(delta) <= abs(a1) + abs(a2) + abs(a3) + abs(a4) + 1e-12
            a_sum = a1 + a2 + a3 + a4
            assert delta == pytest.approx(a_sum, abs=1e-12)
            limit = sup_g[component] * 1.0 * math.sqrt(0.08)
            assert abs(a4) <= limit + 1e-12


def test_decompose_log_partition_bounds():
    # generalized partition: sqrt(eps) replaced by f(eps) in the tail bound
    K = PerturbationField(lambda0=1.0, k3="sine", angular="cosine")
    region = VerticalRegion()
    sup_g = {1: K.sup_radial(), 2: K.sup_vertical(region)}
    p = 2.0
    for eps in (0.1, 0.05):
        f_eps = abs(math.log(eps)) ** (-1.0 / (2.0 * p))
        for rep in range(10):
            res = decompose_error(
                MODEL, K, eps, 1.0, StreamKey(SEED, rep), f_choice="log", p=p
            )
            for component, (a1, a2, a3, a4, delta) in enumerate(res.terms[0], start=1):
                assert abs(delta) <= abs(a1) + abs(a2) + abs(a3) + abs(a4) + 1e-12
                limit = sup_g[component] * 1.0 * f_eps
                assert abs(a4) <= limit + 1e-12


def test_decompose_vertical_delta_zero_under_analytic_measure():
    # dpi_2(K) depends only on z, so it equals its own leaf average pointwise
    K = PerturbationField(lambda0=0.5, k3="sine", angular="cosine")
    res = decompose_error(MODEL, K, 0.1, 1.0, StreamKey(SEED, 8))
    assert res.terms[0, 1, DELTA] == 0.0


def _reference_decomposition(path, K, part):
    # the definitions, one interval at a time: cos integrals from
    # the cos integral's prefix, k3(z) integrals by 20-point Gauss-Legendre (z is smooth)
    nodes, weights = np.polynomial.legendre.leggauss(20)
    eps, z0 = path.eps, path.start.z

    def g1_int(a, b):
        f_a, f_b = path.angular.cos_integral_prefix([a, b])[0]
        return K.lambda0 * (b - a) + float(f_b - f_a)

    def g2_int(a, b):
        s = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        return 0.5 * (b - a) * float(np.dot(weights, K.vertical_rate(K.vertical_flow(z0, eps * s))))

    q1 = K.lambda0  # analytic measure: Q(cos) = 0
    bounds = list(part.boundaries)
    horizon = part.horizon
    a2_1 = a1_2 = riemann1 = riemann2 = 0.0
    for a, b in zip(bounds[:-1], bounds[1:]):
        rate = K.vertical_rate(K.vertical_flow(z0, eps * a))
        a2_1 += g1_int(a, b) - q1 * (b - a)
        a1_2 += g2_int(a, b) - rate * (b - a)
        riemann1 += q1 * (b - a)
        riemann2 += rate * (b - a)
    g2_total = sum(g2_int(a, b) for a, b in zip(bounds, bounds[1:] + [horizon]))
    radial = (0.0, a2_1, riemann1 - q1 * horizon, g1_int(bounds[-1], horizon), g1_int(0.0, horizon) - q1 * horizon)
    vertical = (a1_2, 0.0, riemann2 - g2_total, g2_int(bounds[-1], horizon), 0.0)
    return [eps * np.array(radial), eps * np.array(vertical)]


@pytest.mark.parametrize("f_choice", ["sqrt", "log"])
def test_decompose_matches_interval_reference(f_choice):
    K = PerturbationField(lambda0=0.5, k3="sine", angular="cosine")
    eps, t, start = 0.05, 1.0, CylPoint(0.0, 1.0, 1.0)
    part = make_partition(eps, t, f_choice)
    for rep in range(3):
        key = StreamKey(SEED, rep)
        res = decompose_error(MODEL, K, eps, t, key, f_choice=f_choice, start=start)
        driver = sample_jump_driver(key, part.horizon, 0.01)
        path = perturbed_cylinder_path(start, driver, part.horizon, eps, K)
        for got, ref in zip(res.terms[0], _reference_decomposition(path, K, part)):
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)


def test_decompose_flags_manifold_exit():
    K = PerturbationField(lambda0=-2.0, k3="zero", angular="none")
    res = decompose_error(MODEL, K, 0.5, 2.0, StreamKey(SEED, 9))
    assert not res.stayed[0] and math.isfinite(res.exit_times[0])
    # the exited row's terms mean nothing, and the bound check reads none of them
    assert check_pathwise_bounds(res, K, VerticalRegion()) == ([], -math.inf, 0.0)


def test_decompose_a1_zero_for_theta_only_integrand():
    # the restart shares rotation and jumps, and dpi_1(K) sees only theta
    K = PerturbationField(lambda0=1.0, k3="zero", angular="cosine")
    res = decompose_error(MODEL, K, 0.1, 1.0, StreamKey(SEED, 10))
    assert res.terms[0, 0, A1] == 0.0


# ---------------------------------------------------------------------------
# rate bounds


def test_rate_bound_vanishes_on_axes():
    rb = RateBound(gronwall_c=1.0, c1=20.0, c2=20.0, c3=2.0, sup_k=2.0)
    for t in (0.1, 1.0, 7.3):
        assert rb.H(0.0, t) == 0.0
        assert rb.G(0.0, t) == 0.0
    for eps in (0.01, 0.5):
        assert rb.H(eps, 0.0) == 0.0
        assert rb.G(eps, 0.0) == 0.0
    with pytest.raises(ValueError):
        rb.H(-0.1, 1.0)
    with pytest.raises(ValueError):
        rb.H(0.1, -1.0)


def test_rate_bound_matches_min_of_branches_on_grid():
    rb = RateBound(gronwall_c=0.3, c1=5.0, c2=4.0, c3=2.0, sup_k=2.0)
    for eps in (1e-4, 1e-2, 0.2):
        for t in (0.1, 1.0, 10.0, 100.0):
            branches = [
                math.sqrt(eps) * t * 2.0 * math.sqrt(t),
                5.0 * eps ** 0.25,
                4.0 * math.sqrt(eps) * t ** 1.5,
                2.0 * math.sqrt(eps * t),
            ]
            H, G = rb.H(eps, t), rb.G(eps, t)
            assert H == pytest.approx(min(branches), rel=1e-15)
            assert G == pytest.approx(math.sqrt(t) * math.exp(0.3 * t) * H, rel=1e-15)
    # at large t for fixed eps only the C1 branch stays bounded
    assert rb.H(0.01, 1000.0) == pytest.approx(5.0 * 0.01 ** 0.25, rel=1e-15)


def test_rate_bounds_vanish_on_refining_grid_toward_axes():
    rb = RateBound(gronwall_c=0.5, c1=10.0, c2=10.0, c3=2.0, sup_k=2.0)
    eps_seq = 10.0 ** -np.arange(1, 9)
    h_eps = np.array([rb.H(e, 1.0) for e in eps_seq])
    g_eps = np.array([rb.G(e, 1.0) for e in eps_seq])
    assert np.all(np.diff(h_eps) < 0.0) and h_eps[-1] < 1e-3
    assert np.all(np.diff(g_eps) < 0.0) and g_eps[-1] < 1e-3
    t_seq = 10.0 ** -np.arange(1, 9)
    h_t = np.array([rb.H(0.1, t) for t in t_seq])
    g_t = np.array([rb.G(0.1, t) for t in t_seq])
    assert np.all(np.diff(h_t) < 0.0) and h_t[-1] < 1e-3
    assert np.all(np.diff(g_t) < 0.0) and g_t[-1] < 1e-3


def test_default_rate_bound_constants():
    K = PerturbationField(lambda0=1.0, k3="sine", angular="cosine")
    region = VerticalRegion()
    rb = default_rate_bound(K, region)
    assert rb.c3 == pytest.approx(2.0)  # sup|lambda0 + cos|
    assert rb.sup_k == pytest.approx(math.hypot(2.0, 1.0))
    assert rb.gronwall_c == 1.0
    assert rb.c1 == rb.c2 == pytest.approx(10.0 * rb.sup_k)
    rb2 = default_rate_bound(K, region, c1=3.0, c2=4.0)
    assert (rb2.c1, rb2.c2) == (3.0, 4.0)


# ---------------------------------------------------------------------------
# Monte Carlo averaging error


def test_commuting_example_error_at_ode_tolerance():
    K = PerturbationField(lambda0=1.0, k3="sine", angular="none")
    for eps in (0.1, 0.01):
        res = averaging_error(
            MODEL, K, eps, 1.0, 2.0, 5, StreamKey(SEED), dt=0.01, ode_step=1e-3
        )
        assert res.estimate <= 1e-8
        assert res.estimate <= res.bound_g
        assert len(res.violations) == 0


@pytest.mark.parametrize("eps", [0.3, 0.15, 0.6])
@pytest.mark.parametrize("lambda0, k3", [(1.0, "sine"), (0.0, "negate")])
def test_commuting_error_is_exactly_zero_where_eps_times_horizon_rounds(eps, lambda0, k3):
    # eps * (t/eps) != t here; the replicas' end point is taken at t itself,
    # where the averaged ODE reads v(t).  The radius sees the difference under
    # the first field, z under the second.
    K = PerturbationField(lambda0=lambda0, k3=k3, angular="none")
    t = 0.7
    assert eps * (t / eps) != t
    res = averaging_error(MODEL, K, eps, t, 2.0, 8, StreamKey(SEED))
    assert res.estimate == 0.0
    assert res.std_error == 0.0


def test_tangent_only_perturbation_gives_zero_error():
    K = PerturbationField(lambda0=0.0, k3="zero", angular="none")
    res = averaging_error(MODEL, K, 0.1, 1.0, 2.0, 4, StreamKey(SEED))
    assert res.estimate == 0.0
    np.testing.assert_array_equal(res.v_final, np.array([1.0, 1.0]))


def test_averaging_error_requires_t_before_exit():
    K = PerturbationField(lambda0=-1.0, k3="zero", angular="none")
    with pytest.raises(ValueError):
        averaging_error(MODEL, K, 0.1, 2.0, 2.0, 2, StreamKey(SEED))


def test_averaging_error_is_defined_on_the_cylinder_only():
    K = PerturbationField(lambda0=1.0, k3="zero", angular="cosine")
    for model in (TorusWinding.dense_default(), CoalescingCircle()):
        with pytest.raises(ValueError, match="rotation-jump cylinder"):
            averaging_error(model, K, 0.1, 1.0, 2.0, 2, StreamKey(SEED))


def test_averaging_error_decreases_with_eps():
    K = PerturbationField(lambda0=1.0, k3="zero", angular="cosine")
    results = [
        averaging_error(MODEL, K, eps, 1.0, 2.0, 200, StreamKey(SEED), keep_decompositions=True)
        for eps in (0.2, 0.05)
    ]
    assert results[1].estimate < results[0].estimate
    for res in results:
        assert res.estimate - 3.0 * res.std_error <= res.bound_g
        assert res.decomp_rows.shape[1] == 7
    # cross-check the run against itself at doubled replica count
    doubled = averaging_error(MODEL, K, 0.2, 1.0, 2.0, 400, StreamKey(SEED))
    joint = 3.0 * (results[0].std_error + doubled.std_error)
    assert abs(doubled.estimate - results[0].estimate) <= joint


def _cos_integral_second_moment(horizon: float) -> float:
    """E[(int_0^T cos theta_s ds)^2] for theta_s = s + pi N_s, N a rate-1 Poisson clock.

    With E[cos theta_s cos theta_u] = 1/2 [cos(u - s) + cos(u + s)] e^{-2(u - s)}
    for s < u, the double integral is 2 Re int_0^T int_0^{T-s} of
    1/2 (1 + e^{2is}) e^{(i-2)d} dd ds, and both integrals are closed form.
    The product e^{cT} e^{(2i-c)T} is written as e^{2iT}, whose modulus is 1,
    so no factor overflows at long horizons.
    """
    c = complex(-2.0, 1.0)
    ect = cmath.exp(c * horizon)
    e2it = cmath.exp(2j * horizon)
    plain = ((ect - 1.0) / c - horizon) / c
    rotating = ((e2it - ect) / (2j - c) - (e2it - 1.0) / 2j) / c
    return (plain + rotating).real


@pytest.mark.parametrize("horizon", [0.5, 5.0, 50.0, 200.0, 1000.0])
def test_cos_integral_second_moment_nears_its_asymptote(horizon):
    # E[F(T)^2] = 2T/5 - 3/25 plus terms bounded by e^{-2T}/5 (plain) and
    # (1 + e^{-2T})/5 + 1/sqrt(5) (rotating): -1/c^2 has real part -3/25 and
    # |c| = |2i - c| = sqrt(5); at T = 1000 every factor must stay finite
    second = _cos_integral_second_moment(horizon)
    slack = (1.0 + 2.0 * math.exp(-2.0 * horizon)) / 5.0 + 1.0 / math.sqrt(5.0)
    assert abs(second - (0.4 * horizon - 0.12)) <= slack


def test_averaging_error_matches_exact_law():
    # K = (0, 1 + cos theta, 0): the endpoint error is exactly eps |F(t/eps)|
    # with F the cos integral, so its L2 norm is eps sqrt(E[F^2])
    K = PerturbationField(lambda0=1.0, k3="zero", angular="cosine")
    t = 1.0
    for eps in (0.2, 0.05):
        res = averaging_error(MODEL, K, eps, t, 2.0, 4000, StreamKey(SEED), start=CylPoint(0.0, 1.0, 0.0))
        oracle = eps * math.sqrt(_cos_integral_second_moment(t / eps))
        assert abs(res.estimate - oracle) <= 3.0 * res.std_error


def test_averaging_error_matches_exact_law_at_1e5_replicas():
    # K = (0, lambda0 + cos theta, 0) with lambda0 >= 1: r is nondecreasing, so
    # no replica exits, and the endpoint error is exactly eps |F(t/eps)|
    K = PerturbationField(lambda0=1.5, k3="zero", angular="cosine")
    eps, t, n = 0.2, 1.0, 100_000
    res = averaging_error(MODEL, K, eps, t, 2.0, n, StreamKey(SEED), start=CylPoint(0.0, 1.0, 0.0))
    assert res.n_exited == 0
    oracle = eps * math.sqrt(_cos_integral_second_moment(t / eps))
    assert abs(res.estimate - oracle) <= 3.0 * res.std_error
    assert 3.0 * res.std_error <= 0.015 * oracle  # the window is narrow at this size


def test_averaging_error_rows_are_decompose_error_per_replica():
    # the batch over replicas gives each replica's one-replica decomposition,
    # end point and exit flag to the bit, exits included
    K = PerturbationField(lambda0=-0.4, k3="sine", angular="cosine")
    eps, t, n = 0.9, 0.5, 60
    start = CylPoint(1.0, 0.25, 0.5)
    region = VerticalRegion(r_min=0.01)
    res = averaging_error(
        MODEL, K, eps, t, 2.0, n, StreamKey(SEED), region=region, start=start, keep_decompositions=True
    )
    assert 0 < res.n_exited < n
    rows = iter(res.decomp_rows)
    for i in range(n):
        one = decompose_error(MODEL, K, eps, t, StreamKey(SEED).replica(i), start=start)
        assert (not one.stayed[0]) == np.isnan(res.errors[i])
        if not one.stayed[0]:
            continue
        err = np.hypot(one.r_end[0] - res.v_final[0], one.z_end - res.v_final[1])
        assert res.errors[i] == err
        for component, terms in enumerate(one.terms[0], start=1):
            expected = [i, component, *terms]
            np.testing.assert_array_equal(next(rows), expected)


def _exiting_batch():
    # the exiting setup above, as the batch averaging_error builds: each
    # replica's jumps from its own stream
    K = PerturbationField(lambda0=-0.4, k3="sine", angular="cosine")
    eps, t, n = 0.9, 0.5, 60
    start = CylPoint(1.0, 0.25, 0.5)
    region = VerticalRegion(r_min=0.01)
    part = make_partition(eps, t)
    key = StreamKey(SEED)
    rows = [sample_poisson_jumps(key.replica(i), CYLINDER_JUMP_RATE, part.horizon) for i in range(n)]
    jumps = np.full((n, max(r.size for r in rows)), np.nan)
    for i, r in enumerate(rows):
        jumps[i, : r.size] = r
    clocks = AngularJumpPath(start.theta, jumps)
    batch = decompose_batch(K, averaged_radial_rate(K, ANALYTIC), part, start, clocks)
    res = averaging_error(MODEL, K, eps, t, 2.0, n, key, region=region, start=start)
    return K, region, batch, res


def test_check_pathwise_bounds_is_what_averaging_error_reports():
    K, region, batch, res = _exiting_batch()
    assert 0 < res.n_exited < batch.terms.shape[0]
    violations, slack, ratio = check_pathwise_bounds(batch, K, region)
    assert violations == list(res.violations)
    assert slack == res.max_triangle_slack
    assert ratio == res.max_a4_ratio


def test_check_pathwise_bounds_ignores_exited_rows_and_names_violating_rows():
    K, region, batch, _ = _exiting_batch()
    exited = int(np.flatnonzero(~batch.stayed)[0])
    kept = exited + int(np.flatnonzero(batch.stayed[exited:])[0])  # not its index among the kept rows
    before = check_pathwise_bounds(batch, K, region)
    # |delta| = 100 > sum |A_i| = 10, and |A4| = 10 is far above sup|g| t sqrt(eps)
    broken = batch.terms.copy()
    broken[exited] = (0.0, 0.0, 0.0, 10.0, 100.0)
    assert check_pathwise_bounds(dataclasses.replace(batch, terms=broken), K, region) == before
    broken[kept] = broken[exited]
    violations, slack, ratio = check_pathwise_bounds(dataclasses.replace(batch, terms=broken), K, region)
    assert {(v.replica_id, v.component, v.kind) for v in violations} == {
        (kept, c, kind) for c in (1, 2) for kind in ("triangle", "a4")
    }
    assert slack == 90.0
    smallest_limit = min(K.sup_radial(), K.sup_vertical(region)) * batch.partition.t * math.sqrt(0.9)
    assert ratio == pytest.approx(10.0 / smallest_limit, rel=1e-15)


# ---------------------------------------------------------------------------
# jump clocks drawn once per run


def _assert_rows_are(clocks, theta0, h, rows):
    # each row's jumps <= h and F at 0 and those jumps to the bit; after them
    # only jumps past h or NaN padding, as wide as the longest row needs
    assert clocks.jumps.shape == (len(rows), max(r.size for r in rows))
    for i, r in enumerate(rows):
        assert clocks.jumps[i, : r.size].tobytes() == r.tobytes()
        assert not (clocks.jumps[i, r.size :] <= h).any()
        reference = AngularJumpPath(theta0, r[None, :]).jump_prefix[0]
        assert clocks.jump_prefix[i, : r.size + 1].tobytes() == reference.tobytes()


@pytest.mark.parametrize("rate", [CYLINDER_JUMP_RATE, 0.7])
def test_replica_clocks_rows_are_each_replicas_poisson_jumps(rate):
    key, n, theta0 = StreamKey(SEED), 2000, 0.3
    horizons = [5.0, 10.0, 20.0, 40.0, 80.0]
    for h, clocks in zip(horizons, _replica_clocks(key, n, theta0, horizons, True, rate)):
        _assert_rows_are(clocks, theta0, h, [sample_poisson_jumps(key.replica(i), rate, h) for i in range(n)])


@pytest.mark.parametrize(
    "rate, horizons, h",
    [
        (1.0, [3.9, 20.0], 3.9),  # a horizon below the one the run draws at
        (2.0, [1.95, 10.0], 1.95),
        (1.0, [1.0, 4.9], 4.9),  # the longest horizon, the one the run draws at
        (2.0, [0.5, 2.0], 2.0),
    ],
)
def test_replica_clocks_redraw_a_row_that_runs_past_its_first_block(monkeypatch, rate, horizons, h):
    # the replica of seed 101770 with the most arrivals at h among the
    # three (8 or 10), with passes of one Philox block (4 gaps), which
    # change no bit, runs past the first pass; the run's clock at h still
    # holds that replica's jumps
    key, theta0 = StreamKey(101770), 0.3
    monkeypatch.setattr(drivers, "_arrival_block", lambda *args: 4)
    rows = [sample_poisson_jumps(key.replica(i), rate, h) for i in range(3)]
    longest = max(range(3), key=lambda i: rows[i].size)
    u = key.replica(longest).generator(_DOMAIN_POISSON).random(drivers._arrival_block(rate, h, 3.0))
    block = -np.log1p(-u) / rate
    assert np.cumsum(block)[-1] <= h
    assert rows[longest].size > block.size
    clocks = dict(zip(horizons, _replica_clocks(key, 3, theta0, horizons, True, rate)))
    _assert_rows_are(clocks[h], theta0, h, rows)


@pytest.mark.parametrize("angular, draws", [("none", 0), ("cosine", 1)])
def test_a_run_draws_jump_clocks_only_where_the_cos_term_reads_them(monkeypatch, angular, draws):
    # without the cos term neither the decomposition nor the exit search reads a jump
    calls = []
    monkeypatch.setattr(averaging, "replica_poisson_jumps", lambda *a: calls.append(a) or replica_poisson_jumps(*a))
    K = PerturbationField(lambda0=1.0, k3="sine", angular=angular)
    averaging_error(MODEL, K, 0.1, 1.0, 2.0, 20, StreamKey(SEED))
    assert len(calls) == draws


def test_a_clock_with_jumps_past_the_horizon_reads_as_the_clock_cut_there():
    # the exiting setup: rows drawn at four times the horizon, as a run with a
    # smaller eps slices them, against the same rows cut at t/eps
    K = PerturbationField(lambda0=-0.4, k3="sine", angular="cosine")
    eps, t, n = 0.9, 0.5, 60
    start = CylPoint(1.0, 0.25, 0.5)
    part = make_partition(eps, t)
    long = AngularJumpPath(
        start.theta, replica_poisson_jumps(StreamKey(SEED), n, CYLINDER_JUMP_RATE, 4.0 * part.horizon)
    )
    cut = AngularJumpPath(start.theta, np.where(long.jumps <= part.horizon, long.jumps, np.nan))
    assert (long.jumps > part.horizon).any()
    q1 = averaged_radial_rate(K, ANALYTIC)
    a, b = (decompose_batch(K, q1, part, start, clock) for clock in (long, cut))
    assert 0 < np.count_nonzero(~a.stayed) < n
    assert (a.terms.tobytes(), a.r_end.tobytes(), a.z_end) == (b.terms.tobytes(), b.r_end.tobytes(), b.z_end)
    assert a.exit_times.tobytes() == b.exit_times.tobytes()
    for horizon in (0.3 * part.horizon, part.horizon):
        cut = AngularJumpPath(start.theta, np.where(long.jumps <= horizon, long.jumps, np.nan))
        exits = [manifold_exit_times(clock, start.r, eps, K, horizon) for clock in (long, cut)]
        assert exits[0].tobytes() == exits[1].tobytes()


def _assert_results_equal(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "averaged":
            assert (x.times.tobytes(), x.values.tobytes()) == (y.times.tobytes(), y.values.tobytes())
            assert (x.radial_rate, x.exit_time) == (y.radial_rate, y.exit_time)
        elif isinstance(x, np.ndarray):
            assert x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name


@pytest.mark.parametrize("measure", [ANALYTIC, InvariantMeasureSpec(mode="empirical")])
def test_averaging_error_is_its_entry_of_averaging_errors(measure):
    # the exiting setup above: one run of three eps gives what three one-eps runs give
    K = PerturbationField(lambda0=-0.4, k3="sine", angular="cosine")
    grid, t, n = [0.9, 0.3, 0.6], 0.5, 60
    kwargs = dict(
        measure=measure, region=VerticalRegion(r_min=0.01), start=CylPoint(1.0, 0.25, 0.5),
        keep_decompositions=True,
    )
    together = averaging_errors(K, grid, t, 2.0, n, StreamKey(SEED), **kwargs)
    assert [res.eps for res in together] == grid
    assert sum(res.n_exited for res in together) > 0
    for eps, res in zip(grid, together):
        _assert_results_equal(averaging_error(MODEL, K, eps, t, 2.0, n, StreamKey(SEED), **kwargs), res)


# ---------------------------------------------------------------------------
# rate fitting


def test_fit_rate_exponent_recovers_power_law():
    eps = [0.2, 0.1, 0.05, 0.025]
    pairs = [(e, 2.0 * e ** 0.5) for e in eps]
    fit = fit_rate_exponent(pairs)
    assert fit.flag == "ok"
    assert fit.slope == pytest.approx(0.5, abs=1e-10)
    assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_exponent_exact_flag():
    fit = fit_rate_exponent([(0.1, 0.0), (0.05, 0.0), (0.025, 0.0)])
    assert fit.flag == "exact"
    assert fit.slope is None
    assert fit.n_zero == 3


def test_fit_rate_exponent_needs_three_points():
    with pytest.raises(ValueError):
        fit_rate_exponent([(0.1, 1.0), (0.05, 0.5)])
    with pytest.raises(ValueError):
        fit_rate_exponent([(0.1, 1.0), (0.05, 0.0), (0.025, 0.0), (0.0125, 0.3)])


@pytest.mark.filterwarnings("error")
def test_fit_rate_exponent_needs_two_distinct_eps():
    # three copies of one error admit any slope; polyfit would still return one
    with pytest.raises(ValueError, match="2 distinct eps"):
        fit_rate_exponent([(0.1, 0.3), (0.1, 0.3), (0.1, 0.3)])
    with pytest.raises(ValueError, match="2 distinct eps"):  # the zero error at 0.05 is not usable
        fit_rate_exponent([(0.1, 0.3), (0.05, 0.0), (0.1, 0.2), (0.1, 0.4)])


@settings(deadline=None, max_examples=10)
@given(
    seed=st.integers(0, 2**31),
    eps=st.sampled_from([0.3, 0.15, 0.08]),
)
def test_triangle_inequality_property(seed, eps):
    K = PerturbationField(lambda0=0.5, k3="sine", angular="cosine")
    res = decompose_error(MODEL, K, eps, 0.5, StreamKey(seed))
    if res.stayed[0]:
        for a1, a2, a3, a4, delta in res.terms[0]:
            assert abs(delta) <= abs(a1) + abs(a2) + abs(a3) + abs(a4) + 1e-12
