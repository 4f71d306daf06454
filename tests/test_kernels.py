import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foliated_flows import harness
from foliated_flows.config import parse_config
from foliated_flows.kernels import (
    FLOW_CHECKS,
    LeafGrid,
    PairGrid,
    TransitionKernel,
    build_cylinder_kernel,
    check_compatibility,
    check_diagonal_preserving,
    check_foliated,
    coalesce_two_point,
    cyclic_walk_kernel,
    defect_record,
    defects_json,
    flow_defects,
    independent_product_kernel,
    kernel_distance,
    kernel_to_json,
    product_kernel_flow,
    semigroup_gaps,
)
from foliated_flows import kernels as kernels_module

from kernel_helpers import from_dense, site_index

TOL = 1e-12
TWO_LEAVES = ((1.0, 0.0), (2.0, 0.0))


def _uniform_kernel(grid: LeafGrid) -> TransitionKernel:
    n = grid.n_states
    return from_dense(grid, 1.0, np.full((n, n), 1.0 / n))


# ---------------------------------------------------------------------------
# construction


def test_kernel_t0_is_identity():
    grid = LeafGrid(m=8, leaves=TWO_LEAVES)
    k = build_cylinder_kernel(grid, 0.0)
    np.testing.assert_array_equal(k.matrix, np.eye(grid.n_states))


def test_kernel_m4_quarter_turn_masses():
    # direct substitution into the rotation-jump transition formula
    grid = LeafGrid(m=4, leaves=TWO_LEAVES)
    t = math.pi / 2.0
    k = build_cylinder_kernel(grid, t)
    p_stay = 0.5 * (1.0 + math.exp(-math.pi))
    p_jump = 0.5 * (1.0 - math.exp(-math.pi))
    row = k.matrix[site_index(grid, 0, 0)]
    assert row[site_index(grid, 0, 1)] == pytest.approx(p_stay, abs=TOL)  # theta = pi/2
    assert row[site_index(grid, 0, 3)] == pytest.approx(p_jump, abs=TOL)  # theta = 3*pi/2
    assert np.count_nonzero(row) == 2


def test_kernel_long_time_masses_approach_half():
    grid = LeafGrid(m=4, leaves=TWO_LEAVES)
    k = build_cylinder_kernel(grid, 40.0 * math.pi)
    nz = k.matrix[np.nonzero(k.matrix)]
    np.testing.assert_allclose(nz, 0.5, atol=1e-12)


def test_kernel_alignment_errors():
    grid = LeafGrid(m=8, leaves=TWO_LEAVES)
    with pytest.raises(ValueError):
        build_cylinder_kernel(grid, 0.1)  # off the 2*pi/8 lattice
    with pytest.raises(ValueError):
        build_cylinder_kernel(LeafGrid(m=5, leaves=TWO_LEAVES), 2.0 * math.pi / 5.0)  # odd m


def test_kernel_rejects_bad_matrix():
    grid = LeafGrid(m=2, leaves=((1.0, 0.0),))
    with pytest.raises(ValueError):
        from_dense(grid, 0.0, np.array([[0.5, 0.4], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        from_dense(grid, 0.0, np.array([[1.5, -0.5], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# 2-point flow kernel: compatibility and diagonal preservation


def test_flow_pair_kernel_keeps_diagonal_on_diagonal():
    grid = LeafGrid(m=8, leaves=TWO_LEAVES)
    k1 = build_cylinder_kernel(grid, math.pi / 4.0)
    k2 = product_kernel_flow(k1)
    diag = k2.grid.diagonal_indices()
    off_mass = k2.matrix[diag][:, ~np.isin(np.arange(k2.grid.n_states), diag)]
    assert float(np.max(np.sum(off_mass, axis=1))) == 0.0


def test_flow_pair_kernel_marginal_reproduces_k1_exactly():
    grid = LeafGrid(m=8, leaves=TWO_LEAVES)
    k1 = build_cylinder_kernel(grid, math.pi / 4.0)
    k2 = product_kernel_flow(k1)
    n = grid.n_states
    marg = k2.matrix.reshape(n, n, n, n).sum(axis=3)
    assert float(np.max(np.abs(marg - k1.matrix[:, np.newaxis, :]))) <= TOL
    assert check_compatibility(k2, k1) <= TOL


def test_flow_kernel_differs_from_independent_product():
    grid = LeafGrid(m=8, leaves=TWO_LEAVES)
    k1 = build_cylinder_kernel(grid, math.pi / 4.0)
    flow = product_kernel_flow(k1)
    indep = independent_product_kernel(k1)
    assert float(np.max(np.abs(flow.matrix - indep.matrix))) > 0.0


def test_flow_pair_kernel_needs_a_random_map():
    # a width-2 kernel whose rows all carry one pair of weights: the cyclic
    # walk moves every state left together or right together
    walk = cyclic_walk_kernel(6, 0.3)
    k2 = product_kernel_flow(walk)
    assert check_compatibility(k2, walk) <= TOL
    assert check_diagonal_preserving(k2, walk) <= TOL
    grid = LeafGrid(m=4, leaves=((1.0, 0.0),))
    mixed = TransitionKernel(grid=grid, t=1.0, targets=grid.rotated([1, 2]),
                             weights=np.array([[0.5, 0.5]] * 3 + [[0.25, 0.75]]))
    others = [
        mixed,  # rows with different weights
        from_dense(grid, 0.0, np.eye(grid.n_states)),  # width 1
        _uniform_kernel(grid),  # width 4
        independent_product_kernel(walk),  # not on a LeafGrid
    ]
    for k in others:
        with pytest.raises(ValueError):
            product_kernel_flow(k)


def test_flow_pair_kernel_peaks_at_its_targets_and_one_row_sum():
    # the weights are one (1 - p, p) pair that every row reads, and the row
    # check sums in place: past a row's 16 target bytes the build holds its
    # 8-byte row sum and 2 bytes of sign mask
    grid = LeafGrid(m=128, leaves=TWO_LEAVES)
    k1 = build_cylinder_kernel(grid, math.pi / 4)
    product_kernel_flow(k1)  # first-call caches
    tracemalloc.start()
    try:
        k2 = product_kernel_flow(k1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = k2.targets.shape[0]
    assert peak < k2.targets.nbytes + 12 * rows
    assert not k2.weights.flags.writeable
    assert k2.weights.tobytes() == np.tile(k1.weights[0], (rows, 1)).tobytes()


def test_compatibility_detects_corruption():
    grid = LeafGrid(m=4, leaves=((1.0, 0.0),))
    k1 = build_cylinder_kernel(grid, math.pi / 2.0)
    k2 = product_kernel_flow(k1)
    corrupted = k2.matrix.copy()
    row = 1
    src = np.argmax(corrupted[row])
    dst = np.argmin(corrupted[row])
    corrupted[row, src] -= 0.1
    corrupted[row, dst] += 0.1
    bad = from_dense(k2.grid, k2.t, corrupted)
    assert check_compatibility(bad, k1) >= 0.05


def test_compatibility_identity_kernels():
    grid = LeafGrid(m=4, leaves=((1.0, 0.0),))
    k1 = from_dense(grid, 0.0, np.eye(grid.n_states))
    pair = PairGrid(base=grid)
    k2 = from_dense(pair, 0.0, np.eye(pair.n_states))
    assert check_compatibility(k2, k1) == 0.0
    assert check_diagonal_preserving(k2, k1) == 0.0


def test_diagonal_preserving_flow_vs_independent():
    grid = LeafGrid(m=8, leaves=TWO_LEAVES)
    k1 = build_cylinder_kernel(grid, math.pi / 4.0)
    assert check_diagonal_preserving(product_kernel_flow(k1), k1) <= TOL
    # independent copies of a mixing chain leave the diagonal
    assert check_diagonal_preserving(independent_product_kernel(k1), k1) > 0.0


# ---------------------------------------------------------------------------
# foliated property


def test_cylinder_kernel_is_foliated():
    grid = LeafGrid(m=8, leaves=TWO_LEAVES)
    for t in (0.0, math.pi / 4.0, math.pi):
        assert check_foliated(build_cylinder_kernel(grid, t)) == 0.0


def test_uniform_kernel_off_leaf_mass():
    grid = LeafGrid(m=4, leaves=TWO_LEAVES)
    assert check_foliated(_uniform_kernel(grid)) == pytest.approx(0.5, abs=TOL)
    grid3 = LeafGrid(m=4, leaves=TWO_LEAVES + ((3.0, 1.0),))
    assert check_foliated(_uniform_kernel(grid3)) == pytest.approx(2.0 / 3.0, abs=TOL)


def test_identity_kernel_is_foliated():
    grid = LeafGrid(m=4, leaves=TWO_LEAVES)
    k = from_dense(grid, 0.0, np.eye(grid.n_states))
    assert check_foliated(k) == 0.0


def test_foliated_pair_kernel():
    grid = LeafGrid(m=4, leaves=TWO_LEAVES)
    k1 = build_cylinder_kernel(grid, math.pi / 2.0)
    assert check_foliated(product_kernel_flow(k1)) == 0.0


def test_function_pair_gap_at_unit_off_leaf_difference_is_the_off_leaf_mass():
    # P f and P g on a leaf where f = g differ by at most the off-leaf mass
    # times max|f - g|, with equality at f - g = 1 off the leaf; so the
    # largest such gap over leaves is check_foliated
    rng = np.random.default_rng(7)
    for grid in (LeafGrid(m=8, leaves=TWO_LEAVES), LeafGrid(m=4, leaves=TWO_LEAVES + ((3.0, 1.0),))):
        labels = grid.leaf_labels()
        for k, foliated in ((build_cylinder_kernel(grid, math.pi / 2.0), True), (_uniform_kernel(grid), False)):
            off_mass = np.where(labels[k.targets] != labels[:, None], k.weights, 0.0).sum(axis=1)
            gaps = []
            for leaf in np.unique(labels):
                on_leaf = labels == leaf
                unit = (~on_leaf).astype(float)
                gap = np.abs((k.weights * unit[k.targets]).sum(axis=1))[on_leaf].max()
                assert gap == off_mass[on_leaf].max()
                diff = np.where(on_leaf, 0.0, rng.normal(size=grid.n_states))
                action = np.abs((k.weights * diff[k.targets]).sum(axis=1))[on_leaf]
                assert np.all(action <= off_mass[on_leaf] * np.abs(diff).max() + TOL)
                gaps.append(gap)
            assert max(gaps) == check_foliated(k)
            assert (max(gaps) == 0.0) == foliated


# ---------------------------------------------------------------------------
# semigroup law


def test_semigroup_composition_exact():
    grid = LeafGrid(m=8, leaves=TWO_LEAVES)
    s, t = math.pi / 4.0, math.pi / 2.0
    left = build_cylinder_kernel(grid, s).compose(build_cylinder_kernel(grid, t))
    right = build_cylinder_kernel(grid, s + t)
    assert float(np.max(np.abs(left.matrix - right.matrix))) <= TOL


def _per_pair_gaps(kernels) -> list[float]:
    # the one-pair-at-a-time check that semigroup_gaps batches
    grid = kernels[0].grid
    return [
        kernel_distance(a.compose(b), build_cylinder_kernel(grid, a.t + b.t))
        for i, a in enumerate(kernels) for b in kernels[i:]
    ]


_Q = math.pi / 4.0  # one site of m = 8
_SIXTH = math.pi / 3.0  # one site of m = 6


# a row budget of 16 pairs of 8-row kernels per array pass
_SMALL_PASS = 16 * 8
_SEMIGROUP_CASES = [
    (8, TWO_LEAVES, [3 * _Q, _Q, 8 * _Q, 2 * _Q, 0.0, 5 * _Q]),  # unsorted, t = 0, 21 pairs
    (8, TWO_LEAVES, [2 * _Q, _Q, 2 * _Q, 2 * _Q, 0.0, 0.0]),  # repeated times
    (6, ((1.0, 0.0), (2.0, 0.0), (1.0, 1.0)), [_SIXTH, 2 * _SIXTH, 3 * _SIXTH, 0.0]),  # 3 leaves
    (8, ((1.0, 0.0),), [k * _Q for k in range(11)]),  # 66 pairs: under _SMALL_PASS four passes and a part
]


@pytest.mark.parametrize("m, leaves, times", _SEMIGROUP_CASES)
def test_semigroup_gaps_equal_the_per_pair_distance_bit_for_bit(m, leaves, times):
    grid = LeafGrid(m=m, leaves=leaves)
    kernels = [build_cylinder_kernel(grid, t) for t in times]
    totals, gaps = semigroup_gaps(kernels)
    assert totals == [s + t for i, s in enumerate(times) for t in times[i:]]
    assert len(gaps) == len(times) * (len(times) + 1) // 2
    expected = np.array(_per_pair_gaps(kernels))
    np.testing.assert_array_equal(gaps.view(np.uint64), expected.view(np.uint64))
    assert float(gaps.max()) <= TOL


@pytest.mark.parametrize("m, leaves, times", _SEMIGROUP_CASES)
def test_semigroup_gaps_in_small_passes_equal_the_per_pair_distance(m, leaves, times, monkeypatch):
    monkeypatch.setattr(kernels_module, "_ROWS_PER_PASS", _SMALL_PASS)
    test_semigroup_gaps_equal_the_per_pair_distance_bit_for_bit(m, leaves, times)


def test_semigroup_gaps_span_several_passes():
    # under _SMALL_PASS the 11-time case above (8 rows per kernel) must span
    # several passes and end in a partial one
    pairs_per_pass = _SMALL_PASS // 8
    assert 66 % pairs_per_pass != 0 and 66 > 2 * pairs_per_pass
    assert kernels_module._ROWS_PER_PASS > _SMALL_PASS


def test_semigroup_gaps_see_one_shifted_target_in_exactly_its_pairs():
    grid = LeafGrid(m=8, leaves=TWO_LEAVES)
    times = [3 * _Q, _Q, 8 * _Q, 2 * _Q, 0.0, 5 * _Q]
    kernels = [build_cylinder_kernel(grid, t) for t in times]
    bad = kernels[2]
    targets = bad.targets.copy()
    targets[13, 0] = site_index(grid, 1, targets[13, 0] + 1)  # state 13 is site 5 of leaf 1
    kernels[2] = TransitionKernel(grid=grid, t=bad.t, targets=targets, weights=bad.weights)
    _, gaps = semigroup_gaps(kernels)
    uses = np.array([2 in (i, j) for i in range(6) for j in range(i, 6)])
    assert np.all(gaps[uses] >= 0.25)
    assert np.all(gaps[~uses] <= TOL)
    np.testing.assert_array_equal(gaps, _per_pair_gaps(kernels))


@pytest.mark.parametrize(
    "row, message", [([1.5, -0.5], "nonnegative"), ([0.6, 0.5], "rows must sum to 1")]
)
def test_semigroup_gaps_validate_every_composed_pass(row, message, monkeypatch):
    monkeypatch.setattr(kernels_module, "_ROWS_PER_PASS", 16 * 16)  # 16 pairs of 16-row kernels
    grid = LeafGrid(m=8, leaves=TWO_LEAVES)
    kernels = [build_cylinder_kernel(grid, k * _Q) for k in range(7)]  # 28 pairs, two passes
    kernels[6].weights[3] = row  # a defect that construction would have refused
    with pytest.raises(ValueError, match=message):
        semigroup_gaps(kernels)
    with pytest.raises(ValueError, match=message):
        kernels[0].compose(kernels[6])


def test_semigroup_gaps_need_one_grid():
    kernels = [build_cylinder_kernel(LeafGrid(m=8, leaves=leaves), _Q) for leaves in (TWO_LEAVES, TWO_LEAVES[:1])]
    with pytest.raises(ValueError, match="different grids"):
        semigroup_gaps(kernels)
    with pytest.raises(ValueError, match="different grids"):
        flow_defects(kernels)


@pytest.mark.parametrize("check", [semigroup_gaps, flow_defects])
def test_stacked_checks_need_at_least_one_kernel(check):
    with pytest.raises(ValueError, match="need at least one kernel"):
        check([])


# ---------------------------------------------------------------------------
# the kernel check's stacked passes against the per-kernel checks


def _up(t: float) -> float:
    return math.nextafter(t, math.inf)


def _down(t: float) -> float:
    return math.nextafter(t, -math.inf)


_THREE_LEAVES = ((1.0, 0.0), (2.0, 0.0), (1.0, 1.0))
_TURN = 2.0 * math.pi
# t = 0 in every case, and times one ulp off the grid, so that some totals
# turn the same sites but differ in the last bit (at m = 32, t1 + t12 and
# t2 + t11 already do)
_KERNEL_CHECK_CASES = [
    (2, ((1.0, 0.0),), [0.0, math.pi, _up(_TURN), 3.0 * math.pi]),
    (4, TWO_LEAVES, [math.pi / 2.0, 0.0, _up(math.pi), 1.5 * math.pi, _down(math.pi / 2.0) * 5.0]),
    (6, _THREE_LEAVES, [0.0, _down(_SIXTH), 2.0 * _SIXTH, math.pi, 5.0 * _SIXTH]),
    (32, TWO_LEAVES, [_TURN * k / 32 for k in (0, 1, 2, 11, 12)] + [_up(_TURN * 31 / 32)]),
    (32, ((1.0, 0.0),), [_TURN * 3 / 32, 0.0, _up(_TURN * 16 / 32), _TURN * 19 / 32]),
]


def _per_kernel_records(m: int, leaves, times) -> list[dict]:
    # the one-kernel-at-a-time checks that the kernel check stacks, in its
    # record order; the foliated and diagonal checks also meet their oracles
    grid = LeafGrid(m=m, leaves=leaves)
    kernels = [build_cylinder_kernel(grid, t) for t in times]
    labels, n = grid.leaf_labels(), grid.n_states
    records = []
    for t, k1 in zip(times, kernels):
        k2 = product_kernel_flow(k1)
        foliated = check_foliated(k1)
        assert foliated == np.max(np.where(labels[k1.targets] != labels[:, np.newaxis], k1.weights, 0.0).sum(axis=1))
        diagonal, diag = check_diagonal_preserving(k2, k1), k2.grid.diagonal_indices()
        y1, y2 = np.divmod(k2.targets[diag], n)
        diag_weights = np.where(y1 == y2, k2.weights[diag], 0.0)
        assert diagonal == _law_gap_oracle(y1, diag_weights, k1.targets, k1.weights)
        row_sums = float(np.max(np.abs(k1.weights.sum(axis=1) - 1.0)))
        defects = (row_sums, foliated, check_compatibility(k2, k1), diagonal)
        records += [defect_record(check, t, d) for check, d in zip(FLOW_CHECKS, defects)]
    records += [defect_record("semigroup-composition", a.t + b.t, gap)
                for (a, b), gap in zip([(a, b) for i, a in enumerate(kernels) for b in kernels[i:]],
                                       _per_pair_gaps(kernels))]
    return records


@pytest.mark.parametrize("rows_per_pass", [1, 7, None])
@pytest.mark.parametrize("m, leaves, times", _KERNEL_CHECK_CASES)
def test_kernel_check_records_equal_the_per_kernel_checks(m, leaves, times, rows_per_pass, monkeypatch):
    # one row per pass, 7 rows per pass (at n = 2 the diagonal passes take 3
    # times and then a partial pass) and the default
    if rows_per_pass is not None:
        monkeypatch.setattr(kernels_module, "_ROWS_PER_PASS", rows_per_pass)
    cfg = parse_config({"experiment": "kernel-check",
                        "kernel_check": {"m": m, "leaves": [list(l) for l in leaves], "times": times}})
    records = harness._run_kernel_check(cfg)[0]["records"]
    expected = _per_kernel_records(m, leaves, times)
    assert records == expected
    assert json.dumps(records) == json.dumps(expected)  # the sign of every zero too
    totals = [r["t"] for r in records if r["check"] == "semigroup-composition"]
    step = _TURN / m
    assert len({round(s / step) for s in totals}) < len(set(totals))  # same sites, other bits


def test_kernel_check_at_the_bench_shape_peaks_no_higher_than_per_time_passes():
    # the benchmark's kernel-dense shape: m = 32 on 2 leaves, 32 times.  With
    # every check run one time at a time, the kernel check peaked at 1 508 616
    # to 1 517 477 traced bytes, on first and later calls; the slack is about
    # twice that spread
    m = 32
    cfg = parse_config({"experiment": "kernel-check",
                        "kernel_check": {"m": m, "leaves": [list(l) for l in TWO_LEAVES],
                                         "times": [_TURN * k / m for k in range(1, m + 1)]}})
    tracemalloc.start()
    try:
        harness._run_kernel_check(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_517_477 + 16 * 1024


# ---------------------------------------------------------------------------
# law gap: column-wise sums against the concatenated oracle


def _law_gap_oracle(targets_a, weights_a, targets_b, weights_b) -> np.ndarray:
    """Max over rows x, states y of |law_a(x){y} - law_b(x){y}| of each stacked (..., rows, width)
    kernel, summing the signed weights of the columns that share a target one at a time (no sort)."""
    targets = np.concatenate((targets_a, targets_b), axis=-1)
    weights = np.concatenate((weights_a, -weights_b), axis=-1)
    worst = np.zeros(targets.shape[:-2])
    for j in range(targets.shape[-1]):
        mass = np.where(targets == targets[..., j : j + 1], weights, 0.0).sum(axis=-1)
        np.maximum(worst, np.abs(mass, out=mass).max(axis=-1), out=worst)
    return worst


def _random_rows(rng, shape: tuple, width: int, n_states: int) -> tuple[np.ndarray, np.ndarray]:
    # few states, so targets repeat within a row; a fifth of the weights are 0
    targets = rng.integers(0, n_states, shape + (width,))
    weights = rng.random(shape + (width,)) ** 3
    weights[rng.random(weights.shape) < 0.2] = 0.0
    return targets, weights


def test_law_gap_equals_the_concatenated_oracle_bit_for_bit():
    rng = np.random.default_rng(15)
    widths = [(int(rng.integers(1, 41)), int(rng.integers(1, 41))) for _ in range(100)]
    widths[:4] = [(1, 1), (1, 40), (7, 1), (100, 90)]  # 190 columns: numpy sums two halves
    for width_a, width_b in widths:
        shape = tuple(int(d) for d in rng.integers(1, 4, rng.integers(0, 3))) + (int(rng.integers(1, 301)),)
        n_states = int(rng.integers(1, 12))
        a = _random_rows(rng, shape, width_a, n_states)
        b = _random_rows(rng, shape, width_b, n_states)
        expected = _law_gap_oracle(*a, *b)
        gap = kernels_module._law_gap(*a, *b)
        assert np.shape(gap) == expected.shape
        assert np.array_equal(gap, expected)
        # b broadcast over a's rows and stack, as check_compatibility passes k1's rows
        b_shape = tuple(d if rng.random() < 0.5 else 1 for d in shape)
        b = _random_rows(rng, b_shape, width_b, n_states)
        full = [np.broadcast_to(x, shape + (width_b,)) for x in b]
        assert np.array_equal(kernels_module._law_gap(*a, *b), _law_gap_oracle(*a, *full))


def _random_kernel(rng, grid, width: int, t: float = 1.0) -> TransitionKernel:
    weights = rng.random((grid.n_states, width)) ** 3
    weights[:, 1:][rng.random((grid.n_states, width - 1)) < 0.2] = 0.0
    targets = rng.integers(0, min(grid.n_states, 2 * width), (grid.n_states, width))
    targets = (targets + np.arange(grid.n_states)[:, np.newaxis]) % grid.n_states  # repeats in each row
    weights /= weights.sum(axis=1, keepdims=True)
    return TransitionKernel(grid=grid, t=t, targets=targets, weights=weights)


@pytest.mark.parametrize("rows_per_pass", [1, 7, None])
def test_checks_in_row_blocks_equal_the_oracle_bit_for_bit(rows_per_pass, monkeypatch):
    # block edges move no bits: one row per pass, 7 rows per pass (at n = 3,
    # two k1 rows per compatibility pass and then a partial pass; at n = 2,
    # three semigroup pairs per pass and then a partial pass) and the default
    if rows_per_pass is not None:
        monkeypatch.setattr(kernels_module, "_ROWS_PER_PASS", rows_per_pass)
    rng = np.random.default_rng(11)
    for m, leaves in [(2, ((1.0, 0.0),)), (3, ((1.0, 0.0),)), (4, TWO_LEAVES)]:
        grid = LeafGrid(m=m, leaves=leaves)
        n = grid.n_states
        k1, k2 = _random_kernel(rng, grid, 3), _random_kernel(rng, PairGrid(base=grid), 5)
        k1_rows = (k1.targets.repeat(n, axis=0), k1.weights.repeat(n, axis=0))
        assert np.array_equal(check_compatibility(k2, k1), _law_gap_oracle(k2.targets // n, k2.weights, *k1_rows))
        diag = k2.grid.diagonal_indices()
        y1, y2 = np.divmod(k2.targets[diag], n)
        expected = _law_gap_oracle(y1, np.where(y1 == y2, k2.weights[diag], 0.0), k1.targets, k1.weights)
        assert np.array_equal(check_diagonal_preserving(k2, k1), expected)
    grid = LeafGrid(m=2, leaves=((1.0, 0.0),))
    kernels = [_random_kernel(rng, grid, 3, t=k * math.pi) for k in range(4)]  # 10 pairs
    totals, gaps = semigroup_gaps(kernels)
    pairs = [(a, b) for i, a in enumerate(kernels) for b in kernels[i:]]
    for (a, b), total, gap in zip(pairs, totals, gaps, strict=True):
        composed, direct = a.compose(b), build_cylinder_kernel(grid, total)
        expected = _law_gap_oracle(composed.targets, composed.weights, direct.targets, direct.weights)
        assert np.array_equal(gap, expected)
    assert float(gaps.max()) > 0.1


@settings(deadline=None, max_examples=20)
@given(
    steps=st.integers(0, 7),
    n_power=st.integers(1, 10),
)
def test_row_stochasticity_survives_powers(steps, n_power):
    grid = LeafGrid(m=8, leaves=TWO_LEAVES)
    k = build_cylinder_kernel(grid, steps * math.pi / 4.0)
    power = k
    for _ in range(n_power - 1):
        power = power.compose(k)
    assert float(np.max(np.abs(power.weights.sum(axis=1) - 1.0))) <= TOL
    assert np.all(power.weights >= -TOL)


# ---------------------------------------------------------------------------
# coalescing construction


def _expected_coalesced_9x9(k1: TransitionKernel) -> np.ndarray:
    # independent oracle built by hand: independent product everywhere, then
    # diagonal rows replaced by the 1-point chain mapped to the diagonal
    m = k1.matrix
    n = m.shape[0]
    out = np.zeros((n * n, n * n))
    for x in range(n):
        for y in range(n):
            row = x * n + y
            if x == y:
                for z in range(n):
                    out[row, z * n + z] = m[x, z]
            else:
                for xp in range(n):
                    for yp in range(n):
                        out[row, xp * n + yp] = m[x, xp] * m[y, yp]
    return out


def test_coalesce_matches_hand_built_9x9():
    k1 = cyclic_walk_kernel(3, p_left=0.3)
    kc = coalesce_two_point(k1)
    np.testing.assert_allclose(kc.matrix, _expected_coalesced_9x9(k1), atol=0.0)


def test_coalesce_diagonal_marginal_equals_chain():
    k1 = cyclic_walk_kernel(3, p_left=0.3)
    kc = coalesce_two_point(k1)
    diag = kc.grid.diagonal_indices()
    np.testing.assert_allclose(kc.matrix[np.ix_(diag, diag)], k1.matrix, atol=0.0)


def test_coalesce_off_diagonal_block_is_independent_product():
    k1 = cyclic_walk_kernel(3, p_left=0.3)
    kc = coalesce_two_point(k1)
    indep = independent_product_kernel(k1)
    diag = set(kc.grid.diagonal_indices().tolist())
    off = [s for s in range(kc.grid.n_states) if s not in diag]
    np.testing.assert_allclose(
        kc.matrix[np.ix_(off, off)], indep.matrix[np.ix_(off, off)], atol=0.0
    )


def test_coalesce_first_marginal_equals_chain_for_all_powers():
    k1 = cyclic_walk_kernel(3, p_left=0.3)
    kc = coalesce_two_point(k1)
    n = k1.grid.n_states
    for power in range(1, 21):
        mp = np.linalg.matrix_power(kc.matrix, power).reshape(n, n, n, n).sum(axis=3)
        expected = np.linalg.matrix_power(k1.matrix, power)
        assert float(np.max(np.abs(mp - expected[:, np.newaxis, :]))) <= TOL


def test_coalesce_diagonal_mass_nondecreasing():
    k1 = cyclic_walk_kernel(3, p_left=0.3)
    kc = coalesce_two_point(k1)
    diag = kc.grid.diagonal_indices()
    previous = np.zeros(kc.grid.n_states)
    for power in range(1, 21):
        mass = np.linalg.matrix_power(kc.matrix, power)[:, diag].sum(axis=1)
        assert np.all(mass >= previous - TOL)
        previous = mass


def test_coalesce_warns_on_reducible_chain():
    grid = LeafGrid(m=2, leaves=((1.0, 0.0),))
    k1 = from_dense(grid, 1.0, np.eye(2))
    with pytest.warns(UserWarning):
        coalesce_two_point(k1)


def test_coalesce_rejects_multi_leaf():
    grid = LeafGrid(m=4, leaves=TWO_LEAVES)
    with pytest.raises(ValueError):
        coalesce_two_point(build_cylinder_kernel(grid, 0.0))


# ---------------------------------------------------------------------------
# export


_DEFECT_RECORDS = [
    [],
    [defect_record("row-sums", 0.25, 0.0)],
    [defect_record("compatibility", t, d) for t, d in [(0.5, math.inf), (1.0, -math.inf), (1.5, math.nan)]],
    [defect_record("diagonal-preserving", t, d) for t, d in [(-0.0, 5e-324), (1e16, -0.0), (5e-324, 1e16)]],
    [defect_record(check, 1.0, 1e-17) for check in ['say "semi"\\group', "é\n\t", ", "]],
]


@pytest.mark.parametrize("records", _DEFECT_RECORDS)
def test_defects_json_is_the_indented_json_byte_for_byte(records):
    assert defects_json(records) == json.dumps(records, indent=1)


def test_kernel_json_round_trip():
    grid = LeafGrid(m=4, leaves=TWO_LEAVES)
    k = build_cylinder_kernel(grid, math.pi / 2.0)
    blob = json.dumps(kernel_to_json(k))
    data = json.loads(blob)
    assert list(data) == ["grid", "t", "targets", "weights"]
    assert data["grid"]["m"] == 4
    assert data["grid"]["leaves"] == [[1.0, 0.0], [2.0, 0.0]]
    # row x sends weights[x][j] to targets[x][j]; repeated targets add
    targets, weights = np.array(data["targets"]), np.array(data["weights"])
    dense = np.zeros((len(targets), grid.n_states))
    np.add.at(dense, (np.arange(len(targets))[:, np.newaxis], targets), weights)
    np.testing.assert_array_equal(dense, k.matrix)
