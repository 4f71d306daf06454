"""Row-sparse kernels against a dense small-m oracle, mutation checks, and scale.

The dense oracle builds every kernel entry by entry with Python loops and
evaluates every property check with the dense-matrix formula (4-D reshapes,
diagonal blocks, leaf masks, matrix products).  The structured builders and
checks must agree with it exactly (matrices) or within 1e-15 (check values).
"""

import math
import time
import warnings

import numpy as np
import pytest

from foliated_flows.config import parse_config
from foliated_flows.harness import run
from foliated_flows.kernels import (
    LeafGrid,
    PairGrid,
    TransitionKernel,
    build_cylinder_kernel,
    check_compatibility,
    check_diagonal_preserving,
    check_foliated,
    coalesce_two_point,
    cyclic_walk_kernel,
    independent_product_kernel,
    kernel_distance,
    product_kernel_flow,
)

from kernel_helpers import from_dense, site_index

LEAVES = ((1.0, 0.0), (2.0, 0.0), (3.0, 1.0))
CHECK_TOL = 1e-15


def _grid(m: int, n_leaves: int) -> LeafGrid:
    return LeafGrid(m=m, leaves=LEAVES[:n_leaves])


def _time(m: int, k: int) -> float:
    return 2.0 * math.pi * k / m


# ---------------------------------------------------------------------------
# dense oracle


def _dense_cylinder(grid: LeafGrid, t: float) -> np.ndarray:
    k = round(t / (2.0 * math.pi / grid.m))
    p_jump = 0.5 * (1.0 - math.exp(-2.0 * t))
    p_stay = 0.5 * (1.0 + math.exp(-2.0 * t))
    out = np.zeros((grid.n_states, grid.n_states))
    for leaf_i in range(len(grid.leaves)):
        for site in range(grid.m):
            row = site_index(grid, leaf_i, site)
            out[row, site_index(grid, leaf_i, site + k)] += p_stay
            out[row, site_index(grid, leaf_i, site + k + grid.m // 2)] += p_jump
    return out


def _dense_flow_pair(grid: LeafGrid, t: float) -> np.ndarray:
    k = round(t / (2.0 * math.pi / grid.m))
    p_jump = 0.5 * (1.0 - math.exp(-2.0 * t))
    n = grid.n_states

    def moved(state: int, extra: int) -> int:
        return site_index(grid, state // grid.m, state % grid.m + k + extra)

    out = np.zeros((n * n, n * n))
    for s1 in range(n):
        for s2 in range(n):
            row = s1 * n + s2
            out[row, moved(s1, 0) * n + moved(s2, 0)] += 1.0 - p_jump
            out[row, moved(s1, grid.m // 2) * n + moved(s2, grid.m // 2)] += p_jump
    return out


def _dense_coalesced(m1: np.ndarray) -> np.ndarray:
    n = m1.shape[0]
    out = np.kron(m1, m1)
    for z in range(n):
        out[z * n + z] = 0.0
        for y in range(n):
            out[z * n + z, y * n + y] = m1[z, y]
    return out


def _dense_irreducible(matrix: np.ndarray) -> bool:
    closure = (matrix > 0.0) | np.eye(matrix.shape[0], dtype=bool)
    for _ in range(matrix.shape[0]):
        closure = closure | ((closure.astype(int) @ closure.astype(int)) > 0)
    return bool(np.all(closure))


def _coalesce_warns(k1: TransitionKernel) -> bool:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        coalesce_two_point(k1)
    return any("not irreducible" in str(w.message) for w in caught)


def _dense_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b summed term by term in the order of the intermediate state."""
    out = np.zeros_like(a)
    for x in range(a.shape[0]):
        for z in np.flatnonzero(a[x]):
            for y in np.flatnonzero(b[z]):
                out[x, y] += a[x, z] * b[z, y]
    return out


def _dense_compatibility(m2: np.ndarray, m1: np.ndarray) -> float:
    n = m1.shape[0]
    marginal = m2.reshape(n, n, n, n).sum(axis=3)
    return float(np.max(np.abs(marginal - m1[:, np.newaxis, :])))


def _dense_diagonal(m2: np.ndarray, m1: np.ndarray) -> float:
    n = m1.shape[0]
    m4 = m2.reshape(n, n, n, n)
    block = m4[np.arange(n), np.arange(n)][:, np.arange(n), np.arange(n)]
    return float(np.max(np.abs(block - m1)))


def _dense_foliated(grid, matrix: np.ndarray) -> float:
    if isinstance(grid, LeafGrid):
        labels = grid.leaf_labels()
        off = labels[np.newaxis, :] != labels[:, np.newaxis]
        return float(np.max(np.where(off, matrix, 0.0).sum(axis=1)))
    n = grid.base.n_states
    labels = grid.base.leaf_labels()
    off1 = labels[np.newaxis, :] != labels[:, np.newaxis]
    mask = off1[:, np.newaxis, :, np.newaxis] | off1[np.newaxis, :, np.newaxis, :]
    return float(np.max(np.where(mask, matrix.reshape(n, n, n, n), 0.0).sum(axis=(2, 3))))


def _random_kernel(grid, rng, density: float = 0.3) -> TransitionKernel:
    n = grid.n_states
    raw = rng.random((n, n)) * (rng.random((n, n)) < density) + np.eye(n) * 1e-3
    return from_dense(grid, 1.0, raw / raw.sum(axis=1, keepdims=True))


def _assert_checks_match(k2: TransitionKernel, k1: TransitionKernel) -> None:
    m2, m1 = k2.matrix, k1.matrix
    assert abs(check_compatibility(k2, k1) - _dense_compatibility(m2, m1)) <= CHECK_TOL
    assert abs(check_diagonal_preserving(k2, k1) - _dense_diagonal(m2, m1)) <= CHECK_TOL
    assert abs(check_foliated(k2) - _dense_foliated(k2.grid, m2)) <= CHECK_TOL
    assert abs(check_foliated(k1) - _dense_foliated(k1.grid, m1)) <= CHECK_TOL


STEPS = (0, 1, 3, 5, 11)
CASES = [(m, n_leaves) for m in (4, 8) for n_leaves in (1, 2, 3)]


@pytest.mark.parametrize("m,n_leaves", CASES)
def test_builders_match_dense_oracle(m, n_leaves):
    grid = _grid(m, n_leaves)
    for k in STEPS:
        t = _time(m, k)
        k1 = build_cylinder_kernel(grid, t)
        np.testing.assert_array_equal(k1.matrix, _dense_cylinder(grid, t))
        np.testing.assert_array_equal(product_kernel_flow(k1).matrix, _dense_flow_pair(grid, t))
        indep = independent_product_kernel(k1)
        np.testing.assert_array_equal(indep.matrix, np.kron(k1.matrix, k1.matrix))
        if n_leaves == 1:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # t = 0 is the identity: reducible
                coal = coalesce_two_point(k1)
            np.testing.assert_array_equal(coal.matrix, _dense_coalesced(k1.matrix))
            assert _coalesce_warns(k1) == (not _dense_irreducible(k1.matrix))


@pytest.mark.parametrize("m,n_leaves", CASES)
def test_compose_matches_dense_product(m, n_leaves):
    grid = _grid(m, n_leaves)
    for ks in STEPS:
        for kt in (1, 3):
            a = build_cylinder_kernel(grid, _time(m, ks))
            b = build_cylinder_kernel(grid, _time(m, kt))
            composed = a.compose(b)
            assert composed.t == a.t + b.t
            np.testing.assert_array_equal(composed.matrix, _dense_product(a.matrix, b.matrix))
            direct = build_cylinder_kernel(grid, a.t + b.t)
            dense_gap = float(np.max(np.abs(a.matrix @ b.matrix - direct.matrix)))
            assert abs(kernel_distance(composed, direct) - dense_gap) <= CHECK_TOL
    a2 = product_kernel_flow(build_cylinder_kernel(grid, _time(m, 1)))
    b2 = product_kernel_flow(build_cylinder_kernel(grid, _time(m, 3)))
    np.testing.assert_array_equal(a2.compose(b2).matrix, _dense_product(a2.matrix, b2.matrix))


@pytest.mark.parametrize("m,n_leaves", CASES)
def test_structured_checks_match_dense_formulas(m, n_leaves):
    grid = _grid(m, n_leaves)
    for k in STEPS:
        k1 = build_cylinder_kernel(grid, _time(m, k))
        _assert_checks_match(product_kernel_flow(k1), k1)
        _assert_checks_match(independent_product_kernel(k1), k1)
    rng = np.random.default_rng(m * 10 + n_leaves)
    k1 = _random_kernel(grid, rng)
    pair = _random_kernel(PairGrid(base=grid), rng, density=0.05)
    _assert_checks_match(pair, k1)
    _assert_checks_match(independent_product_kernel(k1), k1)
    assert _dense_foliated(grid, k1.matrix) > 0.0 or n_leaves == 1
    a, b, c = (_random_kernel(grid, rng) for _ in range(3))
    dense_gap = float(np.max(np.abs(a.matrix @ b.matrix - c.matrix)))
    assert abs(kernel_distance(a.compose(b), c) - dense_gap) <= CHECK_TOL


def test_coalesce_checks_match_dense_formulas():
    for k1 in (cyclic_walk_kernel(3, p_left=0.3), build_cylinder_kernel(_grid(8, 1), _time(8, 3))):
        _assert_checks_match(coalesce_two_point(k1), k1)


def test_irreducibility_matches_dense_closure():
    grid = LeafGrid(m=4, leaves=((1.0, 0.0),))
    chains = (
        np.roll(np.eye(4), 1, axis=1),  # one cycle
        np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1.0]]),  # 0 reaches all, 3 absorbs
        np.array([[1, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1.0, 0]]),  # all reach 0, 0 absorbs
        np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1.0, 0]]),  # two classes
        np.array([[0.5, 0.5, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1.0, 0, 0, 0]]),
    )
    for matrix in chains:
        k1 = from_dense(grid, 1.0, matrix)
        assert _coalesce_warns(k1) == (not _dense_irreducible(matrix))
    assert [_dense_irreducible(mx) for mx in chains] == [True, False, False, False, True]


def test_from_dense_round_trip_and_validation():
    rng = np.random.default_rng(3)
    grid = _grid(4, 2)
    k = _random_kernel(grid, rng)
    np.testing.assert_array_equal(from_dense(grid, 1.0, k.matrix).matrix, k.matrix)
    with pytest.raises(ValueError):
        from_dense(grid, 1.0, np.eye(grid.n_states - 1))
    n = grid.n_states
    ones = np.ones((n, 1))
    with pytest.raises(ValueError):  # target out of range
        TransitionKernel(grid=grid, t=1.0, targets=np.full((n, 1), n), weights=ones)
    with pytest.raises(ValueError):  # targets must be integers
        TransitionKernel(grid=grid, t=1.0, targets=np.zeros((n, 1)), weights=ones)
    with pytest.raises(ValueError):  # shape mismatch
        TransitionKernel(grid=grid, t=1.0, targets=np.zeros((n, 2), dtype=int), weights=ones)
    with pytest.raises(ValueError):  # NaN row sums are not within tolerance
        TransitionKernel(grid=grid, t=1.0, targets=np.zeros((n, 1), dtype=int), weights=ones * np.nan)


# ---------------------------------------------------------------------------
# mutations: each structured check sees a planted defect


def _widened(k: TransitionKernel) -> tuple[np.ndarray, np.ndarray]:
    """Copies of k's arrays with one zero-weight column repeating column 0."""
    targets = np.hstack((k.targets, k.targets[:, :1]))
    weights = np.hstack((k.weights, np.zeros((k.targets.shape[0], 1))))
    return targets, weights


def test_diagonal_check_sees_mass_leaving_the_diagonal():
    grid = _grid(8, 2)
    k1 = build_cylinder_kernel(grid, _time(8, 3))
    k2 = product_kernel_flow(k1)
    assert check_diagonal_preserving(k2, k1) <= 1e-15
    n = grid.n_states
    targets, weights = _widened(k2)
    row = k2.grid.diagonal_indices()[5]
    y1 = targets[row, 0] // n
    targets[row, 2] = y1 * n + site_index(grid, y1 // grid.m, y1 % grid.m + 1)  # (y1, y1 + 1 site)
    weights[row, 0] -= 0.1
    weights[row, 2] = 0.1
    bad = TransitionKernel(grid=k2.grid, t=k2.t, targets=targets, weights=weights)
    assert check_diagonal_preserving(bad, k1) >= 0.05
    assert check_foliated(bad) == 0.0


def test_foliated_check_sees_second_coordinate_leave_its_leaf():
    grid = _grid(8, 2)
    k2 = product_kernel_flow(build_cylinder_kernel(grid, _time(8, 1)))
    assert check_foliated(k2) == 0.0
    n = grid.n_states
    targets = k2.targets.copy()
    row = 3 * n + 12  # (leaf 0 site 3, leaf 1 site 4)
    y1, y2 = divmod(int(targets[row, 0]), n)
    targets[row, 0] = y1 * n + (y2 + grid.m) % n  # second coordinate moves to leaf 0
    bad = TransitionKernel(grid=k2.grid, t=k2.t, targets=targets, weights=k2.weights)
    assert check_foliated(bad) >= k2.weights[row, 0] > 0.0


def test_semigroup_distance_sees_one_shifted_target():
    grid = _grid(8, 2)
    b = build_cylinder_kernel(grid, _time(8, 3))
    targets = b.targets.copy()
    z = 9
    targets[z, 0] = site_index(grid, z // grid.m, z % grid.m + 4)  # a site no row-z target uses
    shifted = TransitionKernel(grid=grid, t=b.t, targets=targets, weights=b.weights)
    identity = build_cylinder_kernel(grid, 0.0)
    assert kernel_distance(identity.compose(b), b) == 0.0
    assert kernel_distance(identity.compose(shifted), b) >= b.weights[z, 0]
    a = build_cylinder_kernel(grid, _time(8, 2))
    direct = build_cylinder_kernel(grid, a.t + b.t)
    assert kernel_distance(a.compose(b), direct) <= 1e-15
    moved = float(np.max(np.where(a.targets == z, a.weights, 0.0))) * b.weights[z, 0]
    assert kernel_distance(a.compose(shifted), direct) >= moved * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# scale: the dense pair matrix at m=256 on 2 leaves would hold 512^4 floats (550 GB)


def test_kernel_check_runs_at_m256(tmp_path):
    m = 256
    cfg = parse_config(
        {
            "experiment": "kernel-check",
            "seed": 1,
            "output_dir": str(tmp_path),
            "kernel_check": {
                "m": m,
                "leaves": [[1.0, 0.0], [2.0, 0.0]],
                "times": [_time(m, k) for k in (1, 7, 128)],
            },
        }
    )
    t0 = time.perf_counter()
    report = run(cfg)
    elapsed = time.perf_counter() - t0
    assert len(report.results["records"]) == 3 * 4 + 6
    assert report.results["max_defect"] <= 1e-12
    assert elapsed < 30.0
