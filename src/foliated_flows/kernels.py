"""Exact transition kernels on labeled grids and their property checks.

A ``LeafGrid`` is a finite discretization of the circle foliation: m equally
spaced angular sites on each of a list of (r, z)-labeled leaves.  Kernels are
row-sparse (targets, weights) arrays, dumps included: a rotation-jump kernel
stores two pairs per row, so its 2-point kernel never forms an n^2 x n^2
matrix.  Every check below is an exact max-norm over the complete basis of
grid indicator functions, computed column by column on these arrays in passes
of at most _ROWS_PER_PASS rows, not a sampled estimate.

Checks cover: compatibility of a 2-point kernel with its 1-point marginal,
diagonal preservation, the foliated (off-leaf mass zero) property, the
semigroup composition law, and the absorb-on-diagonal coalescing
construction.  The off-leaf mass also bounds how far the kernel tells apart
two functions that agree on a leaf: |P(f - g)| on the leaf is at most that
mass times max|f - g|, with equality at f - g = 1 off the leaf.  Over a list
of times, ``flow_defects`` and ``semigroup_gaps`` run them on the stacked
(times, rows, width) arrays of as many kernels as fit in a pass, of which the
single-kernel checks are the batch-of-one case.  Only compatibility runs once
per time, and no 2-point flow kernel is built whole: its rows are built and
checked one pass of first coordinates at a time (``product_kernel_flow`` is
the all-rows case), and its diagonal rows are built directly.

Feller continuity of the underlying semigroups is a topological limit
statement with no finite-grid analog; it is out of scope for these numeric
checks and is not asserted anywhere.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .drivers import _grid_steps
from .geometry import TWO_PI

ROW_SUM_TOL = 1e-12
# kernel rows compared per array pass: bounds the temporaries of every check
_ROWS_PER_PASS = 1 << 12
# the checks of flow_defects, in the order of its columns
FLOW_CHECKS = ("row-sums", "foliated-off-leaf-mass", "compatibility", "diagonal-preserving")


@dataclass(frozen=True)
class LeafGrid:
    """m angular sites (2*pi*k/m) on each of a list of distinct (r, z) leaves."""

    m: int
    leaves: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"need at least 2 angular sites, got m={self.m}")
        if len(set(self.leaves)) != len(self.leaves):
            raise ValueError("leaf labels must be distinct")
        if not self.leaves:
            raise ValueError("need at least one leaf")

    @property
    def n_states(self) -> int:
        return self.m * len(self.leaves)

    def rotated(self, steps) -> np.ndarray:
        """(n_states, len(steps)): every state rotated by each step count within its leaf."""
        states = np.arange(self.n_states)[:, np.newaxis]
        return states - states % self.m + (states + np.asarray(steps)) % self.m

    def leaf_labels(self) -> np.ndarray:
        """Leaf index of every state."""
        return np.repeat(np.arange(len(self.leaves)), self.m)


@dataclass(frozen=True)
class PairGrid:
    """The 2-fold product of a LeafGrid; state (s1, s2) has index s1*n + s2."""

    base: LeafGrid

    @property
    def n_states(self) -> int:
        return self.base.n_states ** 2

    def diagonal_indices(self) -> np.ndarray:
        n = self.base.n_states
        return np.arange(n) * n + np.arange(n)

    def leaf_labels(self) -> np.ndarray:
        """Index of the (leaf of s1, leaf of s2) pair of every state."""
        labels = self.base.leaf_labels()
        return (labels[:, np.newaxis] * len(self.base.leaves) + labels).ravel()


def _flat(grid, t: float, targets: np.ndarray, weights: np.ndarray) -> "TransitionKernel":
    """Kernel whose row x holds every (target, weight) in targets[x, ...], weights[x, ...]."""
    n = grid.n_states
    return TransitionKernel(grid=grid, t=t, targets=targets.reshape(n, -1), weights=weights.reshape(n, -1))


def _passes(count: int, rows: int) -> list[slice]:
    """Slices of range(count) that take as many items of the given number of kernel rows as fit in
    _ROWS_PER_PASS rows, and at least one."""
    step = max(1, _ROWS_PER_PASS // rows)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _one_grid(kernels: list):
    """The grid of a nonempty list of kernels that all live on it."""
    if not kernels:
        raise ValueError("need at least one kernel")
    if any(k.grid != kernels[0].grid for k in kernels):
        raise ValueError("kernels live on different grids")
    return kernels[0].grid


def _stacked(kernels: list) -> tuple[np.ndarray, np.ndarray]:
    return np.stack([k.targets for k in kernels]), np.stack([k.weights for k in kernels])


def _check_rows(targets: np.ndarray, weights: np.ndarray, n: int) -> None:
    """Every row (along the last axis) is a probability law on states [0, n)."""
    if targets.dtype.kind not in "iu" or (targets.size and not 0 <= targets.min() <= targets.max() < n):
        raise ValueError(f"targets must be integer state indices in [0, {n})")
    if np.any(weights < 0.0):
        raise ValueError("kernel entries must be nonnegative")
    defect = _row_sum([(w, None) for w in weights.T], weights.T.shape[1:])
    worst = float(np.max(np.abs(np.subtract(defect, 1.0, out=defect), out=defect)))
    if not worst <= ROW_SUM_TOL:
        raise ValueError(f"rows must sum to 1 within {ROW_SUM_TOL}; worst defect {worst}")


def _compose_rows(targets_a, weights_a, targets_b, weights_b) -> tuple[np.ndarray, np.ndarray]:
    """Stacked kernels A[p] then B[p], (P, n, ka) and (P, n, kb) -> (P, n, ka*kb): row x
    sends weight W_A[p,x,i]*W_B[p,T_A[p,x,i],j] to T_B[p,T_A[p,x,i],j], gathered by np.take
    from B's rows flattened over the stack."""
    p, n = len(targets_a), targets_b.shape[1]
    rows = targets_a + (np.arange(p) * n)[:, np.newaxis, np.newaxis]
    targets, weights = (np.take(x.reshape(p * n, -1), rows, axis=0) for x in (targets_b, weights_b))
    shape = targets_a.shape[:2] + (-1,)
    return targets.reshape(shape), (weights_a[..., np.newaxis] * weights).reshape(shape)


@dataclass(frozen=True)
class TransitionKernel:
    """Discretized P_t on a labeled grid, stored row-sparse.

    Row x is the law sum_j weights[x, j] * delta(targets[x, j]), with int
    targets and nonnegative weights of shape (n_states, width).  Repeated
    targets in a row add up; zero-weight padding is allowed.  ``matrix``
    builds the dense row-stochastic matrix on each call (small grids only).
    """

    grid: LeafGrid | PairGrid
    t: float
    targets: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        n, targets = self.grid.n_states, self.targets
        if targets.ndim != 2 or targets.shape[0] != n or self.weights.shape != targets.shape:
            raise ValueError(f"targets {targets.shape} and weights {self.weights.shape} must be ({n}, width)")
        _check_rows(targets, self.weights, n)
        if self.t < 0.0:
            raise ValueError(f"t must be >= 0: {self.t}")

    @property
    def matrix(self) -> np.ndarray:
        out = np.zeros((self.grid.n_states,) * 2)
        np.add.at(out, (np.arange(len(out))[:, np.newaxis], self.targets), self.weights)
        return out

    def compose(self, other: "TransitionKernel") -> "TransitionKernel":
        """self then other: row x sends weight W_A[x,i]*W_B[T_A[x,i],j] to T_B[T_A[x,i],j]."""
        if self.grid != other.grid:
            raise ValueError("cannot compose kernels on different grids")
        one = (self.targets, self.weights, other.targets, other.weights)
        return _flat(self.grid, self.t + other.t, *_compose_rows(*(x[np.newaxis] for x in one)))


def build_cylinder_kernel(grid: LeafGrid, t: float) -> TransitionKernel:
    """Discretized rotation-jump semigroup at a grid-aligned time.

    From each state the kernel moves mass (1+e^{-2t})/2 to the site rotated by
    t (column 0) and (1-e^{-2t})/2 to the rotated antipodal site (column 1),
    on the same leaf.  t must be a multiple of 2*pi/m with m even, so both
    targets are grid-exact; off-grid rotations are an error (no interpolation).
    """
    if grid.m % 2 != 0:
        raise ValueError(f"antipodal map needs an even number of sites, got m={grid.m}")
    targets, weights = _cylinder_rows(grid, [t], [_grid_steps(t, TWO_PI / grid.m)])
    return TransitionKernel(grid, float(t), targets[0], weights[0])


def _cylinder_rows(grid: LeafGrid, times: list, sites: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Targets and weights, each (len(times), n_states, 2), of the rotation-jump kernel at each
    time, which turns the matching number of sites: one rotation pass for every time."""
    n, half = grid.n_states, grid.m // 2
    targets = grid.rotated([s for k in sites for s in (k, k + half)]).reshape(n, len(sites), 2)
    decay = [math.exp(-2.0 * t) for t in times]
    weights = np.array([(0.5 * (1.0 + e), 0.5 * (1.0 - e)) for e in decay])  # stay, jump
    return targets.swapaxes(0, 1), np.repeat(weights[:, np.newaxis], n, axis=1)


def product_kernel_flow(k1: TransitionKernel) -> TransitionKernel:
    """2-point kernel induced by the common-noise flow of a random-map kernel.

    k1 has width 2 and one pair of weights (1 - p, p) in every row, as a
    cylinder kernel has: both coordinates receive the SAME rotation and the
    SAME jump outcome, i.e. column j of k1 applied to both coordinates.  The
    weights are that one pair, broadcast read-only to every row.
    """
    targets, weights = _product_rows(k1, slice(None), _flow_weights(k1))
    return _flat(PairGrid(base=k1.grid), k1.t, targets, weights)


def _flow_weights(k1: TransitionKernel) -> np.ndarray:
    """The (1 - p, p) weights of every product_kernel_flow(k1) row."""
    if not isinstance(k1.grid, LeafGrid):
        raise ValueError("k1 must live on a single-point LeafGrid")
    if k1.weights.shape[1] != 2 or np.any(k1.weights != k1.weights[0]):
        raise ValueError("product_kernel_flow needs a width-2 kernel whose rows all carry the same weights")
    p_jump = k1.weights[0, 1]
    return np.array([1.0 - p_jump, p_jump])


def _product_rows(k1: TransitionKernel, first: slice, pair: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Targets (rows, n, 2) and weights of the product_kernel_flow(k1) rows (x1, x2) for x1 in the
    slice first of k1's n states: column j is k1's column j at x1 times n outer-added to k1's column
    j at every x2, and the weights are pair, broadcast read-only to every row."""
    n, rows = k1.grid.n_states, k1.targets[first]
    targets = np.empty((len(rows), n, 2), dtype=k1.targets.dtype)
    for j in range(2):
        np.add.outer(rows[:, j] * n, k1.targets[:, j], out=targets[..., j])
    return targets, np.broadcast_to(pair, targets.shape)


def _flow_blocks(k1: TransitionKernel, pair: np.ndarray):
    """check_compatibility's blocks of product_kernel_flow(k1), whose weights are pair, never built
    whole: one pass of first coordinates x1 at a time, its pair rows (x1, x2), (rows, n, 2),
    validated as the TransitionKernel constructor does, and k1's rows x1, (rows, 1, 2)."""
    n = k1.grid.n_states
    for first in _passes(n, n):
        targets, weights = _product_rows(k1, first, pair)
        _check_rows(targets, weights, n * n)
        yield targets, weights, k1.targets[first, np.newaxis], k1.weights[first, np.newaxis]


def independent_product_kernel(k1: TransitionKernel) -> TransitionKernel:
    """Tensor square of a 1-point kernel (two independent copies)."""
    if not isinstance(k1.grid, LeafGrid):
        raise ValueError("k1 must live on a single-point LeafGrid")
    t, w = k1.targets[:, np.newaxis, :, np.newaxis], k1.weights[:, np.newaxis, :, np.newaxis]
    targets = t * k1.grid.n_states + k1.targets[:, np.newaxis, :]
    return _flat(PairGrid(base=k1.grid), k1.t, targets, w * k1.weights[:, np.newaxis, :])


def _row_sum(terms: list, shape: tuple) -> np.ndarray:
    """Sum over terms (w, mask) of where(mask, w, 0.0) (w for mask None), an array of the given shape,
    in numpy's order over len(terms) up to the sign of a zero: one by one below 8 terms, else 8 running
    sums joined pairwise and then the rest; past 128 terms two halves, the first a multiple of 8 long."""
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _row_sum(terms[:half], shape) + _row_sum(terms[half:], shape)

    def add(total, w, mask=None):
        return np.add(total, w, out=total, where=True if mask is None else mask)

    lanes, head = (8, n - n % 8) if n >= 8 else (1, n)
    acc = [np.zeros(shape) for _ in range(lanes)]
    for i in range(head):
        add(acc[i % lanes], *terms[i])
    while len(acc) > 1:  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        acc = [add(a, b) for a, b in zip(acc[::2], acc[1::2])]
    for t in terms[head:]:
        add(acc[0], *t)
    return acc[0]


def _law_gap(targets_a, weights_a, targets_b, weights_b) -> np.ndarray:
    """Max over rows x, states y of |law_a(x){y} - law_b(x){y}| of each stacked (..., rows, width)
    kernel, b broadcast to a's leading shape: column j's mass sum_i where(t_i == t_j, w_i, 0) over
    the columns of a, then b negated, adds in the order of numpy's sum over a row of them."""
    targets = [t[..., i] for t in (targets_a, targets_b) for i in range(t.shape[-1])]
    weights = [w[..., i] for w in (weights_a, -weights_b) for i in range(w.shape[-1])]
    same = {(i, j): targets[i] == targets[j] for j in range(len(targets)) for i in range(j)}
    masses = (_row_sum([(w, None if i == j else same[min(i, j), max(i, j)]) for i, w in enumerate(weights)],
                       targets_a.shape[:-1]) for j in range(len(weights)))
    return np.max([np.abs(mass, out=mass).max(axis=-1) for mass in masses], axis=0)


def kernel_distance(a: TransitionKernel, b: TransitionKernel) -> float:
    """Max-norm distance max_{x,y} |a(x, y) - b(x, y)| of two kernels on one grid."""
    if a.grid != b.grid:
        raise ValueError("kernels live on different grids")
    return float(_law_gap(a.targets, a.weights, b.targets, b.weights))


def semigroup_gaps(kernels: list[TransitionKernel]) -> tuple[list[float], np.ndarray]:
    """Totals s + t and gaps kernel_distance(P_s.compose(P_t), P_{s+t}), bit for bit, of every
    pair i <= j of cylinder kernels on one grid, in the order (0,0), (0,1), ..., (1,1), ....
    The rows of P_{s+t} are built in one pass, once per distinct float total, with weights
    from the total and the rotation of s plus that of t: a sum of two grid times may lie up
    to twice the grid tolerance off the grid.  Each array pass composes the pairs that fit in
    _ROWS_PER_PASS rows and checks their rows as the TransitionKernel constructor does."""
    grid, (targets, weights) = _one_grid(kernels), _stacked(kernels)
    first, second = np.triu_indices(len(kernels))
    totals = [kernels[i].t + kernels[j].t for i, j in zip(first.tolist(), second.tolist())]
    sites = [_grid_steps(k.t, TWO_PI / grid.m) for k in kernels]
    turns = {}  # each distinct total: its slot among the direct rows and the sites it turns
    for s, i, j in zip(totals, first.tolist(), second.tolist()):
        turns.setdefault(s, (len(turns), sites[i] + sites[j]))
    direct = _cylinder_rows(grid, list(turns), [k for _, k in turns.values()])
    index = np.array([turns[s][0] for s in totals])
    gaps = np.empty(len(totals))
    for part in _passes(len(totals), grid.n_states):
        i, j = first[part], second[part]
        composed = _compose_rows(targets[i], weights[i], targets[j], weights[j])
        _check_rows(*composed, grid.n_states)
        gaps[part] = _law_gap(*composed, *(np.take(x, index[part], axis=0) for x in direct))
    return totals, gaps


def flow_defects(kernels: list[TransitionKernel]) -> np.ndarray:
    """(len(kernels), 4) defects, columns in FLOW_CHECKS order, of each 1-point kernel k1 on one
    grid and k2 = product_kernel_flow(k1), bit for bit: max |row sum - 1| of k1, check_foliated(k1),
    check_compatibility(k2, k1) and check_diagonal_preserving(k2, k1).  No k2 is built whole: its
    rows are built, validated and checked for compatibility one pass of first coordinates at a time
    (as many as fit in _ROWS_PER_PASS rows, and at least one), and its diagonal rows (x, x), which
    send the pair of weights to (y, y) for each target y of k1's row x, are built directly.  The other checks run in stacked passes over as many
    kernels as fit in _ROWS_PER_PASS rows."""
    grid = _one_grid(kernels)
    n, defects = grid.n_states, []
    for part in _passes(len(kernels), n):
        pairs = [_flow_weights(k1) for k1 in kernels[part]]
        compatibility = [_compatibility(_flow_blocks(k1, pair), n) for k1, pair in zip(kernels[part], pairs)]
        targets, weights = _stacked(kernels[part])
        diagonal = _diagonal_gaps(targets * (n + 1), np.stack(pairs)[:, np.newaxis], targets, weights, n)
        row_sums = np.abs(weights.sum(axis=-1) - 1.0).max(axis=-1)
        off_leaf = _off_leaf_mass(grid, targets, weights)
        defects.append(np.column_stack([row_sums, off_leaf, compatibility, diagonal]))
    return np.concatenate(defects)


def _require_pair_over(k2: TransitionKernel, k1: TransitionKernel) -> int:
    if not isinstance(k2.grid, PairGrid) or not isinstance(k1.grid, LeafGrid):
        raise ValueError("expected a pair kernel and its base 1-point kernel")
    if k2.grid.base != k1.grid:
        raise ValueError("pair kernel grid does not match the 1-point grid")
    return k1.grid.n_states


def check_compatibility(k2: TransitionKernel, k1: TransitionKernel) -> float:
    """Max defect of the first-coordinate marginal of k2 against k1.

    Test functions are f(x1, x2) = g(x1) over all grid indicators g, so this
    is the exact max-norm marginal defect (Def-style compatibility): row
    (x1, x2) of k2, projected to its first coordinate, against row x1 of k1,
    in blocks of k1's rows with all of their pair rows.  flow_defects runs the
    same block check on flow rows that it builds one pass at a time.
    """
    n = _require_pair_over(k2, k1)  # k1's row x1 meets pair rows (x1, x2) for every x2
    rows = [x.reshape(n, -1, x.shape[1]) for x in (k2.targets, k2.weights, k1.targets, k1.weights)]
    return _compatibility(([x[part] for x in rows] for part in _passes(n, n)), n)


def _compatibility(blocks, n: int) -> float:
    """check_compatibility over blocks (pair targets, pair weights, k1 targets, k1 weights) on n
    states: pair rows (x1, x2), (rows, n, width), against k1's rows x1, (rows, 1, width)."""
    return float(max(_law_gap(t2 // n, w2, t1, w1).max() for t2, w2, t1, w1 in blocks))


def check_diagonal_preserving(k2: TransitionKernel, k1: TransitionKernel) -> float:
    """Max over states x, indicators f of |P2 f⊗f (x,x) - P1 f^2 (x)|.

    For indicator f = 1_z this compares the (x,x) -> (z,z) mass with the
    1-point transition x -> z.
    """
    n = _require_pair_over(k2, k1)  # n diagonal rows against k1's n rows: no blocks needed
    diag = k2.grid.diagonal_indices()
    return float(_diagonal_gaps(k2.targets[diag], k2.weights[diag], k1.targets, k1.weights, n))


def _diagonal_gaps(diag_targets, diag_weights, targets, weights, n: int) -> np.ndarray:
    """check_diagonal_preserving of each stacked (..., n, width) pair of 2-point diagonal rows
    and 1-point kernel rows on n states: the mass the diagonal row (x, x) sends to each (z, z)
    against the 1-point mass x -> z."""
    y1, y2 = np.divmod(diag_targets, n)
    return _law_gap(y1, np.where(y1 == y2, diag_weights, 0.0), targets, weights)


def check_foliated(k: TransitionKernel) -> float:
    """Max over rows of the total mass sent to states with a different leaf label.

    Zero iff the kernel is foliated on the grid (the discrete statement that
    the support of every transition measure stays inside the leaf); on a
    PairGrid a state's label is the pair of its coordinates' leaves.
    """
    return float(_off_leaf_mass(k.grid, k.targets, k.weights))


def _off_leaf_mass(grid, targets: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """check_foliated of each stacked (..., n_states, width) kernel on the grid."""
    labels = grid.leaf_labels()
    off = labels[targets] != labels[:, np.newaxis]
    return np.where(off, weights, 0.0).sum(axis=-1).max(axis=-1)


def _is_irreducible(k: TransitionKernel) -> bool:
    """State 0 reaches every state and every state reaches 0 along positive weights."""
    edge = k.weights > 0.0
    fwd = bwd = np.arange(k.grid.n_states) == 0
    while True:
        nxt_fwd = fwd | (np.bincount(k.targets[edge & fwd[:, np.newaxis]], minlength=fwd.size) > 0)
        nxt_bwd = bwd | np.any(edge & bwd[k.targets], axis=1)
        if np.array_equal(nxt_fwd, fwd) and np.array_equal(nxt_bwd, bwd):
            return bool(np.all(fwd) and np.all(bwd))
        fwd, bwd = nxt_fwd, nxt_bwd


def coalesce_two_point(k1: TransitionKernel) -> TransitionKernel:
    """One-step-kernel analog of the coalescing concatenation on a single leaf.

    Off-diagonal states move as the independent product of k1 with itself;
    any mass landing on the diagonal is absorbed there, since diagonal states
    move as the 1-point chain mapped to the diagonal.  Before absorption the
    off-diagonal dynamics therefore equals the independent 2-point motion.
    """
    if not isinstance(k1.grid, LeafGrid):
        raise ValueError("k1 must live on a LeafGrid")
    if len(k1.grid.leaves) != 1:
        raise ValueError("the coalescing construction expects a single-leaf kernel")
    if not _is_irreducible(k1):
        warnings.warn("1-point kernel is not irreducible; coalescence may never occur")
    indep = independent_product_kernel(k1)
    targets, weights = indep.targets, indep.weights
    diag, width = indep.grid.diagonal_indices(), k1.targets.shape[1]
    # diagonal row (z, z): k1's row z mapped to the diagonal, zero-weight padded
    targets[diag] = diag[k1.targets[:, np.arange(width * width) % width]]
    weights[diag] = 0.0
    weights[diag, :width] = k1.weights
    return TransitionKernel(grid=indep.grid, t=k1.t, targets=targets, weights=weights)


def cyclic_walk_kernel(m: int, p_left: float, leaf=(1.0, 0.0), t: float = 1.0) -> TransitionKernel:
    """Cyclic nearest-neighbour walk on m sites (p left, 1-p right)."""
    if not 0.0 <= p_left <= 1.0:
        raise ValueError(f"p_left must be a probability: {p_left}")
    grid = LeafGrid(m=m, leaves=(tuple(leaf),))
    weights = np.tile([p_left, 1.0 - p_left], (m, 1))
    return TransitionKernel(grid=grid, t=t, targets=grid.rotated([-1, 1]), weights=weights)


def kernel_to_json(k: TransitionKernel) -> dict:
    base = k.grid if isinstance(k.grid, LeafGrid) else k.grid.base
    grid = {"kind": "leaf" if base is k.grid else "pair", "m": base.m, "leaves": [list(l) for l in base.leaves]}
    return {"grid": grid, "t": k.t, "targets": k.targets.tolist(), "weights": k.weights.tolist()}


def write_kernel_json(k: TransitionKernel, path) -> None:
    """Write json.dumps(kernel_to_json(k), separators=(",", ":")), byte for byte, encoding each
    distinct weight row once and reusing its text: a cylinder kernel's rows all carry one pair."""
    doc = kernel_to_json(k)
    rows, size = doc.pop("weights"), k.weights.shape[1] * k.weights.itemsize
    data = k.weights.tobytes()
    keys = [data[i : i + size] for i in range(0, len(data), size)]  # equal bytes, equal text
    texts = {key: json.dumps(row, separators=(",", ":")) for key, row in dict(zip(keys, rows)).items()}
    head = json.dumps(doc, separators=(",", ":"))[:-1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{head},"weights":[{",".join(map(texts.__getitem__, keys))}]}}')


def kernel_dump_name(t: float) -> str:
    """File name of the dump of the kernel at time t; times that share it would overwrite one dump."""
    return f"kernel_t{t:.6f}.json"


def defect_record(check: str, t: float, defect: float) -> dict:
    return {"check": check, "t": t, "defect": defect}


def defects_json(records: list[dict]) -> str:
    """json.dumps(records, indent=1) of defect records, byte for byte, without json's Python indent
    encoder: json's C encoder writes every check name and number, and no number holds ", "."""
    if not records:
        return "[]"
    names = {c: json.dumps(c) for c in {r["check"] for r in records}}
    numbers = json.dumps([x for r in records for x in (r["t"], r["defect"])])[1:-1].split(", ")
    rows = (f' {{\n  "check": {names[r["check"]]},\n  "t": {t},\n  "defect": {d}\n }}'
            for r, t, d in zip(records, numbers[::2], numbers[1::2]))
    return "[\n" + ",\n".join(rows) + "\n]"
