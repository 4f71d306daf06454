"""Kernel constructors that only the tests use: dense matrices in, grid indices out."""

import numpy as np

from foliated_flows.kernels import LeafGrid, PairGrid, TransitionKernel


def from_dense(grid: LeafGrid | PairGrid, t: float, matrix) -> TransitionKernel:
    """The kernel of a dense row-stochastic matrix: its nonzero entries, in column order."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (grid.n_states, grid.n_states):
        raise ValueError(f"matrix shape {matrix.shape} != grid size {grid.n_states}")
    width = max(1, int(np.count_nonzero(matrix, axis=1).max()))  # nonzeros first, in column order
    targets = np.argsort(matrix == 0.0, axis=1, kind="stable")[:, :width]
    return TransitionKernel(grid=grid, t=t, targets=targets, weights=np.take_along_axis(matrix, targets, axis=1))


def site_index(grid: LeafGrid, leaf_i: int, site: int) -> int:
    """The state index of a site of a leaf, the site taken mod m."""
    return leaf_i * grid.m + site % grid.m
