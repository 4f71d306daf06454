"""Replica fan-out in index order.

Replicas run serially, so every reduction downstream sees its operands in
index order and reports are reproducible bit-for-bit.  Only ``simulate``'s
replica loop goes through ``map_indexed``: ``coalescence_times`` loops
without it, and ``replica_poisson_jumps`` and ``coalescence_batch`` draw in
array passes.  It stays while the bench tracer times the fan-out by name.
"""

from __future__ import annotations


def map_indexed(fn, n: int) -> list:
    """[fn(0), ..., fn(n-1)]."""
    return [fn(i) for i in range(n)]
