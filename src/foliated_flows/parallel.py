"""Replica fan-out in index order.

Replicas run serially, so every reduction downstream sees its operands in
index order and reports are reproducible bit-for-bit.  Every replica loop
goes through ``map_indexed``, which gives a tracer one name to time the
fan-out and each replica by.
"""

from __future__ import annotations


def map_indexed(fn, n: int) -> list:
    """[fn(0), ..., fn(n-1)]."""
    return [fn(i) for i in range(n)]
