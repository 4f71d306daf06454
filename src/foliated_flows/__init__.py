"""Simulation and verification lab for foliated stochastic flows."""

__version__ = "0.1.0"
