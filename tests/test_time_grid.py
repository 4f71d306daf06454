"""The one time-grid rule: config accepts exactly the times the library accepts."""

import ast
import math
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import foliated_flows
from foliated_flows.cli import main as cli_main
from foliated_flows.config import ConfigError, parse_config
from foliated_flows.drivers import (
    _GRID_TOL,
    StreamKey,
    _grid_steps,
    _n_full_steps,
    _n_steps,
    sample_brownian,
    sample_jump_driver,
)
from foliated_flows.kernels import LeafGrid, build_cylinder_kernel

# relative offsets from a lattice point that reach ten tolerances either side
_DELTAS = st.floats(min_value=-10 * _GRID_TOL, max_value=10 * _GRID_TOL)


def _config_accepts(data: dict) -> bool:
    try:
        parse_config(data)
    except ConfigError:
        return False
    return True


def _kernel_accepts(m: int, t: float) -> bool:
    try:
        build_cylinder_kernel(LeafGrid(m=m, leaves=((1.0, 0.0),)), t)
    except ValueError:
        return False
    return True


def _grid_ends_at(horizon: float, dt: float) -> bool:
    """The Brownian driver on [0, horizon] has horizon as a grid time, and it is the grid's last."""
    try:
        driver = sample_brownian(StreamKey(0), horizon, dt)
        index = driver.grid_index(horizon)
    except ValueError:
        return False
    assert index == driver.n_steps == _n_steps(horizon, dt)
    return True


def test_grid_steps_returns_the_whole_number_of_steps_or_raises():
    assert _grid_steps(0.0, 0.1) == 0
    assert _grid_steps(0.3, 0.1) == 3  # 0.3 / 0.1 = 2.9999999999999996
    assert _grid_steps(3.0 + 0.9 * _GRID_TOL, 1.0) == _grid_steps(6.0 - 0.9 * _GRID_TOL, 2.0) == 3
    for t in (0.35, 3.0 + 1.1 * _GRID_TOL, math.inf, math.nan):
        with pytest.raises(ValueError, match="does not lie on the grid"):
            _grid_steps(t, 1.0)


@given(k=st.integers(0, 10_000), delta=st.floats(-0.9 * _GRID_TOL, 0.9 * _GRID_TOL))
def test_counts_agree_with_the_rule_on_the_grid(k, delta):
    # within the tolerance of k steps, the ceil and the floor both count k
    t = (k + delta) * 0.01
    if abs(t / 0.01 - k) <= _GRID_TOL:
        assert _grid_steps(t, 0.01) == _n_full_steps(t, 0.01) == k
        assert _n_steps(t, 0.01) == (k if t > 0.0 else 0)


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 64).map(lambda h: 2 * h), k=st.integers(0, 130), delta=_DELTAS)
@example(m=2, k=1, delta=2e-9 / math.pi)
@example(m=64, k=5, delta=5e-10 / (5 * 2.0 * math.pi / 64))
def test_config_accepts_a_kernel_time_iff_build_cylinder_kernel_does(m, k, delta):
    t = k * 2.0 * math.pi / m * (1.0 + delta)
    data = {"experiment": "kernel-check", "kernel_check": {"m": m, "times": [t]}}
    assert _config_accepts(data) == _kernel_accepts(m, t)


@pytest.mark.parametrize(
    "m, t, accepted",
    [
        (2, 3.1415926555897933, True),  # pi + 2e-9: 6.4e-10 of a step
        (64, 5 * 2.0 * math.pi / 64 + 5e-10, False),  # 5.1e-9 of a step
        (64, 5 * 2.0 * math.pi / 64 + 5e-11, True),
        (8, math.pi / 4.0 + 1e-6, False),
    ],
)
def test_edge_kernel_times_land_on_one_side_for_config_and_kernel(m, t, accepted):
    data = {"experiment": "kernel-check", "kernel_check": {"m": m, "times": [t]}}
    assert _config_accepts(data) is _kernel_accepts(m, t) is accepted


_STEPS = st.sampled_from([1e-3, 0.01, 0.1, 0.25, 0.3, 1.0, 2.5])


@settings(max_examples=200, deadline=None)
@given(dt=_STEPS, k=st.integers(0, 300), delta=_DELTAS,
       model=st.sampled_from([{"name": "torus-winding"}, {"name": "coalescing-circle"}]))
def test_config_accepts_a_simulate_horizon_iff_the_grid_ends_there(dt, k, delta, model):
    horizon = k * dt * (1.0 + delta)
    data = {"experiment": "simulate", "model": model, "simulate": {"horizon": horizon, "dt": dt}}
    assert _config_accepts(data) == _grid_ends_at(horizon, dt)


@settings(max_examples=200, deadline=None)
@given(dt=_STEPS, k=st.integers(0, 300), delta=_DELTAS)
def test_config_accepts_a_coalesce_horizon_iff_the_grid_ends_there(dt, k, delta):
    horizon = k * dt * (1.0 + delta)
    data = {"experiment": "coalesce", "coalesce": {"horizon": horizon, "dt": dt}}
    assert _config_accepts(data) == _grid_ends_at(horizon, dt)


@settings(max_examples=200, deadline=None)
@given(dt=_STEPS, k=st.integers(0, 2), delta=_DELTAS)
def test_config_accepts_a_cylinder_step_iff_the_driver_does(dt, k, delta):
    # the cylinder records at its jumps and at the horizon itself, so only dt <= horizon is asked
    horizon = k * dt * (1.0 + delta)
    data = {"experiment": "simulate", "simulate": {"horizon": horizon, "dt": dt}}
    try:
        sample_jump_driver(StreamKey(0), horizon, dt)
        driver_accepts = True
    except ValueError:
        driver_accepts = False
    assert _config_accepts(data) == driver_accepts


def test_kernel_check_at_an_edge_time_is_never_a_runtime_error(tmp_path):
    # pi + 2e-9 at m = 2 passed config and then failed in build_cylinder_kernel
    data = {"experiment": "kernel-check", "output_dir": str(tmp_path / "out"),
            "kernel_check": {"m": 2, "times": [3.1415926555897933]}}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(data))
    assert cli_main(["kernel-check", "--config", str(path), "--quiet"]) in (0, 2)


def _module_tolerances(path: Path) -> dict:
    """Module-level names ending in _TOL bound to a number, with their values."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.AnnAssign):
            node = ast.Assign(targets=[node.target], value=node.value)
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id.endswith("_TOL") and node.value is not None:
                try:
                    found[target.id] = ast.literal_eval(node.value)
                except ValueError:
                    found[target.id] = None
    return found


def test_only_drivers_defines_the_time_tolerance():
    # every time-grid decision asks drivers; a second 1e-9 tolerance is a second rule
    src = Path(foliated_flows.__file__).parent
    modules = {path.stem: _module_tolerances(path) for path in sorted(src.glob("*.py"))}
    assert modules["drivers"] == {"_GRID_TOL": 1e-9}
    copies = [f"{stem}.{name}" for stem, tols in modules.items() if stem != "drivers"
              for name, value in tols.items() if value == 1e-9]
    assert copies == []
