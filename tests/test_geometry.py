import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from foliated_flows.geometry import (
    CylPoint,
    PerturbationField,
    RotationJumpCylinder,
    TorusPoint,
    TorusWinding,
    VerticalRegion,
    _leaf_defects,
    make_model,
)

TWO_PI = 2.0 * math.pi


def test_torus_point_from_lift_reduces_mod_one():
    p = TorusPoint.from_lift((2.25, -0.5))
    assert p.a == pytest.approx(0.25, abs=1e-15)
    assert p.b == pytest.approx(0.5, abs=1e-15)
    assert p.lift == (2.25, -0.5)


def test_torus_point_rejects_mismatched_lift():
    with pytest.raises(ValueError):
        TorusPoint(a=0.1, b=0.2, lift=(0.5, 0.2))


def test_cyl_point_rejects_axis():
    with pytest.raises(ValueError):
        CylPoint(theta=0.0, r=0.0, z=1.0)


def test_leaf_defect_torus_on_leaf_line():
    model = TorusWinding.dense_default()
    start = TorusPoint.from_coords(0.3, 0.8)
    lam = 3.7
    current = TorusPoint.from_lift(
        (start.lift[0] + lam * model.v[0], start.lift[1] + lam * model.v[1])
    )
    assert _leaf_defects(model, start, np.array([current.lift]))[0] < 1e-14


def test_leaf_defect_cylinder():
    model = RotationJumpCylinder()
    a = CylPoint(0.0, 1.0, 0.0)
    b = CylPoint(math.pi / 2.0, 1.0, 0.0)
    c = CylPoint(0.0, 2.0, 0.0)
    defects = _leaf_defects(model, a, np.array([b.leaf, c.leaf, a.leaf]))
    assert defects.tolist() == [0.0, 1.0, 0.0]  # same circle, radial distance, itself


@given(
    r1=st.floats(0.1, 10.0),
    z1=st.floats(-5.0, 5.0),
    r2=st.floats(0.1, 10.0),
    z2=st.floats(-5.0, 5.0),
    th1=st.floats(0.0, TWO_PI - 1e-9),
    th2=st.floats(0.0, TWO_PI - 1e-9),
)
def test_leaf_defect_symmetric_nonnegative(r1, z1, r2, z2, th1, th2):
    model = RotationJumpCylinder()
    a, b = CylPoint(th1, r1, z1), CylPoint(th2, r2, z2)
    ab = _leaf_defects(model, a, np.array([b.leaf]))[0]
    assert ab == _leaf_defects(model, b, np.array([a.leaf]))[0] >= 0.0


def test_dense_default_direction_is_golden_slope_unit_vector():
    model = TorusWinding.dense_default()
    assert math.hypot(*model.v) == pytest.approx(1.0, abs=1e-12)
    assert model.v[1] / model.v[0] == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, abs=1e-12)


def test_torus_winding_rejects_non_unit_direction():
    with pytest.raises(ValueError):
        TorusWinding(v=(1.0, 1.0))


def test_make_model_catalog():
    assert isinstance(make_model("torus-winding"), TorusWinding)
    assert isinstance(make_model("rotation-jump-cylinder"), RotationJumpCylinder)
    assert make_model("coalescing-circle", sigma=2.0).sigma == 2.0
    with pytest.raises(ValueError):
        make_model("torus-winding", slope=2.0)
    with pytest.raises(ValueError):
        make_model("moebius-band")
    with pytest.raises(ValueError):
        make_model("coalescing-circle", sigma=-1.0)


def test_vertical_region_contains_is_open():
    region = VerticalRegion()
    assert region.contains((1.0, 0.0))
    assert not region.contains((0.5, 0.0))
    assert not region.contains((1.0, 5.0))
    with pytest.raises(ValueError):
        VerticalRegion(r_min=-1.0)


def test_perturbation_field_catalog():
    k = PerturbationField(lambda0=1.5, k3="sine", angular="cosine")
    assert k.vertical_rate(math.pi / 2.0) == pytest.approx(1.0)
    assert k.k3_lipschitz() == 1.0

    region = VerticalRegion()
    assert k.sup_radial() == pytest.approx(2.5)
    assert k.sup_vertical(region) == 1.0
    assert k.sup_norm(region) == pytest.approx(math.hypot(2.5, 1.0))

    kz = PerturbationField(lambda0=-2.0, k3="negate", angular="none")
    assert kz.vertical_rate(3.0) == -3.0
    assert kz.sup_vertical(region) == 5.0

    with pytest.raises(ValueError):
        PerturbationField(k3="tanh")
    with pytest.raises(ValueError):
        PerturbationField(angular="sine")
