"""Foliated model geometry: points, models, leaf defects, the perturbing field.

Three concrete foliated spaces are supported:

* ``torus-winding`` -- the flat 2-torus R^2/Z^2 foliated by winding lines in a
  fixed unit direction.  With an irrational slope every leaf is dense, so leaf
  membership is only meaningful on the universal cover; points therefore carry
  their cover lift.
* ``rotation-jump-cylinder`` -- R^3 minus the z-axis, foliated by horizontal
  circles.  Cylindrical coordinates (theta, r, z) give one global chart; the
  vertical (transversal) coordinate is (r, z), a point's ``leaf``.
* ``coalescing-circle`` -- the same circle foliation, carrying independent
  leafwise Brownian motions that may coalesce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Default dense winding direction: slope = golden ratio (irrational).
GOLDEN_SLOPE = (1.0 + math.sqrt(5.0)) / 2.0

_COORD_TOL = 1e-12


class UnsupportedModel(ValueError):
    """Operation not defined for the given foliated model."""


def wrap_unit(x: float) -> float:
    """Reduce to [0, 1)."""
    return x - math.floor(x)


def wrap_angle(theta: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    theta = math.fmod(theta, TWO_PI)
    return theta + TWO_PI if theta < 0.0 else theta


@dataclass(frozen=True)
class TorusPoint:
    """Point on the flat 2-torus, carrying its universal-cover lift.

    ``(a, b)`` are the displayed coordinates in [0,1)^2 and must equal the
    lift reduced mod 1 componentwise (within 1e-12).
    """

    a: float
    b: float
    lift: tuple[float, float]

    def __post_init__(self) -> None:
        if not (0.0 <= self.a < 1.0 and 0.0 <= self.b < 1.0):
            raise ValueError(f"torus coordinates must lie in [0,1): ({self.a}, {self.b})")
        la, lb = self.lift
        if abs(wrap_unit(la) - self.a) > _COORD_TOL or abs(wrap_unit(lb) - self.b) > _COORD_TOL:
            raise ValueError("torus coordinates do not match lift mod 1")

    @classmethod
    def from_lift(cls, lift: tuple[float, float]) -> "TorusPoint":
        la, lb = float(lift[0]), float(lift[1])
        return cls(a=wrap_unit(la), b=wrap_unit(lb), lift=(la, lb))

    @classmethod
    def from_coords(cls, a: float, b: float) -> "TorusPoint":
        a, b = wrap_unit(float(a)), wrap_unit(float(b))
        return cls(a=a, b=b, lift=(a, b))


@dataclass(frozen=True)
class CylPoint:
    """Point of R^3 minus the z-axis in cylindrical coordinates.

    theta lies in [0, 2*pi), r > 0.  The leaf through the point is the
    horizontal circle {(r cos u, r sin u, z)}.
    """

    theta: float
    r: float
    z: float

    def __post_init__(self) -> None:
        if not self.r > 0.0:
            raise ValueError(f"r must be positive (the z-axis is excluded): r={self.r}")
        if not (0.0 <= self.theta < TWO_PI):
            raise ValueError(f"theta must lie in [0, 2*pi): {self.theta}")

    @classmethod
    def from_angle(cls, theta: float, r: float, z: float) -> "CylPoint":
        return cls(theta=wrap_angle(float(theta)), r=float(r), z=float(z))

    @property
    def leaf(self) -> tuple[float, float]:
        """The (r, z) label of the circle leaf through this point."""
        return (self.r, self.z)


@dataclass(frozen=True)
class VerticalRegion:
    """Rectangle in the vertical space V = {(r, z) : r > 0} used by experiments."""

    r_min: float = 0.5
    r_max: float = 5.0
    z_min: float = -5.0
    z_max: float = 5.0

    def __post_init__(self) -> None:
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError("vertical region needs 0 < r_min < r_max")
        if not self.z_min < self.z_max:
            raise ValueError("vertical region needs z_min < z_max")

    def contains(self, v) -> bool:
        r, z = float(v[0]), float(v[1])
        return self.r_min < r < self.r_max and self.z_min < z < self.z_max


@dataclass(frozen=True)
class TorusWinding:
    """Winding-line foliation of the torus; direction must be a unit vector."""

    v: tuple[float, float]
    name = "torus-winding"

    def __post_init__(self) -> None:
        norm = math.hypot(*self.v)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"winding direction must be unit length, |v|={norm}")

    @classmethod
    def dense_default(cls) -> "TorusWinding":
        norm = math.hypot(1.0, GOLDEN_SLOPE)
        return cls(v=(1.0 / norm, GOLDEN_SLOPE / norm))

    @property
    def v_perp(self) -> tuple[float, float]:
        return (-self.v[1], self.v[0])


@dataclass(frozen=True)
class RotationJumpCylinder:
    """Circle foliation driven leafwise by unit rotation plus rate-1 antipodal jumps."""

    name = "rotation-jump-cylinder"


@dataclass(frozen=True)
class CoalescingCircle:
    """Circle foliation carrying independent leafwise Brownian motions (diffusivity sigma^2)."""

    sigma: float = 1.0
    name = "coalescing-circle"

    def __post_init__(self) -> None:
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive: {self.sigma}")


FoliatedModel = TorusWinding | RotationJumpCylinder | CoalescingCircle

MODEL_NAMES = ("torus-winding", "rotation-jump-cylinder", "coalescing-circle")


def make_model(name: str, **params) -> FoliatedModel:
    """Build a model from its config-catalog name."""
    if name == "torus-winding":
        if "v" in params:
            v = params.pop("v")
            raw = TorusWinding(v=(float(v[0]), float(v[1])))
        else:
            raw = TorusWinding.dense_default()
        if params:
            raise ValueError(f"unknown torus-winding parameters: {sorted(params)}")
        return raw
    if name == "rotation-jump-cylinder":
        if params:
            raise ValueError(f"rotation-jump-cylinder takes no parameters, got: {sorted(params)}")
        return RotationJumpCylinder()
    if name == "coalescing-circle":
        sigma = float(params.pop("sigma", 1.0))
        if params:
            raise ValueError(f"unknown coalescing-circle parameters: {sorted(params)}")
        return CoalescingCircle(sigma=sigma)
    raise ValueError(f"unknown model {name!r}; valid names: {MODEL_NAMES}")


def _leaf_defects(model: FoliatedModel, start, coords: np.ndarray) -> np.ndarray:
    """Distance of each row of coords from start's leaf: |<lift - lift(start), v_perp>| for
    torus cover lifts, the Euclidean distance from start's (r, z) for cylinder (r, z) rows."""
    if isinstance(model, TorusWinding):
        return np.abs((coords - np.array(start.lift)) @ np.array(model.v_perp))
    return np.hypot(coords[:, 0] - start.r, coords[:, 1] - start.z)


_K3_FUNCS = {
    "zero": lambda z: np.zeros_like(np.asarray(z, dtype=float)) if np.ndim(z) else 0.0,
    "negate": lambda z: -z,
    "sine": np.sin,
}

# Global Lipschitz constants of the catalog k3 choices.
_K3_LIPSCHITZ = {"zero": 0.0, "negate": 1.0, "sine": 1.0}
K3_CHOICES = tuple(_K3_FUNCS)
ANGULAR_CHOICES = ("none", "cosine")


@dataclass(frozen=True)
class PerturbationField:
    """Transversal perturbing field K = (0, lambda0 [+ cos theta], k3(z)).

    ``angular = "cosine"`` adds a bounded angular modulation cos(theta) to the
    radial component; ``k3`` names a globally Lipschitz catalog function.
    """

    lambda0: float = 0.0
    k3: str = "zero"
    angular: str = "none"

    def __post_init__(self) -> None:
        if self.k3 not in K3_CHOICES:
            raise ValueError(f"unknown k3 choice {self.k3!r}; catalog: {sorted(K3_CHOICES)}")
        if self.angular not in ANGULAR_CHOICES:
            raise ValueError(f"unknown angular choice {self.angular!r}; catalog: none, cosine")

    @property
    def has_angular(self) -> bool:
        return self.angular == "cosine"

    def vertical_rate(self, z):
        """dpi_2(K) = k3(z)."""
        return _K3_FUNCS[self.k3](z)

    def vertical_flow(self, z0: float, s):
        """Closed-form solution at time s of z' = k3(z), z(0) = z0.

        For sine, tan(z/2) grows like e^s on the branch |z - 2 pi n| <= pi
        holding z0, so z tends to the nearest odd multiple of pi.
        """
        s = np.asarray(s, dtype=float)
        if self.k3 == "zero":
            return z0 + 0.0 * s
        if self.k3 == "negate":
            return z0 * np.exp(-s)
        n = round(z0 / TWO_PI)
        half = 0.5 * (z0 - TWO_PI * n)
        return 2.0 * np.arctan2(math.sin(half) * np.exp(s), math.cos(half)) + TWO_PI * n

    def k3_lipschitz(self) -> float:
        return _K3_LIPSCHITZ[self.k3]

    def sup_radial(self) -> float:
        """sup |dpi_1(K)| over the experiment region U."""
        return abs(self.lambda0) + (1.0 if self.has_angular else 0.0)

    def sup_vertical(self, region: VerticalRegion) -> float:
        """sup |dpi_2(K)| over the z-range of the region."""
        if self.k3 == "zero":
            return 0.0
        if self.k3 == "negate":
            return max(abs(region.z_min), abs(region.z_max))
        return 1.0  # sine

    def sup_norm(self, region: VerticalRegion) -> float:
        """sup |K| over U (the radial and vertical parts vary independently)."""
        return math.hypot(self.sup_radial(), self.sup_vertical(region))
