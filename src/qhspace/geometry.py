"""The projective model of quaternionic hyperbolic n-space.

Points are right-projective classes of nonzero vectors in the (n+1)-space
carrying the signature-(n,1) form.  The sign of the (real) self-product
``<z, z>`` sorts lifts into the interior (negative cone), the boundary
(null cone) and the outside; right projection sends a lift to Siegel-domain
coordinates ``(z_1 z_{n+1}^-1, ..., z_n z_{n+1}^-1)``.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import ShapeMismatchError
from .qmatrix import QMatrix
from .quaternion import Quaternion
from .spn1 import SpElement, herm_form
from .tolerances import POSITION_TOL, PROJECTIVE_TOL


class Position(Enum):
    INTERIOR = "Interior"
    BOUNDARY = "Boundary"
    OUTSIDE = "Outside"


class _InfinityMarker:
    """Sentinel for the distinguished point at infinity of the Siegel domain."""

    def __repr__(self):
        return "POINT_AT_INFINITY"


POINT_AT_INFINITY = _InfinityMarker()


class ProjectivePoint:
    """A projective class [z], tagged with its position relative to the cone."""

    __slots__ = ("lift", "n", "position", "self_product")

    def __init__(self, lift: QMatrix):
        if lift.cols != 1 or lift.rows < 2:
            raise ShapeMismatchError("a lift is a column vector of length n+1 >= 2")
        norm_sq = lift.norm_fro() ** 2
        if norm_sq == 0.0:
            raise ValueError("a lift must be nonzero")
        self.lift = lift.copy().freeze()
        self.n = lift.rows - 1
        self.self_product = herm_form(lift, lift)
        value = self.self_product.re()
        if abs(value) <= POSITION_TOL * norm_sq:
            self.position = Position.BOUNDARY
        elif value < 0:
            self.position = Position.INTERIOR
        else:
            self.position = Position.OUTSIDE

    def rescaled(self, q: Quaternion) -> "ProjectivePoint":
        """The same point with the lift right-multiplied by nonzero q."""
        if q.modulus_sq() == 0.0:
            raise ValueError("rescaling requires a nonzero quaternion")
        return ProjectivePoint(self.lift.scale_right(q))

    def __repr__(self):
        return f"ProjectivePoint(n={self.n}, {self.position.value})"

    def to_json_dict(self):
        return {"lift": self.lift.components[:, 0].tolist()}

    @classmethod
    def from_json_dict(cls, data):
        quats = [Quaternion.from_json(entry) for entry in data["lift"]]
        return cls(QMatrix.column(quats))


def from_lift(values) -> ProjectivePoint:
    """Build a point from a sequence of Quaternion (or real) coordinates."""
    quats = [v if isinstance(v, Quaternion) else Quaternion(v) for v in values]
    return ProjectivePoint(QMatrix.column(quats))


def q_zero(n: int) -> ProjectivePoint:
    """The boundary point with lift (0, ..., 0, 1)."""
    return from_lift([0.0] * n + [1.0])


def q_infinity(n: int) -> ProjectivePoint:
    """The boundary point with lift (0, ..., 0, 1, 0)."""
    return from_lift([0.0] * (n - 1) + [1.0, 0.0])


def project(p: ProjectivePoint):
    """Siegel-domain coordinates of a point, or the infinity marker.

    Right division by the last lift coordinate makes the result independent
    of the choice of lift.  Points outside the closed domain are rejected.
    """
    if p.position is Position.OUTSIDE:
        raise ValueError("cannot project a lift outside the closed domain")
    last = p.lift[p.n, 0]
    scale = p.lift.entry_moduli().max()
    if last.modulus() <= POSITION_TOL * scale:
        return POINT_AT_INFINITY
    inv = last.inverse()
    return tuple(p.lift[i, 0] * inv for i in range(p.n))


def bergman_distance(p: ProjectivePoint, q: ProjectivePoint) -> float:
    """Distance in the Bergman metric between two interior points.

    Computed from ``cosh^2(rho/2) = <z,w><w,z> / (<z,z><w,w>)``, which is
    independent of the choice of lifts.
    """
    if p.position is not Position.INTERIOR or q.position is not Position.INTERIOR:
        raise ValueError("the distance is defined for interior points only")
    cross = herm_form(p.lift, q.lift)
    denom = p.self_product.re() * q.self_product.re()
    cosh_sq = cross.modulus_sq() / denom
    # Guard the p == q case against rounding slightly below 1.
    cosh_half = math.sqrt(max(cosh_sq, 1.0))
    return 2.0 * math.acosh(cosh_half)


def apply(g: SpElement, p: ProjectivePoint) -> ProjectivePoint:
    """Act on a point by matrix multiplication of its lift."""
    if g.n != p.n:
        raise ShapeMismatchError("element and point live in different dimensions")
    return ProjectivePoint(g.m @ p.lift)


def projectively_close(p: ProjectivePoint, q: ProjectivePoint, tol=PROJECTIVE_TOL) -> bool:
    """Whether two points agree projectively (cross-scaling residual test).

    Both lifts are right-normalized by their entry of largest modulus; the
    points agree when the normalized lifts differ by at most ``tol``.
    """
    if p.n != q.n:
        return False
    mod_p = p.lift.entry_moduli()[:, 0]
    mod_q = q.lift.entry_moduli()[:, 0]
    pivot = int(mod_p.argmax())
    if mod_q[pivot] <= tol * mod_q.max():
        return False
    zp = p.lift.scale_right(p.lift[pivot, 0].inverse())
    zq = q.lift.scale_right(q.lift[pivot, 0].inverse())
    return (zp - zq).norm_max() <= tol * max(1.0, zp.norm_max(), zq.norm_max())
