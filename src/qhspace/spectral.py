"""Dynamical classification of group elements and loxodromic invariants.

An element is loxodromic when it fixes exactly two boundary points, elliptic
when it fixes an interior point, and parabolic otherwise.  Interior fixed
points are detected by restricting the ambient Hermitian form to adjoint
eigenspaces: the form value of a quaternionic vector equals the value of the
induced complex form ``diag(J, J)`` on its adjoint image, so a negative
eigenvalue of the restricted Gram matrix certifies an interior fixed point.

For a loxodromic element the spectrum splits into n-1 unit-modulus classes
plus one expanding/contracting pair (lam_n, lam_n1) with
``|lam_n| * |lam_n1| = 1``.  The conjugacy invariants are

    delta = max_i |lam_i - 1|     over the unit classes (0 when n = 1),
    mg    = 2*delta + |lam_n - 1| + |lam_n1 - 1|,

both well defined because |lam - 1| depends only on (Re lam, |lam|).

Loxodromy is decided once, by :func:`_fixed_point_data`, for every consumer.
It reads the kept spectrum's classes, as ``qmatrix`` decided them and their
order: the moduli of their candidate values (the values ``right_eigenpairs``
returns), so an element without one expanding and one contracting class is
refused before any eigenvector residual is checked.  Then the eigenvectors u
(expanding class) and v (contracting class) become a frozen ``(2, n+1, 1)``
stack, and ``<u,u>``, ``<v,v>`` and ``<v,u>`` are slices of one stacked
pairing product (``crossratio._cross_ratio_parts``).  ``<v,u>`` must clear
``LOXODROMY_MARGIN``, which the two candidates of a parabolic class that
``eig`` split do not; the boundary check reads the other two.  Every consumer
takes the stack and the certified ``<v,u>`` as they are.  g's diagonal frame
is defined here once: its null columns are ``LoxodromicData.null_pair``
[u, v'] with ``<v',u> = -1``, on which the test reads h's corners; only the
orbit's frame builds the conjugator C that makes g diagonal.  C's unit
columns come from the same cached ``eig``: a cluster of unit classes takes
its classes' pair members (the SVD of ``eigenspace_basis`` serves
``classify`` alone).  C is retracted and admitted, or its typed error raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import ClassificationError, NumericError
from .crossratio import _cross_ratio_parts, _pairing_table
from .geometry import ProjectivePoint
from .qmatrix import (
    QMatrix,
    _adjoint_spectrum,
    _eigen_candidates,
    eigenspace_basis,
    right_eigenpairs,
    right_eigenvalues,
)
from .quaternion import Quaternion
from .spn1 import SpElement, form_matrix, herm_form, is_member, retract
from .tolerances import (
    CLUSTER_TOL,
    FORM_POSITIVITY_TOL,
    LOXODROMY_MARGIN,
    POSITION_TOL,
    RECIPROCAL_TOL,
    UNIT_MODULUS_TOL,
)


class ElementKind(Enum):
    IDENTITY = "Identity"
    ELLIPTIC = "Elliptic"
    PARABOLIC = "Parabolic"
    LOXODROMIC = "Loxodromic"


@dataclass(frozen=True)
class Classification:
    """Outcome of :func:`classify`; ``fixed_points`` certifies a loxodromic one.

    ``boundary_classes`` counts the classes whose eigenspace meets the closed
    ball: 0 for the identity, 2 for a loxodromic element and otherwise 1, since
    eigenvectors of non-similar unit classes are J-orthogonal.
    """

    kind: ElementKind
    eigen_moduli: tuple
    boundary_classes: int
    fixed_points: LoxodromicData | None = field(default=None, compare=False)


def _cluster(reps, positions):
    """Group class positions, ordered by representative (real, imag), into
    clusters whose representatives lie within ``CLUSTER_TOL`` of their neighbours."""
    clusters = []
    for i in sorted(positions, key=lambda i: (reps[i].real, reps[i].imag)):
        if clusters and abs(reps[i] - reps[clusters[-1][-1]]) <= CLUSTER_TOL:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def classify(g: SpElement) -> Classification:
    """Sort an element into identity / elliptic / parabolic / loxodromic.

    Loxodromic is :func:`_fixed_point_data`'s decision; an element it refuses is
    elliptic at the first cluster whose eigenspace holds a negative vector, else
    parabolic.  -I acts as I does: the isometry group is Sp(n,1)/{I, -I}.
    """
    eye = QMatrix.identity(g.n + 1)
    reps = right_eigenvalues(g.m)
    moduli = tuple(abs(lam) for lam in reps)
    if min((g.m - eye).norm_max(), (g.m + eye).norm_max()) <= UNIT_MODULUS_TOL:
        return Classification(ElementKind.IDENTITY, moduli, 0)
    try:
        return Classification(ElementKind.LOXODROMIC, moduli, 2, _fixed_point_data(g))
    except ClassificationError:
        pass
    k_form = form_matrix(g.n).adjoint()
    for cluster in _cluster(reps, range(len(reps))):
        lam_hat = sum(reps[i] for i in cluster) / len(cluster)
        basis = eigenspace_basis(g.m, lam_hat)
        if basis.shape[1] == 0:
            raise NumericError(f"empty eigenspace for representative {lam_hat}")
        # The ambient form restricted to the eigenspace, and its least eigenvalue.
        gram = basis.conj().T @ k_form @ basis
        if np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[0] < -UNIT_MODULUS_TOL:
            return Classification(ElementKind.ELLIPTIC, moduli, 1)
    return Classification(ElementKind.PARABOLIC, moduli, 1)


@dataclass(frozen=True)
class LoxodromicData:
    """Spectral data of a loxodromic element.

    ``lifts`` is the frozen ``(2, n+1, 1)`` stack of the certified distinct
    boundary fixed points, the attracting u (an eigenvector of the expanding
    class) over the repelling v (of the contracting class), and ``norms``
    their norms.  ``unit_classes`` are the unit classes' positions in g's kept
    spectrum, ``unit_eigs`` their candidate values.  ``vu_pairing`` is
    ``<v, u>``, the pairing that certifies them distinct, and ``null_pair``
    the frame's null columns.  ``conjugator``, whose inverse conjugates g onto
    the diagonal form, is always built by :func:`loxodromic_data` (which
    raises when it cannot be) and left None by :func:`_fixed_point_data`.
    """

    unit_classes: tuple
    unit_eigs: tuple
    lam_n: complex
    lam_n1: complex
    lifts: QMatrix
    norms: np.ndarray
    delta: float
    mg: float
    conjugator: SpElement | None
    vu_pairing: Quaternion

    # The fixed points as ProjectivePoints, built each time they are read.
    attracting = property(lambda self: ProjectivePoint(_lift(self.lifts, 0)))
    repelling = property(lambda self: ProjectivePoint(_lift(self.lifts, 1)))

    @property
    def null_pair(self) -> QMatrix:
        """The frame's null columns, the stack [u, v'] with v' = -v <v, u>^-1 (so <v', u> = -1)."""
        return QMatrix.stack([_lift(self.lifts, 0), _lift(self.lifts, 1).scale_right(-self.vu_pairing.inverse())])


def _lift(lifts: QMatrix, k) -> QMatrix:
    """Lift k of a stack, a view of its storage; any index of the leading axis
    (a slice, or None to add an axis) gives the matching view of a stack."""
    return QMatrix._owning(lifts.ca[k], lifts.cb[k])


def invariants_from_eigs(unit_eigs, lam_n, lam_n1):
    """(delta, mg) from eigenvalue class representatives."""
    delta = max((abs(lam - 1.0) for lam in unit_eigs), default=0.0)
    mg = 2.0 * delta + abs(lam_n - 1.0) + abs(lam_n1 - 1.0)
    return delta, mg


def _unit_block_columns(g: SpElement, unit_classes):
    """J-orthonormal eigenvector columns spanning the unit-modulus part.

    The candidates of a cluster of ``unit_classes`` (positions in g's kept
    spectrum) are its classes' two pair members in index order, as ``eig``
    gave them and :func:`right_eigenpairs` checked them.
    Within one eigenvalue class the form values between eigenvectors are
    complex numbers, so Gram-Schmidt with quaternionic coefficients keeps every
    accepted column an eigenvector; of a k-fold cluster's 2k candidates it keeps k.
    """
    spectrum, vecs = _eigen_candidates(g.m)
    accepted = []
    for cluster in _cluster(spectrum.reps, unit_classes):
        wanted = len(accepted) + len(cluster)
        for i in sorted(k for c in cluster for k in (spectrum.candidates[c], spectrum.partners[c])):
            if len(accepted) == wanted:
                break
            vec = QMatrix._owning(vecs.ca[i], vecs.cb[i])
            norm_sq = vec.norm_fro() ** 2
            for w in accepted:
                vec = vec - w.scale_right(herm_form(vec, w))
            value = herm_form(vec, vec).re()
            if value <= FORM_POSITIVITY_TOL * norm_sq:
                continue
            accepted.append(vec.scale_right(1.0 / np.sqrt(value)))
        if len(accepted) != wanted:
            raise NumericError(f"could not span the unit eigenvalue class at {spectrum.reps[cluster[0]]}")
    return accepted


def _build_conjugator(g: SpElement, data: LoxodromicData) -> SpElement:
    """Assemble C in the group with C^-1 g C diagonal, or raise why not.

    Its null columns are ``data.null_pair`` [u, v'] balanced to (u t, v' / t),
    ``t = (|v'| / |u|)^(1/2)``.
    """
    columns = _unit_block_columns(g, data.unit_classes)
    null = data.null_pair
    u_vec, v_vec = _lift(null, 0), _lift(null, 1)
    t = math.sqrt(v_vec.norm_fro() / u_vec.norm_fro())
    return is_member(retract(QMatrix.from_blocks([columns + [u_vec.scale_right(t), v_vec.scale_right(1.0 / t)]])))


#: u, v, u, v as z1, z2, w1, w2: the pairings <u,u>, <v,u>, <v,v> and <u,v>.
_FIXED_POINT_PAIRINGS = _pairing_table((0, 1, 0, 1))


def _fixed_point_data(g: SpElement) -> LoxodromicData:
    """The one loxodromy decision: :func:`loxodromic_data` without the conjugator.

    The expanding/contracting split is read from the moduli of the kept
    classes' candidate values, in :func:`right_eigenpairs`' order, so a
    non-loxodromic g is refused before any eigenvector residual is checked.
    Then u and v must pair above ``LOXODROMY_MARGIN``, relative to their norms.
    """
    spectrum = _adjoint_spectrum(g.m)
    moduli = [abs(spectrum.values[i]) for i in spectrum.candidates]
    big = [i for i, m in enumerate(moduli) if m > 1.0 + UNIT_MODULUS_TOL]
    small = [i for i, m in enumerate(moduli) if m < 1.0 - UNIT_MODULUS_TOL]
    if len(big) != 1 or len(small) != 1:
        raise ClassificationError(
            "element is not loxodromic: expected exactly one expanding and one "
            f"contracting eigenvalue class, got moduli {moduli}"
        )
    pairs = right_eigenpairs(g.m)
    lam_n, u_vec, _ = pairs[big[0]]
    lam_n1, v_vec, _ = pairs[small[0]]
    lifts = QMatrix.stack([u_vec, v_vec]).freeze()
    norms = lifts.norm_fro()
    pairings, pair_moduli, _ = _cross_ratio_parts(lifts, _FIXED_POINT_PAIRINGS, norms)
    relative = float(pair_moduli[1] / (norms[0] * norms[1]))
    if relative <= LOXODROMY_MARGIN:
        raise ClassificationError(
            f"element is not loxodromic: its candidate fixed points pair to {relative:.3e} "
            f"relative to their norms, at or below the cut {LOXODROMY_MARGIN:.0e}"
        )
    if abs(abs(lam_n) * abs(lam_n1) - 1.0) > RECIPROCAL_TOL * abs(lam_n):
        raise NumericError(
            "expanding/contracting moduli are not reciprocal",
            residual=abs(abs(lam_n) * abs(lam_n1) - 1.0),
        )
    if not (np.abs(pairings.ca[::2, 0, 0].real) <= POSITION_TOL * np.float_power(norms, 2.0)).all():
        raise NumericError("fixed points did not land on the boundary")
    # Every other class is within UNIT_MODULUS_TOL of the unit circle: the split says so.
    unit_classes = tuple(i for i in range(len(pairs)) if i not in (big[0], small[0]))
    unit_reps = tuple(pairs[i][0] for i in unit_classes)
    delta, mg = invariants_from_eigs(unit_reps, lam_n, lam_n1)
    vu_pairing = Quaternion.from_complex_pair(pairings.ca[1, 0, 0], pairings.cb[1, 0, 0])
    return LoxodromicData(unit_classes, unit_reps, lam_n, lam_n1, lifts, norms, delta, mg, None, vu_pairing)


def loxodromic_data(g: SpElement) -> LoxodromicData:
    """Extract eigenvalue classes, fixed points and invariants of a loxodromic g.

    Raises :class:`ClassificationError` unless the spectrum splits into n-1
    unit-modulus classes plus one expanding and one contracting class whose
    eigenvectors pair above ``LOXODROMY_MARGIN``, :class:`NumericError` when
    eigenvector residuals, boundary fixed points or a unit class's columns
    cannot be certified, and :class:`MembershipError` when the conjugator is
    not admitted.  Only the diagonal frame calls it; other callers read the
    same data without the conjugator.
    """
    data = _fixed_point_data(g)
    return replace(data, conjugator=_build_conjugator(g, data))


def spectral_report(g: SpElement) -> dict:
    """JSON-ready classification report for one element."""
    cls = classify(g)
    report = {"kind": cls.kind.value, "delta": None, "mg": None, "u": None, "v": None,
              "eigs": [[lam.real, lam.imag] for lam in right_eigenvalues(g.m)],
              "boundary_classes": cls.boundary_classes}
    if (data := cls.fixed_points) is not None:
        u, v = ({"lift": lift[:, 0].tolist()} for lift in data.lifts.components)
        report.update(delta=data.delta, mg=data.mg, u=u, v=v)
    return report
