"""Dynamical classification of group elements and loxodromic invariants.

An element is loxodromic when some right-eigenvalue class has modulus away
from 1 (equivalently it fixes exactly two boundary points), elliptic when it
fixes an interior point, and parabolic otherwise.  Interior fixed points are
detected by restricting the ambient Hermitian form to adjoint eigenspaces:
the form value of a quaternionic vector equals the value of the induced
complex form ``diag(J, J)`` on its adjoint image, so a negative eigenvalue of
the restricted Gram matrix certifies an interior fixed point.

For a loxodromic element the spectrum splits into n-1 unit-modulus classes
plus one expanding/contracting pair (lam_n, lam_n1) with
``|lam_n| * |lam_n1| = 1``.  The conjugacy invariants are

    delta = max_i |lam_i - 1|     over the unit classes (0 when n = 1),
    mg    = 2*delta + |lam_n - 1| + |lam_n1 - 1|,

both well defined because |lam - 1| depends only on (Re lam, |lam|).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ClassificationError, NumericError
from .geometry import Position, ProjectivePoint
from .qmatrix import QMatrix, eigenspace_basis, quaternion_vector_from_adjoint, right_eigenpairs, right_eigenvalues
from .quaternion import Quaternion
from .spn1 import SpElement, form_matrix, is_member
from .tolerances import (
    CLUSTER_TOL,
    CONJUGATOR_ADMISSION_TOL,
    FORM_POSITIVITY_TOL,
    NULL_PAIRING_TOL,
    PAIRING_TOL,
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
    """Outcome of :func:`classify` with its supporting evidence."""

    kind: ElementKind
    eigen_moduli: tuple
    boundary_classes: int
    low_confidence: bool = False


def _cluster(reps, radius):
    """Group sorted complex representatives into clusters of nearby values."""
    order = sorted(range(len(reps)), key=lambda i: (reps[i].real, reps[i].imag))
    clusters = []
    for idx in order:
        if clusters and abs(reps[idx] - clusters[-1][-1]) <= radius:
            clusters[-1].append(reps[idx])
        else:
            clusters.append([reps[idx]])
    return clusters


def _restricted_form_eigs(g: SpElement, lam, atol):
    """Eigenvalues of the ambient form restricted to an adjoint eigenspace."""
    basis = eigenspace_basis(g.m, lam, atol=atol)
    if basis.shape[1] == 0:
        raise NumericError(f"empty eigenspace for representative {lam}")
    k_form = form_matrix(g.n).adjoint()
    gram = basis.conj().T @ k_form @ basis
    gram = 0.5 * (gram + gram.conj().T)
    return np.linalg.eigvalsh(gram), basis


def classify(g: SpElement, tol=UNIT_MODULUS_TOL) -> Classification:
    """Sort an element into identity / elliptic / parabolic / loxodromic."""
    eye = QMatrix.identity(g.n + 1)
    reps = right_eigenvalues(g.m, tol=max(PAIRING_TOL, tol))
    moduli = tuple(abs(lam) for lam in reps)
    if (g.m - eye).norm_max() <= tol:
        return Classification(ElementKind.IDENTITY, moduli, 0)
    if max(moduli) > 1.0 + tol:
        return Classification(ElementKind.LOXODROMIC, moduli, 2)
    interior = False
    low_confidence = False
    boundary = 0
    for cluster in _cluster(reps, CLUSTER_TOL):
        lam_hat = sum(cluster) / len(cluster)
        eigs, _ = _restricted_form_eigs(g, lam_hat, atol=max(CLUSTER_TOL, tol))
        smallest = eigs[0]
        if smallest < -tol:
            # An indefinite restriction meets the null cone as well.
            interior = True
            boundary += 1
        elif smallest <= tol:
            boundary += 1
            if smallest < 0:
                low_confidence = True
        # A positive-definite restriction carries no fixed point in the
        # closed domain.
    if interior:
        return Classification(ElementKind.ELLIPTIC, moduli, boundary)
    return Classification(ElementKind.PARABOLIC, moduli, boundary, low_confidence)


@dataclass(frozen=True)
class LoxodromicData:
    """Spectral data of a loxodromic element.

    ``attracting`` / ``repelling`` are the two boundary fixed points (the
    eigenvectors of the expanding and contracting classes), and
    ``conjugator`` is a group element whose inverse conjugates g onto the
    diagonal form, or None when the numerical construction could not be
    validated (delta and mg need only the spectrum).
    """

    unit_eigs: tuple
    lam_n: complex
    lam_n1: complex
    attracting: ProjectivePoint
    repelling: ProjectivePoint
    delta: float
    mg: float
    conjugator: SpElement | None


def invariants_from_eigs(unit_eigs, lam_n, lam_n1):
    """(delta, mg) from eigenvalue class representatives."""
    delta = max((abs(lam - 1.0) for lam in unit_eigs), default=0.0)
    mg = 2.0 * delta + abs(lam_n - 1.0) + abs(lam_n1 - 1.0)
    return delta, mg


def _unit_block_columns(g: SpElement, unit_reps):
    """J-orthonormal eigenvector columns spanning the unit-modulus part.

    Within one eigenvalue class the form values between eigenvectors are
    complex numbers, so Gram-Schmidt with quaternionic coefficients keeps
    every accepted column an eigenvector for the class representative.
    """
    j_mat = form_matrix(g.n)
    accepted = []
    for cluster in _cluster(unit_reps, CLUSTER_TOL):
        lam_hat = sum(cluster) / len(cluster)
        basis = eigenspace_basis(g.m, lam_hat, atol=CLUSTER_TOL)
        candidates = [
            quaternion_vector_from_adjoint(basis[:, i]) for i in range(basis.shape[1])
        ]
        needed = len(cluster)
        found = 0
        for cand in candidates:
            if found == needed:
                break
            vec = cand
            for w in accepted:
                coef = (w.star() @ (j_mat @ vec))[0, 0]
                vec = vec - w.scale_right(coef)
            norm_sq = vec.norm_fro() ** 2
            if norm_sq == 0.0:
                continue
            value = (vec.star() @ (j_mat @ vec))[0, 0].re()
            if value <= FORM_POSITIVITY_TOL * norm_sq:
                continue
            accepted.append(vec.scale_right(1.0 / np.sqrt(value)))
            found += 1
        if found != needed:
            raise NumericError(
                f"could not span the unit eigenvalue class at {lam_hat}"
            )
    return accepted


def _build_conjugator(g: SpElement, unit_reps, u_vec, v_vec):
    """Assemble C in the group with C^-1 g C diagonal, or None on failure."""
    j_mat = form_matrix(g.n)
    pairing = (u_vec.star() @ (j_mat @ v_vec))[0, 0]
    if pairing.modulus() < NULL_PAIRING_TOL:
        return None
    v_scaled = v_vec.scale_right(-pairing.inverse())
    try:
        columns = _unit_block_columns(g, unit_reps)
    except NumericError:
        return None
    mat = QMatrix.from_blocks([columns + [u_vec, v_scaled]])
    try:
        conj = is_member(mat, tol=CONJUGATOR_ADMISSION_TOL)
    except Exception:
        return None
    return conj


def loxodromic_data(g: SpElement) -> LoxodromicData:
    """Extract eigenvalue classes, fixed points and invariants of a loxodromic g.

    Raises :class:`ClassificationError` unless the spectrum splits into n-1
    unit-modulus classes plus exactly one expanding and one contracting
    class, and :class:`NumericError` when eigenvector residuals or fixed-point
    positions cannot be certified.
    """
    pairs = right_eigenpairs(g.m, tol=UNIT_MODULUS_TOL)
    moduli = [abs(p[0]) for p in pairs]
    big = [i for i, m in enumerate(moduli) if m > 1.0 + UNIT_MODULUS_TOL]
    small = [i for i, m in enumerate(moduli) if m < 1.0 - UNIT_MODULUS_TOL]
    if len(big) != 1 or len(small) != 1:
        raise ClassificationError(
            "element is not loxodromic: expected exactly one expanding and one "
            f"contracting eigenvalue class, got moduli {moduli}"
        )
    lam_n, u_vec, _ = pairs[big[0]]
    lam_n1, v_vec, _ = pairs[small[0]]
    if abs(abs(lam_n) * abs(lam_n1) - 1.0) > RECIPROCAL_TOL * abs(lam_n):
        raise NumericError(
            "expanding/contracting moduli are not reciprocal",
            residual=abs(abs(lam_n) * abs(lam_n1) - 1.0),
        )
    unit_reps = [p[0] for i, p in enumerate(pairs) if i not in (big[0], small[0])]
    for lam in unit_reps:
        if abs(abs(lam) - 1.0) > UNIT_MODULUS_TOL:
            raise ClassificationError(f"unit block contains modulus {abs(lam)}")
    attracting = ProjectivePoint(u_vec)
    repelling = ProjectivePoint(v_vec)
    if attracting.position is not Position.BOUNDARY or repelling.position is not Position.BOUNDARY:
        raise NumericError("fixed points did not land on the boundary")
    delta, mg = invariants_from_eigs(unit_reps, lam_n, lam_n1)
    conjugator = _build_conjugator(g, unit_reps, u_vec, v_vec)
    return LoxodromicData(
        unit_eigs=tuple(unit_reps),
        lam_n=lam_n,
        lam_n1=lam_n1,
        attracting=attracting,
        repelling=repelling,
        delta=delta,
        mg=mg,
        conjugator=conjugator,
    )


def spectral_report(g: SpElement) -> dict:
    """JSON-ready classification report for one element."""
    cls = classify(g)
    report = {
        "kind": cls.kind.value,
        "eigs": [[lam.real, lam.imag] for lam in right_eigenvalues(g.m, tol=UNIT_MODULUS_TOL)],
        "delta": None,
        "mg": None,
        "u": None,
        "v": None,
        "boundary_classes": cls.boundary_classes,
        "low_confidence": cls.low_confidence,
    }
    if cls.kind is ElementKind.LOXODROMIC:
        data = loxodromic_data(g)
        report["delta"] = data.delta
        report["mg"] = data.mg
        report["u"] = data.attracting.to_json_dict()
        report["v"] = data.repelling.to_json_dict()
    return report
