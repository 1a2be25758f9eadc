"""Every numerical threshold of qhspace, named once.

Each decision the library takes on floating-point data compares against one
of these names, and the modules import them from here, so a policy changes
in this file alone.  The module imports nothing and sits below every other
module of the package.

Three rules answer the same question, "is this entry or pairing zero?", in
three ways: :data:`CORNER_ZERO_TOL` is absolute, :data:`PROJECTIVE_TOL` is
relative through :func:`qhspace.geometry.projectively_close`, and
:data:`DEGENERACY_TOL` is scaled by the norms of the two lifts.  The
discreteness test reads the first, the elementary certificate the second
and the cross-ratio the third, so the two degenerate-branch paths can
disagree on one configuration.  Naming them apart lets one rule replace all
three.
"""

#: Two quaternions are similar: real parts and moduli each within this.
SCALAR_TOL = 1e-10

#: The adjoint spectrum splits into conjugate pairs: each mismatch at most
#: this times the adjoint's norm (at least 1).  Also the least pairing
#: tolerance classification asks for.
PAIRING_TOL = 1e-8

#: An eigenpair is accepted: ``|M v - v lam| <= EIGENPAIR_TOL * max(|v|, 1)``.
EIGENPAIR_TOL = 1e-8

#: Eigenvalue representatives this close form one class; also the
#: singular-value cut, relative to the largest, of an adjoint eigenspace.
CLUSTER_TOL = 1e-6

#: A matrix is admitted into Sp(n,1): ``g* J g - J`` has max-norm at most this.
ADMISSION_TOL = 1e-9

#: Normal-form parameters meet their constraints, and the unit eigenvalues
#: of ``make_loxodromic`` have modulus 1, to within this.
CONSTRAINT_TOL = 1e-10

#: A lift z is on the boundary: ``|<z, z>| <= POSITION_TOL |z|^2``.  A point
#: projects to infinity when its last coordinate is this small relative to
#: its largest.
POSITION_TOL = 1e-9

#: Two points agree: their lifts, each divided by its largest entry, differ
#: by at most this relative to the larger of them.
PROJECTIVE_TOL = 1e-9

#: An eigenvalue is unit: its modulus is within this of 1.
UNIT_MODULUS_TOL = 1e-7

#: The expanding and contracting moduli are reciprocal: their product is
#: within this times ``|lam_n|`` of 1.
RECIPROCAL_TOL = 1e-9

#: No conjugator is built when the fixed-point lifts pair below this modulus.
NULL_PAIRING_TOL = 1e-12

#: A Gram-Schmidt candidate for the unit block is kept only when its form
#: value exceeds this times its squared norm.
FORM_POSITIVITY_TOL = 1e-6

#: Admission tolerance of the diagonalizing conjugator.
CONJUGATOR_ADMISSION_TOL = 1e-8

#: A form pairing vanishes: its modulus is at most this times the product of
#: its lifts' norms.  Tight on purpose: degenerate cases go to the
#: fixed-point analysis, where a false negative is worse than a false
#: positive.
DEGENERACY_TOL = 1e-12

#: Least denominator of a corner-entry identity's relative error in
#: ``qhspace verify``.
ENTRY_IDENTITY_FLOOR = 1e-300

#: A conjugated corner entry is zero at or below this modulus.  Conjugated
#: elements are unit scale, so this sits at the admission noise level.
CORNER_ZERO_TOL = 1e-12

#: Unit-modulus margin for certifying the second generator as loxodromic in
#: the degenerate branches.  Conjugation splits a defective (parabolic)
#: spectrum by about the square root of the working precision, so the sharper
#: shared-fixed-point certificate needs a modulus that clears 1 by more; the
#: elementary verdict is valid either way.
LOXODROMY_MARGIN = 1e-6

#: The conjugated first generator is diagonal: off-diagonal max-norm at most
#: this.
DIAGONAL_TOL = 1e-8

#: Least admission tolerance of the conjugated second generator.
FRAME_ADMISSION_TOL = 1e-7

#: Added to the generators' residuals in :func:`frame_admission_tol`.
RESIDUAL_FLOOR = 1e-12

#: Relative slack and absolute floor of the per-step contraction bound.
BOUND_SLACK = 1e-6
BOUND_FLOOR = 1e-28

#: The orbit stops once its corner product is positive and below this.
ORBIT_UNDERFLOW = 1e-300

#: Admission tolerance of each pullback element f_k.
PULLBACK_ADMISSION_TOL = 1e-6

#: The pullback sequence has converged: its last off-diagonal blocks,
#: unitarity defect and corner-modulus errors are all at most this.
FK_CONVERGENCE_TOL = 1e-6


def compose_admission_tol(g_residual, h_residual):
    """Admission tolerance of a product, relaxed by its factors' residuals."""
    return ADMISSION_TOL + 10.0 * (g_residual + h_residual)


def frame_admission_tol(g_residual, h_residual):
    """Admission tolerance of the second generator in the first's diagonal frame."""
    return max(FRAME_ADMISSION_TOL, 100.0 * (g_residual + h_residual + RESIDUAL_FLOOR))


def orbit_admission_tol(residual, scale):
    """Admission tolerance of the next orbit element.

    Expanding orbits grow exponentially and the form residual scales with
    the squared norm, so the tolerance grows with the previous residual and
    with ``scale``, the next element's largest entry modulus (at least 1).
    """
    return max(100.0 * ADMISSION_TOL, 1e3 * residual) * scale**2
