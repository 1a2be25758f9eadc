"""Every numerical threshold of qhspace, named once.

Each decision the library takes on floating-point data compares against one
of these names, and the modules import them from here, so a policy changes
in this file alone.  The module imports nothing and sits below every other
module of the package.

One rule, :func:`pairing_vanishes`, answers "is this pairing zero?" for the
cross-ratio, the discreteness test and the elementary certificate:
``|<z, w>| <= DEGENERACY_TOL |z||w|``.  :data:`PROJECTIVE_TOL`
serves only the public :func:`qhspace.geometry.projectively_close`.

One rule, :func:`admission`, admits every matrix into Sp(n,1), and through
``spn1.is_member`` it decides for the sampler, products, the diagonal frame
and ``qhspace verify``.
"""

#: Two quaternions are similar: real parts and moduli each within this.
SCALAR_TOL = 1e-10

#: The eigen routines accept the adjoint spectrum: it splits into conjugate
#: pairs, each mismatch at most this times the adjoint's norm (at least 1),
#: and each eigenpair has ``|M v - v lam| <= EIGENPAIR_TOL * max(|v|, 1)``.
EIGENPAIR_TOL = 1e-7

#: Eigenvalue representatives this close join one cluster, for ``classify``'s
#: eigenspaces and the diagonal frame's unit columns; also ``classify``'s
#: singular-value cut, relative to the largest.
CLUSTER_TOL = 1e-6

#: The default factor c of :func:`admission`, which admits ``|g* J g - J|`` up
#: to ``c max(1, s)^2``, and its cut: membership is decided while this times
#: ``max(1, s)^2`` is below 1.
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

#: An eigenvalue is unit: its modulus is within this of 1.  Also ``classify``'s
#: cuts for the identity (max-norm distance from I or from -I, which acts as
#: I does) and for a negative form on an eigenspace (least eigenvalue below -this).
UNIT_MODULUS_TOL = 1e-7

#: The expanding and contracting moduli are reciprocal: their product is
#: within this times ``|lam_n|`` of 1.
RECIPROCAL_TOL = 1e-9

#: A Gram-Schmidt candidate for the unit block is kept only when its form
#: value, once projected, exceeds this times its squared norm as drawn.
FORM_POSITIVITY_TOL = 1e-6

#: A form pairing vanishes (:func:`pairing_vanishes`): its modulus is at most
#: this times the product of its lifts' norms.
DEGENERACY_TOL = 1e-8

#: Least denominator of a corner-entry identity's relative error in
#: ``qhspace verify``.
ENTRY_IDENTITY_FLOOR = 1e-300

#: An element is loxodromic only when its candidate fixed points pair above
#: this: ``|<v, u>| > LOXODROMY_MARGIN |u||v|``.  ``eig`` gets a Jordan block's
#: eigenvectors to about the square root of the working precision (1.5e-8),
#: so the two candidates of a parabolic class it splits pair to about that:
#: at most 2.94e-8 over 2159 conjugated vertical translations, while each
#: element the benchmark's pairs, pairs-stress and orbit workloads certify
#: (seeds 1 and 20090) pairs to at least 2.1e-4.
LOXODROMY_MARGIN = 1e-6

#: The conjugated first generator is diagonal: off-diagonal max-norm at most
#: this.  It checks a retracted conjugator independently of admission.
DIAGONAL_TOL = 1e-8

#: Relative slack and absolute floor of the per-step contraction bound.
BOUND_SLACK = 1e-6
BOUND_FLOOR = 1e-28

#: The orbit stops once its corner product is positive and below this.
ORBIT_UNDERFLOW = 1e-300

#: The pullback sequence has converged: its last off-diagonal blocks,
#: unitarity defect and corner-modulus errors are all at most this.
FK_CONVERGENCE_TOL = 1e-6


def pairing_vanishes(modulus, z_norm, w_norm):
    """The one rule for a zero pairing ``<z, w>``; elementwise on arrays."""
    return modulus <= DEGENERACY_TOL * z_norm * w_norm


def admission(residual, scale, tol=ADMISSION_TOL):
    """``(admitted, decided, limit)``: is m in Sp(n,1)?  Elementwise on arrays.

    ``residual`` is the max-norm of ``m* J m - J`` and ``scale`` m's largest
    entry modulus.  The residual is admitted up to ``limit = tol max(1, scale)^2``,
    the forward-error bound of that product (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., section 3.5).  Membership is decided
    only while the default limit ``ADMISSION_TOL max(1, scale)^2`` is below 1;
    from there on it would admit a residual as large as J's entries.  That cut
    depends on the scale alone, so a larger ``tol`` never refuses a matrix that
    a smaller one admits.
    """
    square = (scale * (scale > 1.0) + (scale <= 1.0)) ** 2  # max(1, scale)^2, also on arrays
    decided = ADMISSION_TOL * square < 1.0
    limit = tol * square
    return (residual <= limit) & decided, decided, limit
