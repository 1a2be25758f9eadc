"""Shared generators for the test suite, the reference sampler, the
per-element reference checks and the reference JSON emitter."""

import json
import math
import re
from collections import Counter

import mpmath
import numpy as np

from qhspace.cli import _shared_parser
from qhspace.crossratio import CrossRatioValue, EntryIdentityReport, _moduli
from qhspace.errors import ClassificationError, MembershipError, NumericError, ShapeMismatchError
from qhspace.geometry import Position, ProjectivePoint, apply, from_lift, projectively_close, q_infinity, q_zero
from qhspace.jorgensen import (
    Certificate,
    DegenerateOrbitError,
    FkReport,
    IterationTrace,
    OrbitStep,
    TestOutcome,
    Verdict,
    _DiagonalFrame,
    _diagonal_frame,
    jorgensen_test,
)
from qhspace.jsonio import format_float
from qhspace.qmatrix import QMatrix, _adjoint_spectrum, right_eigenvalues
from qhspace.quaternion import Quaternion
from qhspace.spectral import (
    ElementKind,
    LoxodromicData,
    _unit_block_columns,
    classify,
    invariants_from_eigs,
    loxodromic_data,
)
from qhspace.spn1 import (
    ADMISSION_TOL,
    LOXO_MODULUS_RANGE,
    NormalFormParams,
    SpElement,
    StabilizerKind,
    _structure_inverse,
    compose,
    form_matrix,
    group_inverse,
    herm_form,
    identity_element,
    is_member,
    make_loxodromic,
    make_normal_form,
    membership_residual,
    retract,
    sample_elements,
)
from qhspace.tolerances import (
    BOUND_FLOOR,
    BOUND_SLACK,
    DEGENERACY_TOL,
    DIAGONAL_TOL,
    EIGENPAIR_TOL,
    FK_CONVERGENCE_TOL,
    LOXODROMY_MARGIN,
    ORBIT_UNDERFLOW,
    RECIPROCAL_TOL,
    UNIT_MODULUS_TOL,
    admission,
    pairing_vanishes,
)


def random_quaternion(rng, scale=1.0) -> Quaternion:
    return Quaternion(*(scale * rng.standard_normal(4)))


def random_unit_quaternion(rng) -> Quaternion:
    q = random_quaternion(rng)
    return q * (1.0 / q.modulus())


def random_interior_point(n, rng) -> ProjectivePoint:
    """Interior lift (v, t, 1) with 2 Re(t) > |v|^2."""
    v = [random_quaternion(rng) for _ in range(n - 1)]
    v_sq = sum(q.modulus_sq() for q in v)
    t = Quaternion(0.5 * v_sq + rng.uniform(0.1, 2.0), *rng.standard_normal(3))
    return from_lift(v + [t, Quaternion(1.0)])


def random_boundary_point(n, rng) -> ProjectivePoint:
    """Null lift (v, |v|^2/2 + imaginary, 1)."""
    v = [random_quaternion(rng) for _ in range(n - 1)]
    v_sq = sum(q.modulus_sq() for q in v)
    t = Quaternion(0.5 * v_sq, *rng.standard_normal(3))
    return from_lift(v + [t, Quaternion(1.0)])


def parabolic_factor(n, rng, kind=StabilizerKind.STAB_INFINITY, scale=0.15):
    """A unit-eigenvalue stabilizer factor with translation size ~ scale."""
    a = QMatrix.from_components(scale * rng.standard_normal((n - 1, 1, 4)))
    a_sq = float((a.entry_moduli() ** 2).sum()) if n > 1 else 0.0
    s = Quaternion(0.5 * a_sq, *(0.5 * scale * rng.standard_normal(3)))
    return make_normal_form(
        NormalFormParams(
            kind,
            lam=Quaternion(1.0),
            mu=Quaternion(1.0),
            A=QMatrix.identity(n - 1),
            a=a,
            s=s,
        )
    )


def small_perturbation(n, rng, scale=0.15):
    """Product of opposite parabolic factors: all four corners are nonzero
    but the off-corner product is small (of order scale**4)."""
    first = parabolic_factor(n, rng, StabilizerKind.STAB_INFINITY, scale)
    second = parabolic_factor(n, rng, StabilizerKind.STAB_ZERO, scale)
    return compose(first, second)


def swap_element(n):
    """The admitted involution exchanging the two distinguished boundary points."""
    quats = [[Quaternion(1.0 if i == j else 0.0) for j in range(n - 1)] for i in range(n - 1)]
    rows = []
    for i in range(n - 1):
        rows.append(quats[i] + [Quaternion(0.0), Quaternion(0.0)])
    rows.append([Quaternion(0.0)] * (n - 1) + [Quaternion(0.0), Quaternion(1.0)])
    rows.append([Quaternion(0.0)] * (n - 1) + [Quaternion(1.0), Quaternion(0.0)])
    return is_member(QMatrix.from_quaternions(rows))


def allclose(a: QMatrix, b: QMatrix, tol) -> bool:
    """Whether two matrices differ by at most ``tol`` in max-norm."""
    return (a - b).norm_max() <= tol


def approx_equal(p: Quaternion, q: Quaternion, tol) -> bool:
    """Whether two quaternions differ by at most ``tol`` in modulus."""
    return (p - q).modulus() <= tol


def from_adjoint(arr) -> QMatrix:
    """Invert :meth:`QMatrix.adjoint`, symmetrizing away rounding asymmetry."""
    arr = np.asarray(arr, dtype=complex)
    r2, c2 = arr.shape
    r, c = r2 // 2, c2 // 2
    ca = 0.5 * (arr[:r, :c] + arr[r:, c:].conj())
    cb = 0.5 * (arr[:r, c:] - arr[r:, :c].conj())
    return QMatrix(ca, cb)


def inverse_via_adjoint(m: QMatrix) -> QMatrix:
    """Generic inverse through the complex adjoint."""
    if m.rows != m.cols:
        raise ShapeMismatchError("inverse requires a square matrix")
    return from_adjoint(np.linalg.inv(m.adjoint()))


def diagonal_of(g: SpElement, conjugator: SpElement):
    """Diagonal entries of ``conjugator^-1 g conjugator`` plus the defect.

    Returns (entries, off_diagonal_norm); the entries are Quaternion values.
    """
    d = group_inverse(conjugator).m @ g.m @ conjugator.m
    entries = [d[i, i] for i in range(d.rows)]
    off = d - QMatrix.diag(entries)
    return entries, off.norm_max()


def shared_fixed_point_pairs(n, seed, count=8, modulus_range=(1.05, 1.5), word_length=3):
    """Pairs (g, h) sharing a fixed point: c diag c^-1 and c k c^-1, where k
    fixes q0 or qinf (or both) and is loxodromic for every other pair.

    The expanding modulus of diag is uniform in ``modulus_range`` and c is a
    sampled word of ``word_length`` factors."""
    rng = np.random.default_rng([seed, n])
    conjugators = list(sample_elements(n, seed, count, word_length))
    kinds = (StabilizerKind.STAB_INFINITY, StabilizerKind.STAB_ZERO, StabilizerKind.STAB_BOTH)
    pairs = []
    for i, c in enumerate(conjugators):
        diag = make_loxodromic(
            [random_unit_quaternion(rng) for _ in range(n - 1)],
            random_unit_quaternion(rng) * rng.uniform(*modulus_range),
        )
        lam = random_unit_quaternion(rng) * (rng.uniform(1.05, 1.3) if i % 2 else 1.0)
        mu = lam.conj().inverse()
        kind = kinds[i % 3]
        a = QMatrix.from_components(0.35 * rng.standard_normal((n - 1, 1, 4)))
        a_sq = float((a.entry_moduli() ** 2).sum()) if n > 1 else 0.0
        s = mu * (0.5 * a_sq / mu.modulus_sq()) + mu * Quaternion(0.0, *(0.35 * rng.standard_normal(3)))
        if kind is StabilizerKind.STAB_BOTH:
            params = NormalFormParams(kind, lam=lam, mu=mu, A=reference_unitary(rng, n - 1))
        else:
            params = NormalFormParams(kind, lam=lam, mu=mu, A=reference_unitary(rng, n - 1), a=a, s=s)
        k = make_normal_form(params)
        c_inv = group_inverse(c)
        try:
            pairs.append((is_member(c.m @ diag.m @ c_inv.m), is_member(c.m @ k.m @ c_inv.m)))
        except MembershipError:
            continue
    return pairs


def stab_both_factor(n, rng, stretch=1.0) -> SpElement:
    """A normal form fixing both q0 and qinf, with ``|lam| = stretch``."""
    lam = random_unit_quaternion(rng) * stretch
    return make_normal_form(
        NormalFormParams(StabilizerKind.STAB_BOTH, lam=lam, mu=lam.conj().inverse(), A=reference_unitary(rng, n - 1))
    )


def preserved_pairs(n, seed, count=8):
    """Pairs (g, h) that both fix q0 and qinf exactly: g = s d s^-1 with d
    diagonal loxodromic, |lam_n| - 1 log-uniform in [1e-5, 1e-2], and s and h
    products of StabBoth factors.  Near 1 the eigenvectors of g carry
    rounding of order 1e-13, which is what an absolute cut trips on."""
    rng = np.random.default_rng([seed, n])
    pairs = []
    for _ in range(count):
        s = stab_both_factor(n, rng, rng.uniform(1.0, 3.0))
        d = make_loxodromic(
            [random_unit_quaternion(rng) for _ in range(n - 1)],
            random_unit_quaternion(rng) * (1.0 + 10.0 ** rng.uniform(-5.0, -2.0)),
        )
        g = is_member(s.m @ d.m @ group_inverse(s).m)
        h = compose(stab_both_factor(n, rng, rng.uniform(1.0, 3.0)), stab_both_factor(n, rng, rng.uniform(1.0, 3.0)))
        pairs.append((g, h))
    return pairs


def stack_of(elements) -> QMatrix:
    """The matrices of equal-size elements as one stack."""
    return QMatrix(np.stack([g.m.ca for g in elements]), np.stack([g.m.cb for g in elements]))


def check_elements(n, seed=0):
    """Elements for the check batteries: sampled words, normal forms (some fix
    q0 or qinf, so their entry identities are degenerate), a diagonal
    loxodromic, the identity and the swap of q0 and qinf."""
    rng = np.random.default_rng(seed)
    out = list(sample_elements(n, seed, 6, 8))
    out += [reference_normal_form(reference_factor_params(rng, n)) for _ in range(6)]
    out += [parabolic_factor(n, rng, kind) for kind in (StabilizerKind.STAB_INFINITY, StabilizerKind.STAB_ZERO)]
    out.append(make_loxodromic([Quaternion(1.0)] * (n - 1), Quaternion(1.2, 0.3)))
    out.append(identity_element(n))
    out.append(swap_element(n))
    return out


def count_linalg(monkeypatch, names=("eig", "eigvals", "svd", "eigvalsh", "inv")):
    """Count calls of ``numpy.linalg`` routines for the rest of a test."""
    calls = Counter()
    for name in names:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def same_bits(x: QMatrix, y: QMatrix) -> bool:
    """Equal shapes and identical bytes, so signed zeros count too."""
    return (
        x.ca.shape == y.ca.shape
        and x.ca.tobytes() == y.ca.tobytes()
        and x.cb.tobytes() == y.cb.tobytes()
    )


# -- exact lattice oracle ----------------------------------------------------
#
# Sp(n,1) over the Lipschitz integers (a + bi + cj + dk with a, b, c, d
# integers) is discrete, since its entries lie in a lattice.  Its words are
# formed and checked against g* J g = J in Python integers, so any lattice
# pair the test certifies as non-discrete is a false certificate.  A lattice
# matrix is a tuple of rows of (w, x, y, z) integer tuples.


def horizontal_translation(n):
    """The Heisenberg translation by a = (1+i) e_1 and s = 1 + j (n >= 2), an
    exact parabolic with Lipschitz-integer entries."""
    a = QMatrix.column([Quaternion(1.0, 1.0)] + [Quaternion(0.0)] * (n - 2))
    return make_normal_form(NormalFormParams(StabilizerKind.STAB_INFINITY, lam=Quaternion(1.0),
                                             mu=Quaternion(1.0), A=QMatrix.identity(n - 1), a=a,
                                             s=Quaternion(1.0, 0.0, 1.0, 0.0)))


def _int_mul(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2, a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2, a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def int_matmul(x, y):
    """The product of two lattice matrices, in integers."""
    return tuple(
        tuple(tuple(map(sum, zip(*(_int_mul(row[k], col[k]) for k in range(len(col)))))) for col in zip(*y))
        for row in x
    )


def int_star(x):
    """The conjugate transpose of a lattice matrix."""
    return tuple(tuple((w, -a, -b, -c) for w, a, b, c in col) for col in zip(*x))


def lattice_matrix(m: QMatrix):
    """The entries of a matrix whose components are all integers, as integers."""
    comp = m.components
    assert (comp == np.round(comp)).all()
    return tuple(tuple(tuple(int(v) for v in q) for q in row) for row in comp.tolist())


def lattice_generators(n):
    """Lipschitz-integer generators, then their inverses J g* J: the vertical
    translations by i, j, k, i + j and 2i, the swap of the null pair and, for
    n >= 2, the horizontal translation and the rotation e_k -> e_(k+1),
    e_(n-1) -> e_1 i of the first n - 1 coordinates."""
    ident, zero = QMatrix.identity(n - 1), QMatrix.zeros(n - 1, 1)
    gens = [
        lattice_matrix(make_normal_form(NormalFormParams(StabilizerKind.STAB_INFINITY, lam=Quaternion(1.0),
                                                         mu=Quaternion(1.0), A=ident, a=zero, s=s)).m)
        for s in (Quaternion(0.0, 1.0), Quaternion(0.0, 0.0, 1.0), Quaternion(0.0, 0.0, 0.0, 1.0),
                  Quaternion(0.0, 1.0, 1.0), Quaternion(0.0, 2.0))
    ]
    gens.append(lattice_matrix(swap_element(n).m))
    if n >= 2:
        gens.append(lattice_matrix(horizontal_translation(n).m))
        rotation = [[(0, 0, 0, 0)] * (n + 1) for _ in range(n + 1)]
        for k in range(n - 2):
            rotation[k + 1][k] = (1, 0, 0, 0)
        rotation[0][n - 2] = (0, 1, 0, 0)
        rotation[n - 1][n - 1] = rotation[n][n] = (1, 0, 0, 0)
        gens.append(tuple(map(tuple, rotation)))
    form = lattice_matrix(form_matrix(n))
    return gens + [int_matmul(int_matmul(form, int_star(g)), form) for g in gens]


def lattice_words(n, count, rng, bound=200):
    """Of ``count`` words of length 2 to 6 in :func:`lattice_generators`,
    drawn by ``rng`` (a ``random.Random``), the products whose entry
    components are at most ``bound`` in modulus."""
    gens = lattice_generators(n)
    words = []
    for _ in range(count):
        word = gens[rng.randrange(len(gens))]
        for _ in range(rng.randint(2, 6) - 1):
            word = int_matmul(word, gens[rng.randrange(len(gens))])
        if max(abs(c) for row in word for q in row for c in q) <= bound:
            words.append(word)
    return words


def lattice_element(word) -> SpElement:
    """A lattice matrix admitted as a group element; its floats are exact."""
    return is_member(QMatrix.from_components(np.array(word, dtype=float)))


def _lattice_scalar(size, c):
    return tuple(tuple((c if i == j else 0, 0, 0, 0) for j in range(size)) for i in range(size))


def lattice_kind(word):
    """The kind of a lattice matrix, decided in integers, or None.

    The identity is +-I.  An elliptic word has g^m = +-I for some 2 <= m <= 24;
    a parabolic one has a +-unipotent power, (g^m -+ I)^(n+1) = 0 for some
    m <= 24.  Any other word (a loxodromic one, or one whose powers do not
    show it) is undecided."""
    size = len(word)
    eyes = [_lattice_scalar(size, 1), _lattice_scalar(size, -1)]
    if word in eyes:
        return ElementKind.IDENTITY
    powers = [word]
    for _ in range(23):
        powers.append(int_matmul(powers[-1], word))
    if any(p in eyes for p in powers[1:]):
        return ElementKind.ELLIPTIC
    zero = _lattice_scalar(size, 0)
    for p in powers:
        for c in (1, -1):
            shifted = tuple(tuple((q[0] - c * (i == j), *q[1:]) for j, q in enumerate(row)) for i, row in enumerate(p))
            nilpotent = shifted
            for _ in range(size - 1):
                nilpotent = int_matmul(nilpotent, shifted)
            if nilpotent == zero:
                return ElementKind.PARABOLIC
    return None


# -- reference sampler ------------------------------------------------------
#
# The per-factor sampler that ``spn1.sample_elements`` reproduces bit for bit:
# each factor is drawn, orthonormalized on 2-D matrices, laid out with
# ``QMatrix.from_blocks`` and admitted on its own, and the word is the
# sequential 2-D product of its factors.


def reference_unitary(rng, m: int) -> QMatrix:
    if m == 0:
        return QMatrix.zeros(0, 0)
    cols = [QMatrix.from_components(rng.standard_normal((m, 1, 4))) for _ in range(m)]

    def orthonormalize(vectors):
        out = []
        for v in vectors:
            for u in out:
                v = v - u.scale_right((u.star() @ v)[0, 0])
            out.append(v.scale_right(1.0 / v.norm_fro()))
        return out

    return QMatrix.from_blocks([orthonormalize(orthonormalize(cols))])


def reference_normal_form(p: NormalFormParams):
    """The normal form of ``p`` laid out with ``from_blocks`` and admitted alone."""
    m = p.A.rows
    z_col, z_row, zero = QMatrix.zeros(m, 1), QMatrix.zeros(1, m), QMatrix.zeros(1, 1)
    lam_m, mu_m = QMatrix.diag([p.lam]), QMatrix.diag([p.mu])
    if p.kind is StabilizerKind.STAB_BOTH:
        blocks = [[p.A, z_col, z_col], [z_row, lam_m, zero], [z_row, zero, mu_m]]
    else:
        b_row = (p.a.star() @ p.A).scale_left(p.lam)
        s_m = QMatrix.diag([p.s])
        if p.kind is StabilizerKind.STAB_INFINITY:
            blocks = [[p.A, z_col, p.a], [b_row, lam_m, s_m], [z_row, zero, mu_m]]
        else:
            blocks = [[p.A, p.a, z_col], [z_row, mu_m, zero], [b_row, s_m, lam_m]]
    return is_member(QMatrix.from_blocks(blocks))


def reference_random_unit(rng) -> Quaternion:
    """A unit quaternion normalised by ``np.linalg.norm``."""
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    return Quaternion(*v)


def reference_factor_params(rng, n: int) -> NormalFormParams:
    kind = rng.choice(3, p=[0.3, 0.3, 0.4])
    A = reference_unitary(rng, n - 1)
    lam = reference_random_unit(rng)
    if kind == 2:
        if rng.random() < 0.6:
            lo, hi = LOXO_MODULUS_RANGE
            lam = lam * math.exp(rng.uniform(math.log(lo), math.log(hi)))
        return NormalFormParams(StabilizerKind.STAB_BOTH, lam=lam, mu=lam.conj().inverse(), A=A)
    mu = lam.conj().inverse()
    a = QMatrix.from_components(0.35 * rng.standard_normal((n - 1, 1, 4)))
    a_sq = float((a.entry_moduli() ** 2).sum()) if n > 1 else 0.0
    imag = Quaternion(0.0, *(0.35 * rng.standard_normal(3)))
    s = mu * (0.5 * a_sq) + mu * imag
    which = StabilizerKind.STAB_INFINITY if kind == 0 else StabilizerKind.STAB_ZERO
    return NormalFormParams(which, lam=lam, mu=mu, A=A, a=a, s=s)


def reference_words(n, seed, word_length):
    """Endless words from one stream, each the 2-D product of its factors."""
    rng = np.random.default_rng(seed)
    while True:
        word = QMatrix.identity(n + 1)
        for _ in range(word_length):
            word = word @ reference_normal_form(reference_factor_params(rng, n)).m
        yield word


def reference_sample(n, seed, count, word_length, tol=ADMISSION_TOL):
    """The admitted words, as a list, and the number of words drawn."""
    words = reference_words(n, seed, word_length)
    out, attempts = [], 0
    while len(out) < count:
        attempts += 1
        if attempts > 20 * count:
            raise RuntimeError("sampler failed to produce admitted elements")
        try:
            out.append(is_member(next(words), tol=tol))
        except MembershipError:
            continue
    return out, attempts


def reference_sample_elements(n, seed, count, word_length, tol=ADMISSION_TOL):
    """The word-by-word sampler: each word is drawn and admitted when asked for.

    It gives up after ``20 * count`` words with the message that
    ``spn1.sample_elements`` uses, naming why the last word was refused.
    """
    words = reference_words(n, seed, word_length)
    produced = attempts = 0
    rejection = None
    while produced < count:
        attempts += 1
        if attempts > 20 * count:
            raise NumericError(
                f"sampler admitted {produced} of {count} elements in {attempts - 1} words "
                f"at factor {tol:.3e}; the last word refused: {rejection}"
            )
        try:
            element = is_member(next(words), tol=tol)
        except MembershipError as exc:
            rejection = exc
            continue
        yield element
        produced += 1


# -- per-element reference checks -------------------------------------------
#
# The per-element checks that ``spn1.identity_residual_table`` and the
# ``crossratio`` tables reproduce bit for bit: each element is inverted from
# its blocks, multiplied and measured on its own, and every modulus is a
# scalar ``Quaternion.modulus``.


def reference_membership_residual(m: QMatrix):
    """Residual of ``m* J m - J`` and its worst index, with ``J @ m`` a product."""
    n = m.rows - 1
    j = form_matrix(n)
    moduli = (m.star() @ (j @ m) - j).entry_moduli()
    if not m.is_stack:
        worst = np.unravel_index(int(np.argmax(moduli)), moduli.shape)
        return float(moduli[worst]), (int(worst[0]), int(worst[1]))
    flat = moduli.reshape(moduli.shape[:-2] + (-1,))
    return flat.max(axis=-1), divmod(np.argmax(flat, axis=-1), m.cols)


def reference_group_inverse(g: SpElement) -> SpElement:
    """``J g* J`` assembled from the starred blocks of g."""
    inv = QMatrix.from_blocks(
        [
            [g.A.star(), -g.theta.star(), -g.gamma.star()],
            [
                -g.beta.star(),
                QMatrix.diag([g.a_n1n1.conj()]),
                QMatrix.diag([g.a_nn1.conj()]),
            ],
            [
                -g.alpha.star(),
                QMatrix.diag([g.a_n1n.conj()]),
                QMatrix.diag([g.a_nn.conj()]),
            ],
        ]
    )
    residual, _ = membership_residual(inv)
    return SpElement(inv, g.n, residual)


def reference_identity_residuals(g: SpElement) -> np.ndarray:
    n = g.n
    inv = reference_group_inverse(g)
    eye = QMatrix.identity(n + 1)
    e1 = g.m @ inv.m - eye
    e2 = inv.m @ g.m - eye
    top = slice(0, n - 1)
    mid, bot = n - 1, n

    def block_max(err, rows, cols):
        return err.submatrix(rows, cols).norm_max()

    return np.array(
        [
            block_max(e1, top, top),
            block_max(e1, top, mid),
            block_max(e1, top, bot),
            block_max(e1, mid, top),
            block_max(e1, mid, mid),
            block_max(e1, mid, bot),
            block_max(e1, bot, mid),
            block_max(e2, top, top),
            block_max(e2, top, mid),
            block_max(e2, top, bot),
            block_max(e2, mid, mid),
            block_max(e2, mid, bot),
            block_max(e2, bot, mid),
        ]
    )


def reference_cross_ratio(z1, z2, w1, w2) -> CrossRatioValue:
    points = (z1, z2, w1, w2)
    f_w1z1 = herm_form(z1.lift, w1.lift)
    f_w1z2 = herm_form(z2.lift, w1.lift)
    f_w2z2 = herm_form(z2.lift, w2.lift)
    f_w2z1 = herm_form(z1.lift, w2.lift)
    norms = [p.lift.norm_fro() for p in points]
    cut = DEGENERACY_TOL
    vanishing = []
    for name, value, na, nb in (
        ("w1z1", f_w1z1, norms[2], norms[0]),
        ("w1z2", f_w1z2, norms[2], norms[1]),
        ("w2z2", f_w2z2, norms[3], norms[1]),
        ("w2z1", f_w2z1, norms[3], norms[0]),
    ):
        if value.modulus() <= cut * na * nb:
            vanishing.append(name)
    degenerate = "w1z2" in vanishing or "w2z1" in vanishing
    if degenerate:
        return CrossRatioValue(Quaternion(math.nan), math.nan, True, tuple(vanishing))
    value = f_w1z1 * f_w1z2.inverse() * f_w2z2 * f_w2z1.inverse()
    abs_value = (f_w1z1.modulus() * f_w2z2.modulus()) / (
        f_w1z2.modulus() * f_w2z1.modulus()
    )
    return CrossRatioValue(value, abs_value, False, tuple(vanishing))


def reference_entry_identity_check(h: SpElement) -> EntryIdentityReport:
    qi = q_infinity(h.n)
    qz = q_zero(h.n)
    h_qi = apply(h, qi)
    h_qz = apply(h, qz)
    first = reference_cross_ratio(h_qi, qz, qi, h_qz)
    second = reference_cross_ratio(h_qi, qi, qz, h_qz)
    rhs1 = h.a_n1n.modulus() * h.a_nn1.modulus()
    rhs2 = h.a_nn.modulus() * h.a_n1n1.modulus()
    return EntryIdentityReport(
        lhs1=first.abs_value if not first.degenerate else math.nan,
        rhs1=rhs1,
        lhs2=second.abs_value if not second.degenerate else math.nan,
        rhs2=rhs2,
        vanishing1=first.vanishing,
        vanishing2=second.vanishing,
    )


def reference_corner_bound_slacks(h: SpElement) -> np.ndarray:
    p = math.sqrt(h.a_nn.modulus() * h.a_n1n1.modulus())
    q = math.sqrt(h.a_nn1.modulus() * h.a_n1n.modulus())
    beta_alpha = (h.beta.star() @ h.alpha)[0, 0].modulus()
    gamma_theta = (h.gamma @ h.theta.star())[0, 0].modulus()
    return np.array(
        [
            2.0 * p * q - beta_alpha,
            2.0 * p * q - gamma_theta,
            (q + 1.0) - p,
            (p + 1.0) - q,
            (p + q) - 1.0,
        ]
    )


def reference_verify(n, seed, count, word_length, tol=ADMISSION_TOL):
    """The ``verify`` document, built element by element from the references.

    Each element passes a check when the admission rule at factor ``tol``
    admits its error at the element's own scale.
    """
    membership_worst = 0.0
    identity_worst = np.zeros(13)
    slack_worst = np.full(5, np.inf)
    entry_worst = 0.0
    degenerate_entries = 0
    produced = 0
    names = ("membership_max", "identity_residual_max", "corner_slack_min", "entry_identity_rel_max")
    passed = dict.fromkeys(names, True)
    for element in sample_elements(n, seed, count, word_length):
        produced += 1
        identities = reference_identity_residuals(element)
        slacks = reference_corner_bound_slacks(element)
        report = reference_entry_identity_check(element)
        relative = 0.0
        if report.degenerate:
            degenerate_entries += 1
        else:
            relative = max(
                abs(report.lhs1 - report.rhs1) / max(report.rhs1, 1e-300),
                abs(report.lhs2 - report.rhs2) / max(report.rhs2, 1e-300),
            )
        errors = (element.residual, identities.max(), -slacks.min(), relative)
        for name, error in zip(passed, errors):
            passed[name] = passed[name] and bool(admission(error, element.m.norm_max(), tol)[0])
        membership_worst = max(membership_worst, element.residual)
        identity_worst = np.maximum(identity_worst, identities)
        slack_worst = np.minimum(slack_worst, slacks)
        entry_worst = max(entry_worst, relative)
    values = (membership_worst, float(identity_worst.max()), float(slack_worst.min()), entry_worst)
    checks = {name: (value, passed[name]) for name, value in zip(passed, values)}
    doc = {
        "n": n,
        "seed": seed,
        "count": produced,
        "word_length": word_length,
        "tolerance": tol,
        "identity_residuals": [float(v) for v in identity_worst],
        "corner_slacks": [float(v) for v in slack_worst],
        "degenerate_entry_identities": degenerate_entries,
        "checks": {k: {"value": v, "pass": bool(ok)} for k, (v, ok) in checks.items()},
    }
    doc["pass"] = all(flag for _, flag in checks.values())
    return doc


# -- per-candidate spectral references ----------------------------------------
#
# The paths that ``qmatrix.right_eigenpairs``, ``spectral.spectral_report``
# and ``jorgensen.elementary_certificate`` reproduce bit for bit: each
# eigenvector candidate is converted, rotated and checked on its own, and
# every loxodromic element gets its conjugator built, whether or not the
# caller reads it.


def quaternion_vector_from_adjoint(zeta) -> QMatrix:
    """Convert an adjoint-space column of length 2m to a quaternionic m-vector."""
    zeta = np.asarray(zeta, dtype=complex).reshape(-1)
    size = zeta.shape[0] // 2
    return QMatrix(zeta[:size].reshape(-1, 1), -zeta[size:].conj().reshape(-1, 1))


def reference_right_eigenpairs(m: QMatrix, tol=EIGENPAIR_TOL):
    """``right_eigenpairs`` with one ``QMatrix`` per adjoint eigenvector.

    Residuals are checked at ``tol``; the pairing, by ``right_eigenvalues``,
    at ``EIGENPAIR_TOL``.  Each class takes whichever of its own pair's two
    candidates lies nearer its representative, the lower index on a tie.
    """
    spectrum = _adjoint_spectrum(m)
    evals, evecs = spectrum.evals, spectrum.evecs
    j_unit = Quaternion(0.0, 0.0, 1.0, 0.0)
    candidates = []
    for idx in range(2 * m.rows):
        lam = evals[idx]
        vec = quaternion_vector_from_adjoint(evecs[:, idx])
        if lam.imag < 0:
            vec = vec.scale_right(j_unit)
        rep = complex(lam.real, abs(lam.imag))
        resid = (m @ vec - vec.scale_right(Quaternion.from_complex_pair(rep))).norm_max()
        scale = vec.norm_fro()
        if scale == 0.0 or resid > tol * max(scale, 1.0):
            raise NumericError("eigenpair residual too large", residual=resid)
        candidates.append((rep, vec, resid / scale))
    pairs = []
    for rep, a, b in zip(right_eigenvalues(m), spectrum.candidates, spectrum.partners):
        pairs.append(candidates[min(sorted((a, b)), key=lambda k: abs(candidates[k][0] - rep))])
    return pairs


def _reference_conjugator(g: SpElement, unit_classes, u_vec, v_vec):
    """The diagonalizing conjugator with v scaled by its own pairing
    ``herm_form(v, u)``, where ``loxodromic_data`` reads the certified
    ``vu_pairing``; it raises when it is not built or not admitted."""
    columns = _unit_block_columns(g, unit_classes)
    v_vec = v_vec.scale_right(-herm_form(v_vec, u_vec).inverse())
    t = math.sqrt(v_vec.norm_fro() / u_vec.norm_fro())
    return is_member(retract(QMatrix.from_blocks([columns + [u_vec.scale_right(t), v_vec.scale_right(1.0 / t)]])))


def reference_loxodromic_data(g: SpElement) -> LoxodromicData:
    """``loxodromic_data`` from the per-candidate eigenpairs, with the
    conjugator built from the eigenvectors themselves."""
    pairs = reference_right_eigenpairs(g.m, tol=UNIT_MODULUS_TOL)
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
    relative = _dense_form(v_vec, u_vec).modulus() / (u_vec.norm_fro() * v_vec.norm_fro())
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
    unit_classes = tuple(i for i in range(len(pairs)) if i not in (big[0], small[0]))
    unit_reps = [pairs[i][0] for i in unit_classes]
    for lam in unit_reps:
        if abs(abs(lam) - 1.0) > UNIT_MODULUS_TOL:
            raise ClassificationError(f"unit block contains modulus {abs(lam)}")
    attracting = ProjectivePoint(u_vec)
    repelling = ProjectivePoint(v_vec)
    if attracting.position is not Position.BOUNDARY or repelling.position is not Position.BOUNDARY:
        raise NumericError("fixed points did not land on the boundary")
    delta, mg = invariants_from_eigs(unit_reps, lam_n, lam_n1)
    lifts = QMatrix.stack([attracting.lift, repelling.lift]).freeze()
    return LoxodromicData(
        unit_classes=unit_classes,
        unit_eigs=tuple(unit_reps),
        lam_n=lam_n,
        lam_n1=lam_n1,
        lifts=lifts,
        norms=np.array([attracting.lift.norm_fro(), repelling.lift.norm_fro()]),
        delta=delta,
        mg=mg,
        conjugator=_reference_conjugator(g, unit_classes, u_vec, v_vec),
        vu_pairing=_dense_form(v_vec, u_vec),
    )


def reference_spectral_report(g: SpElement) -> dict:
    cls = classify(g)
    report = {
        "kind": cls.kind.value,
        "eigs": [[lam.real, lam.imag] for lam in right_eigenvalues(g.m)],
        "delta": None,
        "mg": None,
        "u": None,
        "v": None,
        "boundary_classes": cls.boundary_classes,
    }
    if cls.kind is ElementKind.LOXODROMIC:
        data = reference_loxodromic_data(g)
        report["delta"] = data.delta
        report["mg"] = data.mg
        report["u"] = data.attracting.to_json_dict()
        report["v"] = data.repelling.to_json_dict()
    return report


def reference_elementary_certificate(g: SpElement, h: SpElement) -> Certificate:
    data = reference_loxodromic_data(g)
    u, v = data.attracting, data.repelling
    hu, hv = apply(h, u), apply(h, v)
    fixes_u = projectively_close(hu, u)
    fixes_v = projectively_close(hv, v)
    swaps = projectively_close(hu, v) and projectively_close(hv, u)
    if (fixes_u and fixes_v) or swaps:
        return Certificate.PRESERVES_PAIR
    if fixes_u or fixes_v:
        try:
            h_data = reference_loxodromic_data(h)
        except (ClassificationError, NumericError):
            return Certificate.FIXES_ONE_SWAPS_NONE
        shared = sum(
            1
            for fp in (h_data.attracting, h_data.repelling)
            if projectively_close(fp, u) or projectively_close(fp, v)
        )
        return Certificate.SHARES_EXACTLY_ONE if shared == 1 else Certificate.FIXES_ONE_SWAPS_NONE
    return Certificate.NEITHER


# -- reference Jørgensen test -------------------------------------------------
#
# The path that ``jorgensen.jorgensen_test`` reproduces byte for byte: g's
# fixed points from ``reference_loxodromic_data``, every pairing taken as
# ``w* (J z)`` with the dense form matrix, the repelling lift scaled by its own
# pairing so that <v, u> = -1, and the brackets as two stacks of two
# cross-ratios, each pairing a separate product.


def _dense_form(z: QMatrix, w: QMatrix) -> Quaternion:
    """``<z, w> = w* (J z)`` with J as a dense matrix product."""
    return (w.star() @ (form_matrix(z.rows - 1) @ z))[0, 0]


def _reference_cross_ratio_parts(z1, z2, w1, w2):
    """Pairing moduli (last axis w1z1, w1z2, w2z2, w2z1) and vanishing flags
    of four lifts or stacks of lifts, one product per pairing."""
    j = form_matrix(z1.rows - 1)
    jz1, jz2 = j @ z1, j @ z2
    w1s, w2s = w1.star(), w2.star()
    moduli = [_moduli(f)[..., 0, 0] for f in (w1s @ jz1, w1s @ jz2, w2s @ jz2, w2s @ jz1)]
    norms = [lift.norm_fro() for lift in (z1, z2, w1, w2)]
    flags = [pairing_vanishes(mod, norms[a], norms[b]) for mod, (a, b) in zip(moduli, ((2, 0), (2, 1), (3, 1), (3, 0)))]
    return np.stack(np.broadcast_arrays(*moduli), axis=-1), np.stack(np.broadcast_arrays(*flags), axis=-1)


def _reference_certificate(u, v, h: SpElement, flags) -> Certificate:
    fixes_u, fixes_v = flags["fixes_attracting"], flags["fixes_repelling"]
    if (fixes_u and fixes_v) or (flags["attracting_to_repelling"] and flags["repelling_to_attracting"]):
        return Certificate.PRESERVES_PAIR
    if not (fixes_u or fixes_v):
        return Certificate.NEITHER
    try:
        h_data = reference_loxodromic_data(h)
    except (ClassificationError, NumericError):
        return Certificate.FIXES_ONE_SWAPS_NONE
    _, vanishing = _reference_cross_ratio_parts(u, v, h_data.attracting.lift, h_data.repelling.lift)
    if int(vanishing[0] | vanishing[1]) + int(vanishing[2] | vanishing[3]) == 1:
        return Certificate.SHARES_EXACTLY_ONE
    return Certificate.FIXES_ONE_SWAPS_NONE


def reference_jorgensen_test(g: SpElement, h: SpElement) -> TestOutcome:
    """``jorgensen_test`` of two elements of the same n on the dense-form path."""
    data = reference_loxodromic_data(g)
    u, mg = data.attracting.lift, data.mg
    v = data.repelling.lift.scale_right(-_dense_form(data.repelling.lift, u).inverse())
    hu, hv = h.m @ u, h.m @ v
    moduli, vanishing = _reference_cross_ratio_parts(hu, QMatrix.stack([v, u]), QMatrix.stack([u, v]), hv)
    cross_abs = moduli[:, 0] * moduli[:, 2] / (moduli[:, 1] * moduli[:, 3])
    (a_n1n, _, a_nn1, _), (a_nn, _, a_n1n1, _) = moduli.tolist()
    (fixes_u, _, fixes_v, _), (u_to_v, _, v_to_u, _) = vanishing.tolist()
    flags = {
        "fixes_repelling": fixes_v,
        "fixes_attracting": fixes_u,
        "attracting_to_repelling": u_to_v,
        "repelling_to_attracting": v_to_u,
    }
    witnesses = {"corner_moduli": [a_nn, a_nn1, a_n1n, a_n1n1], "flags": flags, "degenerate_case": None}
    certificate = _reference_certificate(u, v, h, flags)
    p_off, p_diag = float(cross_abs[0]), float(cross_abs[1])
    if certificate is Certificate.PRESERVES_PAIR:
        verdict, witnesses["degenerate_case"] = Verdict.DEGENERATE_ELEMENTARY, "pair preserved"
    elif certificate is Certificate.SHARES_EXACTLY_ONE:
        verdict, witnesses["degenerate_case"] = Verdict.DEGENERATE_NON_DISCRETE, "shared fixed point"
    elif certificate is Certificate.FIXES_ONE_SWAPS_NONE:
        verdict, witnesses["degenerate_case"] = Verdict.DEGENERATE_ELEMENTARY, "shared fixed point"
    elif u_to_v or v_to_u:
        verdict, witnesses["degenerate_case"] = Verdict.DEGENERATE_NON_DISCRETE, "fixed point mapped onto the other"
    elif mg * (1.0 + math.sqrt(p_off)) < 1.0 or mg * (1.0 + math.sqrt(p_diag)) < 1.0:
        verdict = Verdict.CONDITION_HOLDS
    else:
        verdict = Verdict.INCONCLUSIVE
    return TestOutcome(verdict, mg, p_off, p_diag, witnesses)


def _mp_pairing_modulus(w, z):
    """|<z, w>| = |w* J z| of two mpmath quaternion columns (a, b), q = a + b j."""
    size = len(z[0])
    # J z: the identity on the first n - 1 entries, then (-z_n1, -z_n).
    jz = [list(part[: size - 2]) + [-part[size - 1], -part[size - 2]] for part in z]
    sa = sb = mpmath.mpc(0)
    for wa, wb, za, zb in zip(w[0], w[1], jz[0], jz[1]):
        # conj(wa + wb j) = conj(wa) - wb j, times (za + zb j).
        sa += mpmath.conj(wa) * za + wb * mpmath.conj(zb)
        sb += mpmath.conj(wa) * zb - wb * mpmath.conj(za)
    return mpmath.sqrt(abs(sa) ** 2 + abs(sb) ** 2)


def _mp_apply(m: QMatrix, z):
    """The product m z of an element and an mpmath quaternion column."""
    ha, hb = (mpmath.matrix(part.tolist()) for part in (m.ca, m.cb))
    za, zb = mpmath.matrix(z[0]), mpmath.matrix(z[1])
    conj = lambda v: v.apply(mpmath.conj)  # noqa: E731
    return list(ha * za - hb * conj(zb)), list(ha * zb + hb * conj(za))


def _mp_lift(p: ProjectivePoint):
    """The float lift of a point as an mpmath quaternion column."""
    return [mpmath.mpc(x) for x in p.lift.ca[:, 0]], [mpmath.mpc(x) for x in p.lift.cb[:, 0]]


def _mp_brackets(u, v, h: SpElement):
    """Both brackets and the four fixed-point flags on mpmath lifts u, v."""
    hu, hv = _mp_apply(h.m, u), _mp_apply(h.m, v)
    pair = _mp_pairing_modulus

    def norm(z):
        return mpmath.sqrt(sum(abs(x) ** 2 for part in z for x in part))

    cross1 = pair(u, hu) * pair(hv, v) / (pair(u, v) * pair(hv, hu))
    cross2 = pair(v, hu) * pair(hv, u) / (pair(v, u) * pair(hv, hu))
    flags = {
        name: bool(pair(w, z) <= DEGENERACY_TOL * norm(w) * norm(z))
        for name, w, z in (
            ("fixes_attracting", u, hu),
            ("fixes_repelling", hv, v),
            ("attracting_to_repelling", v, hu),
            ("repelling_to_attracting", hv, u),
        )
    }
    return float(cross1), float(cross2), flags


def reference_cross_ratios(g: SpElement, h: SpElement, dps=50):
    """|[h(u), v, u, h(v)]|, |[h(u), u, v, h(v)]|, mg and the four
    fixed-point flags of ``jorgensen_test``, at ``dps`` digits.

    g's fixed points are eigenvectors of its complex adjoint for the
    eigenvalues of largest and smallest modulus, computed by mpmath from the
    float entries taken as exact.  The flags use the library's rule,
    ``|<z, w>| <= DEGENERACY_TOL |z||w|``, on the high-precision pairings.
    """
    with mpmath.workdps(dps):
        size = g.n + 1
        evals, evecs = mpmath.eig(mpmath.matrix(g.m.adjoint().tolist()))
        order = sorted(range(2 * size), key=lambda i: abs(evals[i]))
        mods = [abs(evals[i] - 1) for i in order]
        mg = 2 * max(mods[2:-2], default=0) + mods[0] + mods[-1]
        # Adjoint column zeta is the quaternion vector zeta_top - conj(zeta_bottom) j.
        u, v = (
            ([evecs[k, i] for k in range(size)], [-mpmath.conj(evecs[size + k, i]) for k in range(size)])
            for i in (order[-1], order[0])
        )
        cross1, cross2, flags = _mp_brackets(u, v, h)
        return cross1, cross2, float(mg), flags


def reference_brackets_on(attracting: ProjectivePoint, repelling: ProjectivePoint, h: SpElement, dps=50):
    """The brackets and flags of :func:`reference_cross_ratios` on the given
    points' float lifts instead of g's exact fixed points."""
    with mpmath.workdps(dps):
        return _mp_brackets(_mp_lift(attracting), _mp_lift(repelling), h)


def _mp_quaternion_column(zeta, size):
    """The 2m x 2 adjoint of the quaternion column whose first adjoint column is zeta."""
    out = mpmath.matrix(2 * size, 2)
    for k in range(size):
        out[k, 0], out[size + k, 0] = zeta[k], zeta[size + k]
        out[k, 1], out[size + k, 1] = -mpmath.conj(zeta[size + k]), mpmath.conj(zeta[k])
    return out


def reference_orbit_rows(g: SpElement, h: SpElement, steps, dps=None):
    """``[pi, |a_nn|, |a_nn1|, |a_n1n|, |a_n1n1|, |alpha|, |beta|, |gamma|,
    |theta|]`` of h_k for k = 0..steps, from ``h_{k+1} = h_k g h_k^-1`` in
    g's diagonal frame at ``dps`` digits, on complex adjoints.

    The recursion is not retracted, so its drift off the group, about
    10^-dps at the start, doubles at each step; the default of
    ``50 + 3 steps`` digits keeps it far below the float orbit's values.
    """
    with mpmath.workdps(50 + 3 * steps if dps is None else dps):
        rows, _ = _mp_orbit_rows(g, h, steps)
        return [[float(x) for x in row] for row in rows]


def reference_fk_rows(g: SpElement, h: SpElement, K, dps=None):
    """``[off_12, off_13, off_21, off_31, off_23, off_32, |f_nn|, |f_n1n1|]``
    of the pullbacks ``f_k = g^-k h_{2k} g^k`` for k = 0..K, from the rows of
    :func:`reference_orbit_rows` at ``dps`` digits (default ``50 + 6 K``).

    In g's diagonal frame the unit eigenvalues have modulus 1, so with
    m = |lam_n| each block of h_{2k} is only rescaled: alpha and theta by
    m^k, beta and gamma by m^-k, a_nn1 by m^-2k and a_n1n by m^2k, while the
    corners a_nn and a_n1n1 keep their moduli.
    """
    with mpmath.workdps(50 + 6 * K if dps is None else dps):
        rows, m = _mp_orbit_rows(g, h, 2 * K)
        out = []
        for k in range(K + 1):
            _, a_nn, a_nn1, a_n1n, a_n1n1, alpha, beta, gamma, theta = rows[2 * k]
            up, down = m**k, m ** (-k)
            values = [alpha * up, beta * down, gamma * down, theta * up, a_nn1 * down**2, a_n1n * up**2, a_nn, a_n1n1]
            out.append([float(x) for x in values])
        return out


def _mp_orbit_rows(g: SpElement, h: SpElement, steps):
    """The rows of :func:`reference_orbit_rows` as mpmath numbers, with
    |lam_n|, at the working precision.

    g and h are first carried onto the group by Newton-Schulz steps
    ``X (3I - J X* J X) / 2`` run to convergence: the float entries are on it
    only to rounding, and an exact orbit of such a pair leaves it.  The frame
    is built as the library builds it, from g's adjoint eigenvectors: unit
    ones J-orthonormalised, v scaled to ``<v, u> = -1`` and the null pair
    balanced.  The recorded moduli and block norms do not depend on the
    choice the frame leaves open, a unit quaternion per column or a unitary
    mix within a repeated class.
    """
    size, dps = g.n + 1, mpmath.mp.dps
    j_adj = mpmath.matrix(form_matrix(g.n).adjoint().real.tolist())

    def star(x):
        return j_adj * x.transpose_conj() * j_adj

    def on_group(m):
        x = mpmath.matrix(m.adjoint().tolist())
        for _ in range(100):
            step = x * (3 * mpmath.eye(2 * size) - star(x) * x) / 2
            if mpmath.mnorm(step - x, 1) <= mpmath.mpf(10) ** (5 - dps):
                return step
            x = step
        raise AssertionError("Newton-Schulz did not converge")

    g_adj, h_adj = on_group(g.m), on_group(h.m)
    evals, evecs = mpmath.eig(g_adj)
    order = sorted(range(2 * size), key=lambda i: abs(evals[i]))
    columns = [_mp_quaternion_column(evecs[:, i], size) for i in (order[-1], order[0])]
    u, v = columns
    v = v * mpmath.inverse(-(u.transpose_conj() * j_adj * v))
    t = mpmath.sqrt(mpmath.norm(v[:, 0]) / mpmath.norm(u[:, 0]))
    columns = []
    for i in order[2:-2]:
        w = _mp_quaternion_column(evecs[:, i], size)
        scale = mpmath.norm(w[:, 0]) ** 2
        for q in columns:
            w = w - q * (q.transpose_conj() * j_adj * w)
        value = mpmath.re((w.transpose_conj() * j_adj * w)[0, 0])
        if value > mpmath.mpf(10) ** (10 - dps) * scale:
            columns.append(w / mpmath.sqrt(value))
    assert len(columns) == g.n - 1
    columns += [u * t, v / t]
    conj = mpmath.matrix(2 * size, 2 * size)
    for col, q in enumerate(columns):
        for row in range(2 * size):
            conj[row, col], conj[row, size + col] = q[row, 0], q[row, 1]
    g_diag = star(conj) * g_adj * conj
    current = star(conj) * h_adj * conj

    def modulus(i, j):
        return mpmath.sqrt(abs(current[i, j]) ** 2 + abs(current[i, size + j]) ** 2)

    def block(rows, cols):
        return mpmath.sqrt(sum(modulus(i, j) ** 2 for i in rows for j in cols))

    n, unit = g.n, range(g.n - 1)
    rows = []
    for _ in range(steps + 1):
        corners = [modulus(n - 1, n - 1), modulus(n - 1, n), modulus(n, n - 1), modulus(n, n)]
        blocks = [block(unit, [n - 1]), block(unit, [n]), block([n - 1], unit), block([n], unit)]
        rows.append([corners[1] * corners[2], *corners, *blocks])
        current = current * g_diag * star(current)
    return rows, abs(evals[order[-1]])


def _reference_block_update(h: SpElement, inverse: QMatrix, unit_diag, lam_n, lam_n1) -> QMatrix:
    """The closed-form step h g h^-1 for diagonal g, on the step's structure inverse."""
    n, every = h.n, slice(None)
    unit = h.m.submatrix(every, slice(0, n - 1)) @ QMatrix.diag(unit_diag)
    return (
        unit @ inverse.submatrix(slice(0, n - 1), every)
        + h.m.submatrix(every, n - 1).scale_right(lam_n) @ inverse.submatrix(n - 1, every)
        + h.m.submatrix(every, n).scale_right(lam_n1) @ inverse.submatrix(n, every)
    )


def reference_orbit_in_frame(frame: _DiagonalFrame, steps) -> IterationTrace:
    """The conjugation orbit one step at a time: each step writes its record
    from its own element, cross-checks the recursion against ``h g J h* J``
    and retracts and admits the next element."""
    mg = frame.mg
    current = frame.h_conj
    pi0 = current.a_nn1.modulus() * current.a_n1n.modulus()
    diag0 = current.a_nn.modulus() * current.a_n1n1.modulus()
    t1 = mg * (1.0 + math.sqrt(pi0))
    t2 = mg * (1.0 + math.sqrt(diag0))
    branch = "T1" if t1 < 1.0 else ("T2" if t2 < 1.0 else None)
    r_value = None
    sqrt_pi0 = math.sqrt(pi0)
    sqrt_pi1 = None

    records = []
    degenerate_at = truncated_at = diverged_at = discrepancy = None
    for k in range(steps + 1):
        pi = current.a_nn1.modulus() * current.a_n1n.modulus()
        sqrt_pi = math.sqrt(pi)
        if k == 1:
            sqrt_pi1 = sqrt_pi
            if branch == "T2":
                r_value = mg * (1.0 + sqrt_pi1)
        bound = None
        if branch == "T1":
            bound = (t1**k) * sqrt_pi0
        elif branch == "T2" and k >= 1:
            bound = (r_value ** (k - 1)) * sqrt_pi1
        bound_ok = None
        if bound is not None:
            bound_ok = sqrt_pi <= bound * (1.0 + BOUND_SLACK) + BOUND_FLOOR
        records.append(
            OrbitStep(
                k=k,
                element=current,
                pi=pi,
                sqrt_pi=sqrt_pi,
                bound=bound,
                bound_ok=bound_ok,
                corner_moduli=(current.a_nn.modulus(), current.a_nn1.modulus(),
                               current.a_n1n.modulus(), current.a_n1n1.modulus()),
                block_norms=(
                    current.alpha.norm_fro(),
                    current.beta.norm_fro(),
                    current.gamma.norm_fro(),
                    current.theta.norm_fro(),
                ),
                formula_vs_matmul=discrepancy,
            )
        )
        if pi == 0.0 and degenerate_at is None:
            degenerate_at = k
        if k == steps:
            break
        if 0.0 < pi < ORBIT_UNDERFLOW:
            truncated_at = k
            break
        inverse = _structure_inverse(current.m)
        formula = _reference_block_update(current, inverse, frame.diag[:-2], *frame.diag[-2:])
        direct = current.m @ QMatrix.diag(frame.diag) @ inverse
        discrepancy = (formula - direct).norm_max()
        try:
            current = is_member(retract(formula))
        except MembershipError as exc:
            if exc.decided:
                raise
            diverged_at = k + 1
            break
    applicable = branch is not None
    checked = [s.bound_ok for s in records if s.bound_ok is not None]
    return IterationTrace(
        steps=records,
        mg=mg,
        T1=t1,
        T2=t2,
        R=r_value,
        branch=branch,
        bounds_applicable=applicable,
        bounds_hold=applicable and all(checked),
        degenerate_at=degenerate_at,
        truncated_at=truncated_at,
        diverged_at=diverged_at,
    )


def reference_conjugation_orbit(g: SpElement, h: SpElement, steps) -> IterationTrace:
    return reference_orbit_in_frame(_diagonal_frame(g, h), steps)


def reference_fk_sequence(g: SpElement, h: SpElement, K):
    """The pullbacks one at a time, from the cross-checked orbit: each f_k
    is formed, retracted, admitted and measured alone, and every pair of
    them is compared."""
    frame = _diagonal_frame(g, h)
    trace = reference_orbit_in_frame(frame, 2 * K)
    if trace.degenerate_at is not None:
        raise DegenerateOrbitError(trace.degenerate_at, jorgensen_test(g, h).verdict)
    if trace.truncated_at is not None:
        raise NumericError(f"orbit underflowed at step {trace.truncated_at}; reduce K")
    if trace.diverged_at is not None:
        raise NumericError(f"orbit diverged at step {trace.diverged_at}: it outgrew the admission rule")
    mod_n = frame.diag[-2].modulus()
    diag = frame.diag
    top, mid, bot = slice(0, g.n - 1), g.n - 1, g.n

    elements, offs, defects, corners = [], [], [], []
    for k in range(K + 1):
        h_2k = trace.steps[2 * k].element.m
        f = QMatrix.diag([q ** -k for q in diag]) @ h_2k @ QMatrix.diag([q**k for q in diag])
        a_blk = f.submatrix(top, top)
        elements.append(is_member(retract(f)))
        offs.append((
            f.submatrix(top, mid).norm_fro(), f.submatrix(top, bot).norm_fro(),
            f.submatrix(mid, top).norm_fro(), f.submatrix(bot, top).norm_fro(),
            f[mid, bot].modulus(), f[bot, mid].modulus(),
        ))
        defects.append((a_blk @ a_blk.star() - QMatrix.identity(a_blk.rows)).norm_max())
        corners.append((f[mid, mid].modulus(), f[bot, bot].modulus()))

    converged = (
        max(offs[-1]) <= FK_CONVERGENCE_TOL
        and defects[-1] <= FK_CONVERGENCE_TOL
        and abs(corners[-1][0] - mod_n) <= FK_CONVERGENCE_TOL
        and abs(corners[-1][1] - 1.0 / mod_n) <= FK_CONVERGENCE_TOL
    )
    distinct = all(
        (elements[i].m - elements[j].m).norm_max() > 0.0
        for i in range(len(elements))
        for j in range(i + 1, len(elements))
    )
    report = FkReport(
        ks=list(range(K + 1)),
        off_block_norms=offs,
        unitarity_defects=defects,
        corner_moduli=corners,
        expanding_modulus=mod_n,
        contracting_modulus=1.0 / mod_n,
        log10_scale=[k * math.log10(mod_n) for k in range(K + 1)],
        converged=converged,
        distinct=distinct,
        threshold=FK_CONVERGENCE_TOL,
    )
    return elements, report


def reference_diagonal_frame(g: SpElement, h: SpElement) -> _DiagonalFrame:
    """The diagonal frame with ``lam_n1`` recomputed and g's diagonal admitted
    from ``QMatrix.diag`` directly."""
    data = loxodromic_data(g)
    conj = data.conjugator
    conj_inv = _structure_inverse(conj.m)
    d_mat = conj_inv @ g.m @ conj.m
    entries = [d_mat[i, i] for i in range(d_mat.rows)]
    off = (d_mat - QMatrix.diag(entries)).norm_max()
    if off > DIAGONAL_TOL:
        raise NumericError("conjugated generator is not diagonal", residual=off)
    unit_diag = tuple(q * (1.0 / q.modulus()) for q in entries[:-2])
    lam_n = entries[-2]
    lam_n1 = lam_n.conj().inverse()
    is_member(QMatrix.diag(list(unit_diag) + [lam_n, lam_n1]))  # the frame admits g's diagonal too
    h_conj = is_member(retract(conj_inv @ h.m @ conj.m))
    return _DiagonalFrame((*unit_diag, lam_n, lam_n1), h_conj, data.mg)


# -- reference JSON emitter -------------------------------------------------
#
# The emitter that ``jsonio.dumps`` reproduces byte for byte: floats are
# tagged as marked strings, the document goes through ``json.dumps`` and the
# marks are unquoted with a regex.  The ``reference_*_dict`` functions build
# the matrix, element and point documents entry by entry.


_MARK = "@float:"
_MARK_RE = re.compile('"' + re.escape(_MARK) + '([^"]*)"')


def _tag_floats(obj):
    if isinstance(obj, float):
        return _MARK + format_float(obj)
    if isinstance(obj, dict):
        return {key: _tag_floats(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_tag_floats(val) for val in obj]
    return obj


def reference_dumps(obj) -> str:
    text = json.dumps(_tag_floats(obj), indent=2, sort_keys=True)
    return _MARK_RE.sub(lambda m: m.group(1), text)


def reference_matrix_dict(m: QMatrix):
    entries = [
        [float(v) for v in m.components[i, j]] for i in range(m.rows) for j in range(m.cols)
    ]
    return {"rows": m.rows, "cols": m.cols, "entries": entries}


def reference_element_dict(g: SpElement):
    return {**reference_matrix_dict(g.m), "n": g.n, "residual": g.residual}


def reference_point_dict(p: ProjectivePoint):
    return {"lift": [[float(v) for v in p.lift.components[i, 0]] for i in range(p.lift.rows)]}


# -- reference argument parsing ------------------------------------------------


def reference_parse_args(argv):
    """The Namespace of ``argv`` from the top-level parser, which hands the
    arguments after the command name on to the subcommand's parser; the
    route that ``cli._parse_args`` shortens."""
    return _shared_parser().parse_args(argv)
