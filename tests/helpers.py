"""Shared generators for the test suite, the reference sampler, the
per-element reference checks and the reference JSON emitter."""

import json
import math
import re
from collections import Counter

import numpy as np

from qhspace.crossratio import DEGENERACY_TOL, CrossRatioValue, EntryIdentityReport
from qhspace.errors import MembershipError, NumericError, ShapeMismatchError
from qhspace.geometry import ProjectivePoint, apply, from_lift, q_infinity, q_zero
from qhspace.jsonio import format_float
from qhspace.qmatrix import QMatrix
from qhspace.quaternion import Quaternion
from qhspace.spn1 import (
    ADMISSION_TOL,
    LOXO_MODULUS_RANGE,
    NormalFormParams,
    SpElement,
    StabilizerKind,
    compose,
    form_matrix,
    group_inverse,
    herm_form,
    identity_element,
    is_member,
    make_loxodromic,
    make_normal_form,
    membership_residual,
    sample_elements,
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

    It gives up after ``20 * count`` words with the message and residual that
    ``spn1.sample_elements`` uses.
    """
    words = reference_words(n, seed, word_length)
    produced = attempts = 0
    residual = None
    while produced < count:
        attempts += 1
        if attempts > 20 * count:
            raise NumericError(
                f"sampler admitted {produced} of {count} elements in {attempts - 1} words "
                f"at tolerance {tol:.3e}",
                residual=residual,
            )
        try:
            element = is_member(next(words), tol=tol)
        except MembershipError as exc:
            residual = exc.residual
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
    """The ``verify`` document, built element by element from the references."""
    membership_worst = 0.0
    identity_worst = np.zeros(13)
    slack_worst = np.full(5, np.inf)
    entry_worst = 0.0
    degenerate_entries = 0
    produced = 0
    for element in sample_elements(n, seed, count, word_length):
        produced += 1
        membership_worst = max(membership_worst, element.residual)
        identity_worst = np.maximum(identity_worst, reference_identity_residuals(element))
        slack_worst = np.minimum(slack_worst, reference_corner_bound_slacks(element))
        report = reference_entry_identity_check(element)
        if report.degenerate:
            degenerate_entries += 1
        else:
            entry_worst = max(
                entry_worst,
                abs(report.lhs1 - report.rhs1) / max(report.rhs1, 1e-300),
                abs(report.lhs2 - report.rhs2) / max(report.rhs2, 1e-300),
            )
    checks = {
        "membership_max": (membership_worst, membership_worst <= tol),
        "identity_residual_max": (float(identity_worst.max()), identity_worst.max() <= tol),
        "corner_slack_min": (float(slack_worst.min()), slack_worst.min() >= -tol),
        "entry_identity_rel_max": (entry_worst, entry_worst <= tol),
    }
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


def reference_dumps(obj, indent=2) -> str:
    text = json.dumps(_tag_floats(obj), indent=indent, sort_keys=True)
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
