"""Shared generators for the test suite, and the reference sampler."""

import math
from collections import Counter

import numpy as np

from qhspace.errors import MembershipError, ShapeMismatchError
from qhspace.geometry import ProjectivePoint, from_lift
from qhspace.qmatrix import QMatrix
from qhspace.quaternion import Quaternion, random_unit
from qhspace.spn1 import (
    ADMISSION_TOL,
    LOXO_MODULUS_RANGE,
    NormalFormParams,
    SpElement,
    StabilizerKind,
    compose,
    group_inverse,
    is_member,
    make_normal_form,
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


def inverse_via_adjoint(m: QMatrix) -> QMatrix:
    """Generic inverse through the complex adjoint."""
    if m.rows != m.cols:
        raise ShapeMismatchError("inverse requires a square matrix")
    return QMatrix.from_adjoint(np.linalg.inv(m.adjoint()))


def diagonal_of(g: SpElement, conjugator: SpElement):
    """Diagonal entries of ``conjugator^-1 g conjugator`` plus the defect.

    Returns (entries, off_diagonal_norm); the entries are Quaternion values.
    """
    d = group_inverse(conjugator).m @ g.m @ conjugator.m
    entries = [d[i, i] for i in range(d.rows)]
    off = d - QMatrix.diag(entries)
    return entries, off.norm_max()


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


def reference_factor_params(rng, n: int) -> NormalFormParams:
    kind = rng.choice(3, p=[0.3, 0.3, 0.4])
    A = reference_unitary(rng, n - 1)
    lam = random_unit(rng)
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


def reference_sample(n, seed, count, word_length, tol=ADMISSION_TOL):
    """The admitted words, as a list, and the number of words drawn."""
    rng = np.random.default_rng(seed)
    out, attempts = [], 0
    while len(out) < count:
        attempts += 1
        if attempts > 20 * count:
            raise RuntimeError("sampler failed to produce admitted elements")
        word = QMatrix.identity(n + 1)
        for _ in range(word_length):
            word = word @ reference_normal_form(reference_factor_params(rng, n)).m
        try:
            out.append(is_member(word, tol=tol))
        except MembershipError:
            continue
    return out, attempts
