"""The isometry group Sp(n,1) of the signature-(n,1) Hermitian form.

The form on the (n+1)-dimensional right quaternionic vector space is
``<z, w> = w* J z`` with

    J = [[ I_{n-1}, 0,  0],
         [ 0,       0, -1],
         [ 0,      -1,  0]],

so the last two coordinates carry the negative swap block.  An element g
belongs to the group when ``g* J g = J``.  An admitted element's block
views read the partition

    g = [[A,     alpha,   beta  ],
         [gamma, a_nn,    a_nn1 ],
         [theta, a_n1n,   a_n1n1]]

with A of size (n-1) x (n-1), each a new read-only view of the frozen
matrix on every access; everything downstream (inversion, the thirteen
unitarity identities, corner-entry inequalities, the conjugation recursion)
is phrased in it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import MembershipError, NumericError, ParameterError, ShapeMismatchError
from .qmatrix import QMatrix, chain_product
from .quaternion import (
    ZERO,
    Quaternion,
    conj_components,
    modulus_components,
    mul_components,
)
from .tolerances import ADMISSION_TOL, CONSTRAINT_TOL, admission


@lru_cache(maxsize=32)
def form_matrix(n: int) -> QMatrix:
    """The Hermitian form matrix J for quaternionic hyperbolic n-space."""
    if n < 1:
        raise ValueError("n must be at least 1")
    j = np.zeros((n + 1, n + 1))
    for i in range(n - 1):
        j[i, i] = 1.0
    j[n - 1, n] = -1.0
    j[n, n - 1] = -1.0
    return QMatrix(j.astype(complex), np.zeros_like(j, dtype=complex)).freeze()


def herm_form(z: QMatrix, w: QMatrix) -> Quaternion:
    """Evaluate ``<z, w> = w* J z`` on two (n+1)-component column vectors."""
    if z.cols != 1 or w.cols != 1 or z.rows != w.rows:
        raise ShapeMismatchError("form arguments must be equal-length column vectors")
    return (w.star() @ _form_times(z))[0, 0]


class SpElement:
    """A matrix admitted into Sp(n,1), frozen, with views of its blocks."""

    __slots__ = ("m", "n", "residual")

    def __init__(self, m: QMatrix, n: int, residual: float):
        self.m = m.freeze()
        self.n = n
        self.residual = residual

    # -- block views -------------------------------------------------------

    @property
    def A(self) -> QMatrix:
        return self.m.submatrix(slice(0, self.n - 1), slice(0, self.n - 1))

    @property
    def alpha(self) -> QMatrix:
        return self.m.submatrix(slice(0, self.n - 1), self.n - 1)

    @property
    def beta(self) -> QMatrix:
        return self.m.submatrix(slice(0, self.n - 1), self.n)

    @property
    def gamma(self) -> QMatrix:
        return self.m.submatrix(self.n - 1, slice(0, self.n - 1))

    @property
    def theta(self) -> QMatrix:
        return self.m.submatrix(self.n, slice(0, self.n - 1))

    @property
    def a_nn(self) -> Quaternion:
        return self.m[self.n - 1, self.n - 1]

    @property
    def a_nn1(self) -> Quaternion:
        return self.m[self.n - 1, self.n]

    @property
    def a_n1n(self) -> Quaternion:
        return self.m[self.n, self.n - 1]

    @property
    def a_n1n1(self) -> Quaternion:
        return self.m[self.n, self.n]

    def __repr__(self):
        return f"SpElement(n={self.n}, residual={self.residual:.2e})"

    # -- serialization -----------------------------------------------------

    def to_json_dict(self):
        out = self.m.to_json_dict()
        out["n"] = self.n
        out["residual"] = self.residual
        return out

    @classmethod
    def from_json_dict(cls, data):
        return is_member(QMatrix.from_json_dict(data))


def membership_residual(m: QMatrix):
    """Max-norm residual of ``m* J m - J`` and its worst entry index.

    On a stack the residual and both parts of the worst index are arrays
    with one value per element.
    """
    if m.rows != m.cols:
        raise ShapeMismatchError("group elements must be square")
    if m.rows < 2:
        raise ShapeMismatchError("group elements have size at least 2")
    diff = m.star() @ _form_times(m) - form_matrix(m.rows - 1)
    moduli = diff.entry_moduli()
    if not m.is_stack:
        worst = np.unravel_index(int(np.argmax(moduli)), moduli.shape)
        return float(moduli[worst]), (int(worst[0]), int(worst[1]))
    flat = moduli.reshape(moduli.shape[:-2] + (-1,))
    return flat.max(axis=-1), divmod(np.argmax(flat, axis=-1), m.cols)


def _form_times(m: QMatrix) -> QMatrix:
    """``J m`` for a matrix, a column or a stack: J is a signed permutation, so rows move exactly.

    The parts are C-contiguous, as a product leaves them: BLAS sums a strided
    operand in another order, so each stack element keeps the bits it gets alone.
    """
    _, order, _ = _inverse_layout(m.rows - 1)
    ca, cb = m.ca.take(order, axis=-2), m.cb.take(order, axis=-2)
    for swapped in (ca[..., -2:, :], cb[..., -2:, :]):
        np.negative(swapped, out=swapped)
    return QMatrix._owning(ca, cb)


def is_member(m: QMatrix, tol=ADMISSION_TOL) -> SpElement:
    """Admit a matrix into Sp(n,1) by :func:`qhspace.tolerances.admission` at
    factor ``tol``, or raise :class:`MembershipError`."""
    residual, worst = membership_residual(m)
    scale = m.norm_max()
    admitted, decided, limit = admission(residual, scale, tol)
    if not admitted:
        raise MembershipError(residual, worst, scale, limit, decided)
    return SpElement(m.copy(), m.rows - 1, residual)


def _stack_admission(m: QMatrix, tol=ADMISSION_TOL):
    """:func:`is_member`'s rule per element of a stack, its scale taken once: the
    residuals, the admitted flags and ``refusal(k)``, element k's :class:`MembershipError`."""
    residual, (rows, cols) = membership_residual(m)
    scale = m.norm_max()
    admitted, decided, limit = admission(residual, scale, tol)

    def refusal(k):
        worst = (int(rows[k]), int(cols[k]))
        return MembershipError(float(residual[k]), worst, float(scale[k]), float(limit[k]),
                               bool(decided[k]))

    return residual, admitted, refusal


@lru_cache(maxsize=32)
def _inverse_layout(n: int):
    """Row/column order and the sign mask that turn ``g*`` into ``J g* J``.

    J swaps the last two coordinates with a sign, so ``J g* J`` is ``g*``
    with its last two rows and columns swapped and the blocks that couple
    the first n-1 coordinates to the last two negated.  ``J m`` is m in
    the same row order with its last two rows negated.
    """
    order = np.r_[0 : n - 1, n, n - 1]
    top = np.arange(n + 1) < n - 1
    return order[:, None], order, top[:, None] != top


def _structure_inverse(m: QMatrix) -> QMatrix:
    """``J m* J`` for one matrix or a stack; the inverse of a group element.

    In blocks, with the starred blocks of m moved as ``J g* J`` moves them:

        [[A*,     -theta*,       -gamma*     ],
         [-beta*,  conj(a_n1n1),  conj(a_nn1)],
         [-alpha*, conj(a_n1n),   conj(a_nn) ]]

    Only entries are moved and negated, so no rounding is involved.
    """
    rows, cols, negated = _inverse_layout(m.rows - 1)
    starred = m.star()
    ca = starred.ca[..., rows, cols]
    cb = starred.cb[..., rows, cols]
    np.negative(ca, out=ca, where=negated)
    np.negative(cb, out=cb, where=negated)
    return QMatrix(ca, cb)


def retract(m: QMatrix) -> QMatrix:
    """One Newton-Schulz step ``X (3I - X^⋆ X) / 2`` toward the group, ``X^⋆ = J X* J``.

    The polar iteration of Higham, Mackey, Mackey and Tisseur (SIAM J. Matrix
    Anal. Appl. 25, 2004): a defect ``X^⋆ X - I`` of size s becomes O(s^2).
    """
    return (m.scale_right(3.0) - m @ (_structure_inverse(m) @ m)).scale_right(0.5)


def group_inverse(g: SpElement) -> SpElement:
    """Invert via the structure formula ``g^-1 = J g* J``.

    No generic linear solve is involved: see :func:`_structure_inverse`.
    """
    inv = _structure_inverse(g.m)
    residual, _ = membership_residual(inv)
    return SpElement(inv, g.n, residual)


def _require_same_space(g_n: int, h_n: int) -> None:
    if g_n != h_n:
        raise ShapeMismatchError(f"elements act on different spaces (n = {g_n} and {h_n})")


def compose(g: SpElement, h: SpElement) -> SpElement:
    """Group product, admitted by :func:`is_member`'s rule at the product's own scale."""
    _require_same_space(g.n, h.n)
    return is_member(g.m @ h.m)


def identity_element(n: int) -> SpElement:
    return SpElement(QMatrix.identity(n + 1), n, 0.0)


def identity_residuals(g: SpElement) -> np.ndarray:
    """Max-norm residuals of the thirteen block identities of g g^-1 = g^-1 g = I.

    The identities are the displayed block entries, in fixed order: from
    ``g @ group_inverse(g) = I`` the blocks (1,1)-I, (1,2), (1,3), (2,1),
    (2,2)-1, (2,3), (3,2); then from ``group_inverse(g) @ g = I`` the blocks
    (1,1)-I, (1,2), (1,3), (2,2)-1, (2,3), (3,2).  Regression baselines rely
    on this ordering.  This is the one-element case of
    :func:`identity_residual_table`.
    """
    return identity_residual_table(g.m)


def identity_residual_table(m: QMatrix) -> np.ndarray:
    """The thirteen residuals of :func:`identity_residuals` for a matrix or a stack.

    ``m`` holds group elements of one n; the result has shape ``(..., 13)``.
    Blocks that are empty at n = 1 give 0.
    """
    n = m.rows - 1
    inv = _structure_inverse(m)
    eye = QMatrix.identity(n + 1)
    e1 = (m @ inv - eye).entry_moduli()
    e2 = (inv @ m - eye).entry_moduli()
    top, mid, bot = slice(0, n - 1), slice(n - 1, n), slice(n, n + 1)
    blocks = (
        (e1, top, top), (e1, top, mid), (e1, top, bot), (e1, mid, top),
        (e1, mid, mid), (e1, mid, bot), (e1, bot, mid),
        (e2, top, top), (e2, top, mid), (e2, top, bot),
        (e2, mid, mid), (e2, mid, bot), (e2, bot, mid),
    )
    out = np.zeros(m.ca.shape[:-2] + (len(blocks),))
    for k, (err, rows, cols) in enumerate(blocks):
        block = err[..., rows, cols]
        if block.shape[-2] and block.shape[-1]:
            out[..., k] = block.max(axis=(-2, -1))
    return out


# -- stabilizer normal forms ------------------------------------------------


class StabilizerKind(Enum):
    """Which distinguished boundary points the normal form stabilizes."""

    STAB_INFINITY = "StabInfinity"
    STAB_ZERO = "StabZero"
    STAB_BOTH = "StabBoth"


@dataclass
class NormalFormParams:
    """Parameters for a stabilizer normal form.

    ``A`` is an (n-1) x (n-1) quaternionic unitary block, ``a`` an (n-1)
    column, and the scalars must satisfy ``conj(mu) * lam = 1`` and, for the
    two parabolic-type kinds, ``Re(conj(mu) * s) = |a|^2 / 2``.
    """

    kind: StabilizerKind
    lam: Quaternion
    mu: Quaternion
    A: QMatrix | None = None
    a: QMatrix | None = None
    s: Quaternion | None = None


#: Factor kinds in the order of the sampler's kind probabilities; the
#: stacked assembler takes kinds as indices into this tuple.
_FACTOR_KINDS = (StabilizerKind.STAB_INFINITY, StabilizerKind.STAB_ZERO, StabilizerKind.STAB_BOTH)
_STAB_ZERO, _STAB_BOTH = 1, 2


def _first(mask):
    """Index of the first true entry of ``mask``, or None."""
    return int(mask.argmax()) if mask.any() else None


def _complex_pairs(comp):
    """Quaternion components of shape (count, 4) as (count, 2) complex pairs.

    The pairs are a reinterpretation of the components, so no bit changes on
    the way (``w + 1j*x`` would lose the sign of a zero).
    """
    return np.ascontiguousarray(comp, dtype=float).view(complex)


def _assemble_normal_forms(kinds, lam, mu, A: QMatrix, a: QMatrix, s):
    """Check, assemble and admit a stack of stabilizer normal forms.

    ``kinds`` indexes :data:`_FACTOR_KINDS`; ``lam``, ``mu`` and ``s`` are
    (count, 4) component arrays, ``A`` a stack of (n-1) x (n-1) unitary blocks
    and ``a`` a stack of (n-1)-columns.  StabBoth elements ignore ``a`` and
    ``s``.  Every constraint of :class:`NormalFormParams`, at
    :data:`CONSTRAINT_TOL`, and :func:`is_member`'s rule are checked per
    element; the first element that fails raises.  Returns the stack and its
    membership residuals.
    """
    pairing = modulus_components(mul_components(conj_components(mu), lam) - (1.0, 0.0, 0.0, 0.0))
    if (k := _first(pairing > CONSTRAINT_TOL)) is not None:
        raise ParameterError(f"conj(mu)*lam = 1 violated by {pairing[k]:.3e}")
    defect = (A.star() @ A - QMatrix.identity(A.rows)).norm_max()
    if (k := _first(defect > CONSTRAINT_TOL)) is not None:
        raise ParameterError(f"A is not unitary: ||A*A - I|| = {defect[k]:.3e}")
    translating = kinds != _STAB_BOTH
    a_sq = (a.components ** 2).sum(axis=(-3, -2, -1))
    re_ms = (mu * s).sum(axis=-1)  # Re(conj(mu) s) is the dot product of the components
    off = np.abs(re_ms - 0.5 * a_sq) > CONSTRAINT_TOL * np.maximum(1.0, a_sq)
    if (k := _first(off & translating)) is not None:
        raise ParameterError(
            f"Re(conj(mu)*s) = |a|^2/2 violated: {re_ms[k]:.6e} vs {0.5 * a_sq[k]:.6e}"
        )

    # Layouts, with m = n - 1 and b = lam a* A:
    #   StabInfinity [[A, 0, a], [b, lam, s], [0, 0, mu]]
    #   StabZero     [[A, a, 0], [0, mu, 0], [b, s, lam]]
    #   StabBoth     [[A, 0, 0], [0, lam, 0], [0, 0, mu]]
    # StabZero is StabInfinity with the last two rows and columns swapped, so
    # lam sits at (lo, lo), mu at (hi, hi), s at (lo, hi), a in column hi and
    # b in row lo.
    lam_p, mu_p, s_p = _complex_pairs(lam), _complex_pairs(mu), _complex_pairs(s)
    b_row = (a.star() @ A).scale_left(QMatrix(lam_p[:, 0, None, None], lam_p[:, 1, None, None]))
    count, m = len(kinds), A.rows
    n = m + 1
    zero = kinds == _STAB_ZERO
    lo = np.where(zero, n, m)
    hi = np.where(zero, m, n)
    idx = np.arange(count)
    t_idx, t_lo, t_hi = idx[translating], lo[translating], hi[translating]

    def layout(part, A, a, b):
        out = np.zeros((count, n + 1, n + 1), complex)
        out[:, :m, :m] = A
        out[idx, lo, lo] = lam_p[:, part]
        out[idx, hi, hi] = mu_p[:, part]
        out[t_idx, t_lo, t_hi] = s_p[translating, part]
        out[t_idx, :m, t_hi] = a[translating, :, 0]
        out[t_idx, t_lo, :m] = b[translating, 0, :]
        return out

    mats = QMatrix(layout(0, A.ca, a.ca, b_row.ca), layout(1, A.cb, a.cb, b_row.cb))
    residual, admitted, refusal = _stack_admission(mats)
    if (k := _first(~admitted)) is not None:
        raise refusal(k)
    return mats, residual


def make_normal_form(p: NormalFormParams) -> SpElement:
    """Assemble a stabilizer normal form and admit it into the group."""
    translating = p.kind is not StabilizerKind.STAB_BOTH
    if p.A is None:
        raise ParameterError(f"{p.kind.value} requires the unitary block A")
    if translating and (p.a is None or p.s is None):
        raise ParameterError(f"{p.kind.value} requires A, a and s")
    m = p.A.rows
    a = p.a if translating else QMatrix.zeros(m, 1)
    if a.rows != m or a.cols != 1:
        raise ShapeMismatchError("a must be an (n-1)-component column")
    s = p.s if translating else ZERO
    mats, residual = _assemble_normal_forms(
        np.array([_FACTOR_KINDS.index(p.kind)]),
        np.array([p.lam.to_json()]),
        np.array([p.mu.to_json()]),
        QMatrix(p.A.ca[None], p.A.cb[None]),
        QMatrix(a.ca[None], a.cb[None]),
        np.array([s.to_json()]),
    )
    return SpElement(QMatrix(mats.ca[0], mats.cb[0]), m + 1, float(residual[0]))


def make_loxodromic(unit_eigs, lam_n: Quaternion) -> SpElement:
    """Diagonal loxodromic element diag(unit_eigs, lam_n, conj(lam_n)^-1)."""
    unit_eigs = list(unit_eigs)
    for idx, q in enumerate(unit_eigs):
        if abs(q.modulus() - 1.0) > CONSTRAINT_TOL:
            raise ParameterError(f"unit eigenvalue {idx} has modulus {q.modulus():.12f}")
    if abs(lam_n.modulus() - 1.0) <= CONSTRAINT_TOL:
        raise ParameterError("not loxodromic: |lam_n| = 1 within tolerance")
    lam_last = lam_n.conj().inverse()
    return is_member(QMatrix.diag(unit_eigs + [lam_n, lam_last]))


# -- seeded random elements ---------------------------------------------------

#: Modulus range for loxodromic factors in the sampler.  It sets how fast a
#: word's scale, and with it the admission limit, grows with its length: at
#: n = 3 the limit reaches 1 (membership undecided) at about 96 factors.
LOXO_MODULUS_RANGE = (1.01, 1.3)
_TRANSLATION_SCALE = 0.35


#: Cumulative probabilities of StabInfinity, StabZero and StabBoth factors.
#: ``Generator.choice(3, p=(0.3, 0.3, 0.4))`` draws one ``random()`` and
#: bisects exactly this table, so bisecting it here draws the same kinds from
#: the same stream without the cost of ``choice``.
_FACTOR_KIND_CDF = (0.3, 0.6, 1.0)


def _orthonormal_columns(draws) -> QMatrix:
    """Quaternionic Gram-Schmidt on drawn columns, for one matrix or a stack.

    ``draws`` has shape (..., m, m, 1, 4) and ``draws[..., k, :, :, :]`` holds
    the components of column k.
    """
    cols = [QMatrix.from_components(draws[..., k, :, :, :]) for k in range(draws.shape[-4])]
    # A second pass removes first-pass drift.
    for _ in range(2):
        out = []
        for v in cols:
            for u in out:
                v = v - u.scale_right(u.star() @ v)
            out.append(v.scale_right(1.0 / v.norm_fro()))
        cols = out
    ca = np.empty(draws.shape[:-2], complex)
    cb = np.empty_like(ca)
    for k, col in enumerate(cols):
        ca[..., k] = col.ca[..., 0]
        cb[..., k] = col.cb[..., 0]
    return QMatrix(ca, cb)


def random_unitary(rng, m: int) -> QMatrix:
    """Haar-ish random element of U(m; H) via quaternionic Gram-Schmidt."""
    if m == 0:
        return QMatrix.zeros(0, 0)
    return _orthonormal_columns(rng.standard_normal((m, m, 1, 4)))


def _random_factors(rng, n: int, length: int) -> QMatrix:
    """Draw and assemble ``length`` stabilizer factors, in stream order.

    With m = n - 1, each factor draws, in this order:

    * one ``random()`` that picks its kind from :data:`_FACTOR_KIND_CDF`;
    * one block of normals: the m columns of A (4m^2 values), the 4 of the
      unit quaternion and, for StabInfinity and StabZero only, the 4m of the
      translation a and the 3 of the imaginary part of s;
    * for StabBoth only, one ``random()`` and, when it is below 0.6, one
      ``uniform`` for the log-modulus of the loxodromic stretch.

    One normal block takes the values that drawing its parts one after
    another takes.  The loop only draws; lam, mu and s are finished as
    arrays afterwards, and everything after the draws runs on the whole
    stack.
    """
    m = n - 1
    log_lo, log_hi = (math.log(x) for x in LOXO_MODULUS_RANGE)
    a_end = 4 * m * m  # A's normals, then lam's 4, a's 4m and s's 3
    lam_end = a_end + 4
    width = lam_end + 4 * m + 3
    kinds = np.empty(length, dtype=np.intp)
    normals = np.zeros((length, width))
    stretch = np.ones(length)
    random, normal = rng.random, rng.standard_normal
    for k in range(length):
        kind = kinds[k] = bisect.bisect_right(_FACTOR_KIND_CDF, random())
        if kind == _STAB_BOTH:
            normal(out=normals[k, :lam_end])
            if random() < 0.6:
                stretch[k] = math.exp(rng.uniform(log_lo, log_hi))
        else:
            normal(out=normals[k])
    # lam is the drawn 4-vector over its norm, times the stretch; the norm is
    # the square root of the BLAS dot product, as ``np.linalg.norm`` takes it,
    # and mu = conj(lam)^-1 = lam/|lam|^2 squares like ``Quaternion.modulus_sq``
    # (``np.float_power`` is the C ``pow`` that Python's ``**`` calls) and sums
    # left to right.
    v = normals[:, a_end:lam_end]
    norms = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
    lam = v / norms[:, None] * stretch[:, None]
    sq = np.float_power(lam, 2)
    mu = lam / (sq[:, 0] + sq[:, 1] + sq[:, 2] + sq[:, 3])[:, None]
    imag = np.zeros((length, 4))
    imag[:, 1:] = normals[:, width - 3 :]
    shift = normals[:, lam_end : width - 3].reshape(length, m, 1, 4)
    a = QMatrix.from_components(_TRANSLATION_SCALE * shift)
    a_sq = (a.entry_moduli() ** 2).sum(axis=(-2, -1))
    # s = mu |a|^2/2 + mu * imag, so that Re(conj(mu) s) = |a|^2/2.
    s = mu * (0.5 * a_sq)[:, None] + mul_components(mu, _TRANSLATION_SCALE * imag)
    unitary = normals[:, :a_end].reshape(length, m, m, 1, 4)
    mats, _ = _assemble_normal_forms(kinds, lam, mu, _orthonormal_columns(unitary), a, s)
    return mats


#: The most words :func:`sample_elements` draws and multiplies as one stack,
#: which bounds its memory for a large ``count``.
_WORD_CHUNK = 64


def sample_elements(n: int, seed: int, count: int, word_length: int = 8, tol=ADMISSION_TOL):
    """Yield ``count`` admitted random elements from one seeded PCG64 stream.

    Each element is a word of ``word_length`` random stabilizer normal forms,
    multiplied left to right starting from the identity.  Byte-identical
    artifacts rest on this contract:

    * one ``numpy.random.default_rng(seed)`` stream feeds every draw, in a
      fixed order: word by word, and within a word factor by factor, each
      factor one ``random()`` for its kind, one block of normals (the
      unitary block, lam and, for StabInfinity and StabZero, the
      translation and the imaginary part of s), then, for StabBoth, the
      uniforms of the loxodromic stretch (see :func:`_random_factors`);
    * a word whose product fails :func:`is_member`'s rule at factor ``tol``
      is discarded and a new word is drawn from where the stream stands, so
      the redraw consumes the same values at every run;
    * after ``20 * count`` words in total the sampler gives up with a
      :class:`NumericError` that names why the last rejected word failed.

    The generator is lazy by chunks: when it needs a word it draws all the
    words still missing (at most a fixed number, and never past the
    ``20 * count`` limit), assembles, multiplies and admits them as one
    stack, and then yields the admitted ones in order.  Words never share
    draws, so chunking does not change the stream or the elements.  It does
    move errors earlier: a factor of a later word in a chunk that fails its
    own checks raises before the earlier words of that chunk are yielded.
    """
    if n < 1 or count < 1 or word_length < 1:
        raise ValueError("n, count and word_length must be positive")
    rng = np.random.default_rng(seed)
    produced = 0
    attempts = 0
    rejection = None
    while produced < count:
        chunk = min(count - produced, _WORD_CHUNK, 20 * count - attempts)
        if chunk == 0:
            raise NumericError(
                f"sampler admitted {produced} of {count} elements in {attempts} words "
                f"at factor {tol:.3e}; the last word refused: {rejection}"
            )
        factors = _random_factors(rng, n, chunk * word_length)
        shape = (chunk, word_length, n + 1, n + 1)
        words = chain_product(QMatrix._owning(factors.ca.reshape(shape), factors.cb.reshape(shape)))
        attempts += chunk
        residuals, admitted, refusal = _stack_admission(words, tol)
        for k in range(chunk):
            if not admitted[k]:
                rejection = refusal(k)
                continue
            yield SpElement(QMatrix(words.ca[k], words.cb[k]), n, float(residuals[k]))
            produced += 1


def random_element(n: int, seed: int, word_length: int = 8) -> SpElement:
    """One admitted random element; deterministic for a fixed seed."""
    return next(sample_elements(n, seed, 1, word_length))
