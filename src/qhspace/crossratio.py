"""Quaternionic cross-ratios and the corner-entry inequality battery.

The cross-ratio of four points of the closed domain is the ordered product

    [z1, z2, w1, w2] = <w1,z1> <w1,z2>^-1 <w2,z2> <w2,z1>^-1

evaluated on chosen lifts.  The value itself depends on the lifts (the
factors do not commute), but its absolute value

    |[z1,z2,w1,w2]| = |<w1,z1><w2,z2>| / |<w1,z2><w2,z1>|

does not.  :func:`_brackets` takes the discreteness test's two brackets
[h(u), v, u, h(v)] and [h(u), u, v, h(v)] on any lift stack [u, v].  At
g's fixed points their numerators are h's corner entries in the frame where
g is diagonal; at the boundary points qinf and q0 they are h's own corner
entries, and the brackets are the corner-entry identities that
:func:`entry_identity_table` checks.  So ``test`` and ``verify`` evaluate
one identity through one function, each with its own rule for the
denominators.

Every pairing is taken by :func:`_cross_ratio_parts` on a stack of lifts:
a loxodromic element's fixed-point lift stack [u, v] when it is certified,
the stacks [u, v, h(u), h(v)] of the brackets and [u, v, p, q] of the
test's shared-point certificate; :func:`cross_ratio` uses it too.  A caller
names the pairings it wants once, as a constant index table
(:func:`_pairing_table`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmatrix import QMatrix
from .quaternion import Quaternion
from .spn1 import SpElement, _form_times
from .tolerances import pairing_vanishes


@dataclass(frozen=True)
class CrossRatioValue:
    """Lift-dependent value, lift-independent absolute value, degeneracy flag."""

    value: Quaternion
    abs_value: float
    degenerate: bool
    vanishing: tuple = ()


_PAIRING_NAMES = ("w1z1", "w1z2", "w2z2", "w2z1")
#: For each pairing, the positions in (z1, z2, w1, w2) of its two lifts.
_PAIRING_LIFTS = ((2, 0), (2, 1), (3, 1), (3, 0))


def _pairing_table(index):
    """The (w, z) stack positions of the four pairings, in :data:`_PAIRING_NAMES`
    order, of the cross-ratios whose z1, z2, w1 and w2 sit at ``index``: four
    integers, or four equal-shape arrays for a stack of cross-ratios.  A caller
    builds its table once, as a constant; the result has shape ``(2, 4, ...)``."""
    return np.asarray(index)[np.transpose(_PAIRING_LIFTS)]


#: The table of one cross-ratio of the lifts z1, z2, w1, w2 in stack order.
_CROSS_RATIO = _pairing_table((0, 1, 2, 3))
#: Bracket k takes z1, z2, w1 and w2 from column k of this index into the
#: lifts a, b, h(a), h(b).
_BRACKETS = _pairing_table([[2, 2], [1, 0], [0, 1], [3, 3]])


def _moduli(m: QMatrix) -> np.ndarray:
    """Entry moduli with the bits of :meth:`Quaternion.modulus`.

    That method squares with Python's ``**``, which calls the C library's
    ``pow``; ``float_power`` calls it too, while ``x * x`` differs from it in
    the last bit for about one value in a thousand.  The squares are summed
    in the same order.
    """
    w, x, y, z = (np.float_power(part, 2.0) for part in (m.ca.real, m.ca.imag, m.cb.real, m.cb.imag))
    return np.sqrt(((w + x) + y) + z)


def _cross_ratio_parts(lifts: QMatrix, table=_CROSS_RATIO, norms=None):
    """Pairings, their moduli and vanishing flags, taken from a stack of lifts.

    ``table`` comes from :func:`_pairing_table` and ``norms`` are the norms
    of the lifts when the caller has them already.  This is the library's one
    way to take a pairing: every pairing ``<w, z> = w* J z`` asked for is one
    slice of a single stacked product, with J applied by moving rows, so each
    keeps the bits it has alone, and the norms of the lifts are taken once, as
    one stack.  Returns the pairings (1 x 1 matrices) and their moduli and
    vanishing flags, each with the pairing axis first, the shape of the
    table's index after it and then any axes of ``lifts`` between its first
    (the lift axis, along which the norms are taken) and its last two.  The
    flags are one call of the library's one rule for a zero pairing,
    :func:`~qhspace.tolerances.pairing_vanishes`.
    """
    w_index, z_index = table
    w, z = (QMatrix._owning(lifts.ca.take(k, 0), lifts.cb.take(k, 0)) for k in table)
    pairings = w.star() @ _form_times(z)
    moduli = _moduli(pairings)[..., 0, 0]
    norms = lifts.norm_fro() if norms is None else norms
    return pairings, moduli, pairing_vanishes(moduli, norms.take(w_index, 0), norms.take(z_index, 0))


def _joined(a: QMatrix, b: QMatrix) -> QMatrix:
    """Two lift stacks as one along the first axis, ``a`` first, each
    broadcast against the other's remaining axes."""
    return QMatrix._owning(*(np.concatenate(np.broadcast_arrays(x, y)) for x, y in ((a.ca, b.ca), (a.cb, b.cb))))


def _brackets(h: QMatrix, lifts: QMatrix):
    """Moduli and vanishing flags of the pairings of [h(a), b, a, h(b)] and
    [h(a), a, b, h(b)] for the lift stack ``lifts`` = [a, b].

    ``h`` is a matrix or a stack, broadcast against the axes of the lifts
    after the first.  h(a) and h(b) are one product ``h [a, b]``, and the
    eight pairings come from one :func:`_cross_ratio_parts` call on the stack
    a, b, h(a), h(b).  Both results have shape ``(4, 2, ...)``: the pairings
    in :data:`_PAIRING_NAMES` order, then the two brackets.  Numerators and
    denominators are left to the caller, which keeps its own rule for a
    vanishing denominator.
    """
    _, moduli, vanishing = _cross_ratio_parts(_joined(lifts, h @ lifts), _BRACKETS)
    return moduli, vanishing


def _names(flags) -> tuple:
    return tuple(name for name, flag in zip(_PAIRING_NAMES, flags) if flag)


def cross_ratio(z1, z2, w1, w2) -> CrossRatioValue:
    """Cross-ratio of four points evaluated on their stored lifts.

    The quaternion product is taken strictly left to right; no reassociation
    is performed, since the factors do not commute.  The result is flagged
    degenerate when one of the inverted pairings vanishes; a vanishing
    numerator is ordinary data (the value is zero).
    """
    pairings, moduli, vanishing = _cross_ratio_parts(QMatrix.stack([z1.lift, z2.lift, w1.lift, w2.lift]))
    names = _names(vanishing)
    if vanishing[1] or vanishing[3]:
        return CrossRatioValue(Quaternion(math.nan), math.nan, True, names)
    f_w1z1, f_w1z2, f_w2z2, f_w2z1 = map(Quaternion.from_complex_pair, pairings.ca.flat, pairings.cb.flat)
    value = f_w1z1 * f_w1z2.inverse() * f_w2z2 * f_w2z1.inverse()
    return CrossRatioValue(value, float(moduli[0] * moduli[2] / (moduli[1] * moduli[3])), False, names)


@dataclass(frozen=True)
class EntryIdentityReport:
    """Both corner-entry identities of one element.

    ``lhs1``/``rhs1`` compare the cross-ratio |[h(qinf), q0, qinf, h(q0)]|
    with |a_n1n * a_nn1|; ``lhs2``/``rhs2`` compare |[h(qinf), qinf, q0,
    h(q0)]| with |a_nn * a_n1n1|.  ``vanishing1``/``vanishing2`` name the
    pairings that vanished, which is how stabilizer-type degeneracies are
    reported.
    """

    lhs1: float
    rhs1: float
    lhs2: float
    rhs2: float
    vanishing1: tuple
    vanishing2: tuple

    @property
    def degenerate(self):
        return bool(self.vanishing1 or self.vanishing2)


def entry_identity_check(h: SpElement) -> EntryIdentityReport:
    """Evaluate both cross-ratio / corner-entry identities for h.

    This is the one-element case of :func:`entry_identity_table`.
    """
    lhs, rhs, vanishing = entry_identity_table(h.m)
    return EntryIdentityReport(
        lhs1=float(lhs[0]),
        rhs1=float(rhs[0]),
        lhs2=float(lhs[1]),
        rhs2=float(rhs[1]),
        vanishing1=_names(vanishing[0]),
        vanishing2=_names(vanishing[1]),
    )


def entry_identity_table(m: QMatrix):
    """Both corner-entry identities for a group element or a stack of them.

    Returns ``(lhs, rhs, vanishing)``: ``lhs`` and ``rhs`` have shape
    ``(..., 2)`` with the two identities of :class:`EntryIdentityReport` on
    the last axis (``lhs`` is NaN where ``<q0, qinf>`` or ``<h(qinf),
    h(q0)>`` vanishes), and ``vanishing`` has shape ``(..., 2, 4)`` with the
    pairing flags in :data:`_PAIRING_NAMES` order.

    These are the discreteness test's brackets (:func:`_brackets`) on the
    unit lifts of qinf and q0: ``rhs`` is the product of each bracket's
    numerators, whose moduli are h's corner entries, and ``lhs`` the bracket.
    The bits are those of :func:`cross_ratio`.
    """
    n = m.rows - 1
    # The unit lifts [qinf, q0], with an axis of length 1 per stack axis of m.
    units = np.eye(n + 1, dtype=complex)[n - 1 :].reshape((2,) + (1,) * (m.ca.ndim - 2) + (n + 1, 1))
    moduli, vanishing = _brackets(m, QMatrix._owning(units, np.zeros_like(units)))
    rhs = moduli[0] * moduli[2]
    lhs = np.full(rhs.shape, math.nan)
    np.divide(rhs, moduli[1] * moduli[3], out=lhs, where=~(vanishing[1] | vanishing[3]))
    return np.moveaxis(lhs, 0, -1), np.moveaxis(rhs, 0, -1), np.moveaxis(vanishing, (0, 1), (-1, -2))


def corner_bound_slacks(h: SpElement) -> np.ndarray:
    """Signed slacks of the five corner-entry inequalities of a group element.

    With p = |a_nn * a_n1n1|^(1/2) and q = |a_nn1 * a_n1n|^(1/2) the bounds
    are

        |beta* alpha|  <= 2 p q
        |gamma theta*| <= 2 p q
        p <= q + 1
        q <= p + 1
        p + q >= 1

    and each slack is (bound side) - (bounded side), so membership forces all
    five to be non-negative up to rounding.  This is the one-element case of
    :func:`corner_slack_table`.
    """
    return corner_slack_table(h.m)


def corner_slack_table(m: QMatrix) -> np.ndarray:
    """The five slacks of :func:`corner_bound_slacks` for a matrix or a stack.

    The result has shape ``(..., 5)``.
    """
    n = m.rows - 1
    top, mid, bot = slice(0, n - 1), slice(n - 1, n), slice(n, n + 1)
    corners = _moduli(m.submatrix(slice(n - 1, n + 1), slice(n - 1, n + 1)))
    p = np.sqrt(corners[..., 0, 0] * corners[..., 1, 1])
    q = np.sqrt(corners[..., 0, 1] * corners[..., 1, 0])
    alpha, beta = m.submatrix(top, mid), m.submatrix(top, bot)
    gamma, theta = m.submatrix(mid, top), m.submatrix(bot, top)
    beta_alpha = _moduli(beta.star() @ alpha)[..., 0, 0]
    gamma_theta = _moduli(gamma @ theta.star())[..., 0, 0]
    return np.stack(
        [
            2.0 * p * q - beta_alpha,
            2.0 * p * q - gamma_theta,
            (q + 1.0) - p,
            (p + 1.0) - q,
            (p + q) - 1.0,
        ],
        axis=-1,
    )
