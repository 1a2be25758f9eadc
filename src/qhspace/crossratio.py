"""Quaternionic cross-ratios and the corner-entry inequality battery.

The cross-ratio of four points of the closed domain is the ordered product

    [z1, z2, w1, w2] = <w1,z1> <w1,z2>^-1 <w2,z2> <w2,z1>^-1

evaluated on chosen lifts.  The value itself depends on the lifts (the
factors do not commute), but its absolute value

    |[z1,z2,w1,w2]| = |<w1,z1><w2,z2>| / |<w1,z2><w2,z1>|

does not.  Cross-ratios against the distinguished boundary points recover
the corner entries of a group element, which is what links them to the
discreteness condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmatrix import QMatrix
from .quaternion import Quaternion
from .spn1 import SpElement, form_matrix
from .tolerances import DEGENERACY_TOL


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


def _moduli(m: QMatrix) -> np.ndarray:
    """Entry moduli with the bits of :meth:`Quaternion.modulus`.

    That method squares with Python's ``**``, which calls the C library's
    ``pow``; ``float_power`` calls it too, while ``x * x`` differs from it in
    the last bit for about one value in a thousand.  The squares are summed
    in the same order.
    """
    w, x, y, z = (np.float_power(part, 2.0) for part in (m.ca.real, m.ca.imag, m.cb.real, m.cb.imag))
    return np.sqrt(((w + x) + y) + z)


def _cross_ratio_parts(z1: QMatrix, z2: QMatrix, w1: QMatrix, w2: QMatrix):
    """Pairings, vanishing flags and |cross-ratio| of four lifts.

    Each lift is a column or a stack of columns.  Returns the four pairings
    ``<w, z> = w* J z`` (stacks of 1 x 1 matrices, in :data:`_PAIRING_NAMES`
    order), the vanishing flags with a last axis in the same order, the
    degeneracy flags, and the absolute value, NaN where the cross-ratio is
    degenerate.
    """
    j = form_matrix(z1.rows - 1)
    jz1, jz2 = j @ z1, j @ z2
    w1s, w2s = w1.star(), w2.star()
    pairings = [w1s @ jz1, w1s @ jz2, w2s @ jz2, w2s @ jz1]
    moduli = [_moduli(f)[..., 0, 0] for f in pairings]
    norms = [lift.norm_fro() for lift in (z1, z2, w1, w2)]
    flags = [mod <= DEGENERACY_TOL * norms[a] * norms[b] for mod, (a, b) in zip(moduli, _PAIRING_LIFTS)]
    vanishing = np.stack(np.broadcast_arrays(*flags), axis=-1)
    degenerate = vanishing[..., 1] | vanishing[..., 3]
    abs_value = np.full(degenerate.shape, math.nan)
    np.divide(moduli[0] * moduli[2], moduli[1] * moduli[3], out=abs_value, where=~degenerate)
    return pairings, vanishing, degenerate, abs_value


def _names(flags) -> tuple:
    return tuple(name for name, flag in zip(_PAIRING_NAMES, flags) if flag)


def cross_ratio(z1, z2, w1, w2) -> CrossRatioValue:
    """Cross-ratio of four points evaluated on their stored lifts.

    The quaternion product is taken strictly left to right; no reassociation
    is performed, since the factors do not commute.  The result is flagged
    degenerate when one of the inverted pairings vanishes; a vanishing
    numerator is ordinary data (the value is zero).
    """
    pairings, vanishing, degenerate, abs_value = _cross_ratio_parts(
        z1.lift, z2.lift, w1.lift, w2.lift
    )
    names = _names(vanishing)
    if degenerate:
        return CrossRatioValue(Quaternion(math.nan), math.nan, True, names)
    f_w1z1, f_w1z2, f_w2z2, f_w2z1 = (f[0, 0] for f in pairings)
    value = f_w1z1 * f_w1z2.inverse() * f_w2z2 * f_w2z1.inverse()
    return CrossRatioValue(value, float(abs_value), False, names)


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
    the last axis (``lhs`` is NaN where its cross-ratio is degenerate), and
    ``vanishing`` has shape ``(..., 2, 4)`` with the pairing flags in
    :data:`_PAIRING_NAMES` order.
    """
    n = m.rows - 1
    # The lifts of q_infinity(n) and q_zero(n) are the last two unit columns.
    unit = QMatrix.identity(n + 1)
    qi = unit.submatrix(slice(0, n + 1), n - 1)
    qz = unit.submatrix(slice(0, n + 1), n)
    h_qi = m @ qi
    h_qz = m @ qz
    _, vanishing1, _, lhs1 = _cross_ratio_parts(h_qi, qz, qi, h_qz)
    _, vanishing2, _, lhs2 = _cross_ratio_parts(h_qi, qi, qz, h_qz)
    corners = _moduli(m.submatrix(slice(n - 1, n + 1), slice(n - 1, n + 1)))
    # corners = [[|a_nn|, |a_nn1|], [|a_n1n|, |a_n1n1|]]
    rhs1 = corners[..., 1, 0] * corners[..., 0, 1]
    rhs2 = corners[..., 0, 0] * corners[..., 1, 1]
    return (
        np.stack([lhs1, lhs2], axis=-1),
        np.stack([rhs1, rhs2], axis=-1),
        np.stack([vanishing1, vanishing2], axis=-2),
    )


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
