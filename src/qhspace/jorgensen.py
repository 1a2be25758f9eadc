"""Jørgensen-type discreteness test for pairs with a loxodromic generator.

For loxodromic g with invariant ``mg`` and fixed points u (attracting) and
v (repelling), the test evaluates

    mg * (1 + |[h(u), v, u, h(v)]|^(1/2)) < 1    or
    mg * (1 + |[h(u), u, v, h(v)]|^(1/2)) < 1.

If either holds, the group generated by g and h is elementary or not
discrete.  Both are evaluated on g's frame columns [u, v']
(``LoxodromicData.null_pair``, defined in ``spectral``) directly by
:func:`~qhspace.crossratio._brackets`, which ``verify`` calls at qinf and
q0 for its corner-entry identities.  Their numerators are the corner entries
of h in the frame where g is diagonal, and whether they vanish (the one zero
rule) decides whether h fixes or exchanges the fixed points, which routes the
pair to the verdicts of :func:`elementary_certificate`; its shared-point
check joins g's lift stack to h's.

The diagonal frame serves only the instrumented orbit ``h_{k+1} = h_k g
h_k^-1``, and keeps g's diagonal once, as ``_DiagonalFrame.diag``.  Its loop
runs only the recursion, a sum over h's column blocks, each scaled by its
entries of g's diagonal and multiplied by the matching row block of the
structure inverse ``J h* J``, until pi underflows or an element outgrows the
admission rule.  The records are read afterwards from the orbit
as one stack: the corner products ``pi_k`` against the geometric contraction
bound, the block norms, and the recursion cross-checked against direct
matrix conjugation in one stacked product.  The pullback sequence ``f_k =
g^-k h_{2k} g^k`` then witnesses non-discreteness.  It skips the cross-check
and forms every f_k, h_{2k} between two diagonal matrices of eigenvalue
powers, as one stack.  Its off-diagonal blocks decay while the elements stay
pairwise distinct.

Each step forms ``h g J h* J``, which doubles any drift of h off the group,
so every matrix of the frame is retracted onto the group before admission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .crossratio import _brackets, _cross_ratio_parts, _joined, _moduli
from .errors import ClassificationError, MembershipError, NumericError
from .qmatrix import QMatrix
from .spectral import LoxodromicData, _fixed_point_data, _lift, loxodromic_data
from .spn1 import (
    SpElement, _first, _require_same_space, _stack_admission, _structure_inverse, is_member, make_loxodromic, retract,
)
from .tolerances import (
    BOUND_FLOOR,
    BOUND_SLACK,
    DIAGONAL_TOL,
    FK_CONVERGENCE_TOL,
    ORBIT_UNDERFLOW,
)

#: Default iteration cap; geometric decay makes longer orbits pointless.
DEFAULT_ORBIT_STEPS = 64


class Verdict(Enum):
    CONDITION_HOLDS = "ConditionHolds_ElementaryOrNonDiscrete"
    INCONCLUSIVE = "Inconclusive"
    DEGENERATE_ELEMENTARY = "Degenerate_Elementary"
    DEGENERATE_NON_DISCRETE = "Degenerate_NonDiscrete_SharedFixedPoint"


class Certificate(Enum):
    PRESERVES_PAIR = "PreservesPair"
    FIXES_ONE_SWAPS_NONE = "FixesOne_SwapsNone"
    SHARES_EXACTLY_ONE = "SharesExactlyOne"
    NEITHER = "Neither"


class DegenerateOrbitError(RuntimeError):
    """Raised when an orbit hits an exactly vanishing corner product."""

    def __init__(self, step, verdict):
        self.step = step
        self.verdict = verdict
        super().__init__(
            f"corner product vanished at step {step}; fixed-point analysis says {verdict.value}"
        )


@dataclass(frozen=True)
class TestOutcome:
    """Result of :func:`jorgensen_test`.

    ``cross_abs1``/``cross_abs2`` are the two bracket values of the test
    condition.  The verdict never claims discreteness: it is a certificate
    of which branch fired, and Inconclusive is a first-class outcome.
    """

    verdict: Verdict
    mg: float
    cross_abs1: float
    cross_abs2: float
    witnesses: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "verdict": self.verdict.value,
            "mg": self.mg,
            "crossAbs1": self.cross_abs1,
            "crossAbs2": self.cross_abs2,
            "witnesses": self.witnesses,
        }


@dataclass(frozen=True)
class _DiagonalFrame:
    """The pair (g, h) conjugated so that g is exactly diagonal; ``diag`` is
    g's diagonal there (the unit classes, then lam_n and lam_n1)."""

    diag: tuple
    h_conj: SpElement
    mg: float


def _diagonal_frame(g: SpElement, h: SpElement) -> _DiagonalFrame:
    _require_same_space(g.n, h.n)
    data = loxodromic_data(g)
    conj = data.conjugator.m
    conj_inv = _structure_inverse(conj)
    d_mat = conj_inv @ g.m @ conj
    entries = [d_mat[i, i] for i in range(d_mat.rows)]
    off = (d_mat - QMatrix.diag(entries)).norm_max()
    if off > DIAGONAL_TOL:
        raise NumericError("conjugated generator is not diagonal", residual=off)
    # Snap to an exactly admitted diagonal: unit classes get unit modulus and
    # the contracting entry is recomputed from the expanding one.
    unit_diag = tuple(q * (1.0 / q.modulus()) for q in entries[:-2])
    lam_n = entries[-2]
    lam_n1 = make_loxodromic(unit_diag, lam_n).a_n1n1
    h_conj = is_member(retract(conj_inv @ h.m @ conj))
    return _DiagonalFrame((*unit_diag, lam_n, lam_n1), h_conj, data.mg)


def _fixed_point_brackets(data: LoxodromicData, h: SpElement):
    """``(cross_abs1, cross_abs2, corner_moduli, flags)`` of the test.

    Evaluates [h(u), v, u, h(v)] and [h(u), u, v, h(v)] together on g's frame
    columns ``data.null_pair``, the diagonalizing conjugator's, so the
    numerators are h's corners in g's diagonal frame.  The denominators,
    ``<v, u>`` and its image ``<h(u), h(v)>``, are nonzero because g's fixed
    points are certified distinct, so no zero rule is put to them.  The
    moduli and flags of the eight pairings come from
    :func:`~qhspace.crossratio._brackets`, the function that takes the
    corner-entry identities of ``verify`` at qinf and q0.
    """
    _require_same_space(data.lifts.rows - 1, h.n)
    moduli, vanishing = _brackets(h.m, data.null_pair)
    cross_abs = moduli[0] * moduli[2] / (moduli[1] * moduli[3])
    # Pairing rows w1z1, w1z2, w2z2, w2z1, one column per bracket: the corners
    # a_n1n = <h(u), u>, a_nn1 = <h(v), v>, a_nn = <h(u), v>, a_n1n1 = <h(v), u>.
    (a_n1n, a_nn), _, (a_nn1, a_n1n1), _ = moduli.tolist()
    (fixes_u, u_to_v), _, (fixes_v, v_to_u), _ = vanishing.tolist()
    flags = {"fixes_repelling": fixes_v, "fixes_attracting": fixes_u,
             "attracting_to_repelling": u_to_v, "repelling_to_attracting": v_to_u}
    return float(cross_abs[0]), float(cross_abs[1]), [a_nn, a_nn1, a_n1n, a_n1n1], flags


def _certificate(data: LoxodromicData, h: SpElement, flags) -> Certificate:
    fixes_u = flags["fixes_attracting"]
    fixes_v = flags["fixes_repelling"]
    if (fixes_u and fixes_v) or (flags["attracting_to_repelling"] and flags["repelling_to_attracting"]):
        return Certificate.PRESERVES_PAIR
    if not (fixes_u or fixes_v):
        return Certificate.NEITHER
    # h is not loxodromic, by the one decision of _fixed_point_data, or its
    # fixed points are not certified; the group still fixes a point, so the
    # elementary certificate stands.
    try:
        h_data = _fixed_point_data(h)
    except (ClassificationError, NumericError):
        return Certificate.FIXES_ONE_SWAPS_NONE
    # Pairings of h's fixed points p, q with u and v: <p,u>, <p,v>, <q,v>, <q,u>.
    lifts, norms = _joined(data.lifts, h_data.lifts), np.concatenate((data.norms, h_data.norms))
    _, _, vanishing = _cross_ratio_parts(lifts, norms=norms)
    if int(vanishing[0] | vanishing[1]) + int(vanishing[2] | vanishing[3]) == 1:
        return Certificate.SHARES_EXACTLY_ONE
    return Certificate.FIXES_ONE_SWAPS_NONE


def elementary_certificate(g: SpElement, h: SpElement) -> Certificate:
    """Classify how h moves the fixed-point pair of a loxodromic g.

    Fixed and exchanged points are read from the flags of the test's
    brackets.  The SharesExactlyOne value is the non-discreteness
    certificate for two loxodromic elements sharing a single fixed point
    (an external theorem is the authority for that conclusion; this routine
    only certifies the configuration, re-deriving h's own fixed points
    instead of trusting any assumption about swaps).
    """
    data = _fixed_point_data(g)
    return _certificate(data, h, _fixed_point_brackets(data, h)[3])


#: Verdict and witness case of each certificate that decides the test.
_DEGENERATE_VERDICTS = {
    Certificate.PRESERVES_PAIR: (Verdict.DEGENERATE_ELEMENTARY, "pair preserved"),
    Certificate.SHARES_EXACTLY_ONE: (Verdict.DEGENERATE_NON_DISCRETE, "shared fixed point"),
    Certificate.FIXES_ONE_SWAPS_NONE: (Verdict.DEGENERATE_ELEMENTARY, "shared fixed point"),
}


def jorgensen_test(g: SpElement, h: SpElement) -> TestOutcome:
    """Evaluate the discreteness condition for the pair (g, h).

    Requires g loxodromic.  Degenerate configurations get the verdict of
    :func:`elementary_certificate`: a preserved pair or a fixed point shared
    with a non-loxodromic h is elementary, while a loxodromic pair sharing
    exactly one fixed point (directly, or through h g h^-1 when h maps one
    fixed point onto the other) is not discrete.
    """
    data = _fixed_point_data(g)
    p_off, p_diag, corner_moduli, flags = _fixed_point_brackets(data, h)
    mg = data.mg
    witnesses = {"corner_moduli": corner_moduli, "flags": flags, "degenerate_case": None}
    certificate = _certificate(data, h, flags)
    if certificate in _DEGENERATE_VERDICTS:
        verdict, witnesses["degenerate_case"] = _DEGENERATE_VERDICTS[certificate]
    elif flags["attracting_to_repelling"] or flags["repelling_to_attracting"]:
        # h g h^-1 is loxodromic with fixed points {h(u), h(v)}, exactly one
        # of which lies in {u, v}.
        verdict = Verdict.DEGENERATE_NON_DISCRETE
        witnesses["degenerate_case"] = "fixed point mapped onto the other"
    elif mg * (1.0 + math.sqrt(p_off)) < 1.0 or mg * (1.0 + math.sqrt(p_diag)) < 1.0:
        verdict = Verdict.CONDITION_HOLDS
    else:
        verdict = Verdict.INCONCLUSIVE
    return TestOutcome(verdict, mg, p_off, p_diag, witnesses)


# -- conjugation orbit ---------------------------------------------------------


@dataclass(frozen=True)
class OrbitStep:
    """One recorded step of the conjugation orbit."""

    k: int
    element: SpElement
    pi: float
    sqrt_pi: float
    bound: float | None
    bound_ok: bool | None
    corner_moduli: tuple
    block_norms: tuple  # (|alpha|, |beta|, |gamma|, |theta|) Frobenius norms
    formula_vs_matmul: float | None


@dataclass(frozen=True)
class IterationTrace:
    """The recorded conjugation orbit with its contraction diagnostics."""

    steps: list
    mg: float
    T1: float
    T2: float
    R: float | None
    branch: str | None  # "T1", "T2" or None when neither bound applies
    bounds_applicable: bool
    bounds_hold: bool
    degenerate_at: int | None
    truncated_at: int | None
    diverged_at: int | None  # the first element too large for the admission rule

    def csv_rows(self):
        header = [
            "k", "pi", "sqrt_pi", "bound",
            "a_nn", "a_nn1", "a_n1n", "a_n1n1",
            "alpha_norm", "beta_norm", "gamma_norm", "theta_norm",
            "formula_vs_matmul",
        ]
        rows = []
        for s in self.steps:
            rows.append([
                s.k, s.pi, s.sqrt_pi,
                s.bound if s.bound is not None else math.nan,
                *s.corner_moduli, *s.block_norms,
                s.formula_vs_matmul if s.formula_vs_matmul is not None else math.nan,
            ])
        return header, rows


def _block_update(h: SpElement, frame: _DiagonalFrame) -> QMatrix:
    """One step of the closed-form recursion for h g h^-1 with diagonal g.

    With the structure inverse J h* J, whose row blocks are ``[A*, -theta*,
    -gamma*]``, ``[-beta*, conj(a_n1n1), conj(a_nn1)]`` and ``[-alpha*,
    conj(a_n1n), conj(a_nn)]``, the product is a sum over h's column blocks:
    ``[A; gamma; theta] L`` times the first, h's column n times ``lam_n``
    times the second, and h's column n+1 times ``lam_n1`` times the third.
    Each of the nine blocks sums its three terms in that order.  Only g's
    diagonal enters; the orbit cross-checks this against plain matrix
    conjugation.
    """
    n, every = h.n, slice(None)
    inverse = _structure_inverse(h.m)
    unit = h.m.submatrix(every, slice(0, n - 1)) @ QMatrix.diag(frame.diag[:-2])
    return (
        unit @ inverse.submatrix(slice(0, n - 1), every)
        + h.m.submatrix(every, n - 1).scale_right(frame.diag[-2]) @ inverse.submatrix(n - 1, every)
        + h.m.submatrix(every, n).scale_right(frame.diag[-1]) @ inverse.submatrix(n, every)
    )


def _orbit_in_frame(frame: _DiagonalFrame, steps):
    """Run ``h_{k+1} = h_k g h_k^-1`` from ``frame.h_conj`` for at most ``steps`` steps.

    Returns ``(elements, updates, truncated_at, diverged_at)``: the admitted
    h_0 ... h_k, the unretracted recursion values that gave h_1 ... h_k, the
    step at which pi underflowed and the first step whose element outgrew
    the admission rule (each None when the orbit did not stop for it).
    """
    current = frame.h_conj
    elements, updates = [current], []
    for k in range(steps):
        if 0.0 < current.a_nn1.modulus() * current.a_n1n.modulus() < ORBIT_UNDERFLOW:
            return elements, updates, k, None
        update = _block_update(current, frame)
        try:
            current = is_member(retract(update))
        except MembershipError as exc:
            if exc.decided:
                raise
            return elements, updates, None, k + 1
        elements.append(current)
        updates.append(update)
    return elements, updates, None, None


def _blocks(m: QMatrix):
    """Per element of a stack: the Frobenius norms of alpha, beta, gamma and
    theta, the moduli of the corner block ``[[a_nn, a_nn1], [a_n1n, a_n1n1]]``
    and the corner product ``pi = |a_nn1| |a_n1n|``."""
    n, top = m.rows - 1, slice(0, m.rows - 2)
    blocks = (m.submatrix(top, n - 1), m.submatrix(top, n), m.submatrix(n - 1, top), m.submatrix(n, top))
    corners = _moduli(m.submatrix(slice(n - 1, None), slice(n - 1, None)))
    return np.stack([b.norm_fro() for b in blocks], axis=-1), corners, corners[:, 0, 1] * corners[:, 1, 0]


def conjugation_orbit(g: SpElement, h: SpElement, steps=DEFAULT_ORBIT_STEPS) -> IterationTrace:
    """Iterate ``h_{k+1} = h_k g h_k^-1`` in the diagonal frame of g.

    Records the corner products ``pi_k = |a_nn1^(k) * a_n1n^(k)|`` with the
    applicable contraction bound per step: ``T1^k sqrt(pi_0)`` when
    ``T1 = mg (1 + sqrt(pi_0)) < 1``, else ``R^(k-1) sqrt(pi_1)`` with
    ``R = mg (1 + sqrt(pi_1))`` when ``T2 = mg (1 + sqrt(diag_0)) < 1``.
    Neither bound applying is not an error; the trace is produced with the
    bounds marked inapplicable.  Iteration stops early once pi underflows, or,
    as ``diverged_at``, at the first element too large for membership to be
    decided (:func:`qhspace.tolerances.admission` refuses its scale).
    """
    if steps < 1:
        raise ValueError(f"the orbit needs at least one step, got steps = {steps}")
    frame = _diagonal_frame(g, h)
    elements, updates, truncated_at, diverged_at = _orbit_in_frame(frame, steps)
    orbit = QMatrix.stack([e.m for e in elements])
    block_norms, corners, pi = _blocks(orbit)
    discrepancy = [None]
    if updates:
        before = _lift(orbit, slice(0, -1))
        direct = before @ QMatrix.diag(frame.diag) @ _structure_inverse(before)
        discrepancy += (QMatrix.stack(updates) - direct).norm_max().tolist()

    mg = frame.mg
    sqrt_pi = [math.sqrt(p) for p in pi.tolist()]
    t1 = mg * (1.0 + sqrt_pi[0])
    t2 = mg * (1.0 + math.sqrt(float(corners[0, 0, 0] * corners[0, 1, 1])))
    branch = "T1" if t1 < 1.0 else ("T2" if t2 < 1.0 else None)
    r_value = mg * (1.0 + sqrt_pi[1]) if branch == "T2" and len(sqrt_pi) > 1 else None
    records = []
    rows = zip(elements, pi.tolist(), sqrt_pi, corners.reshape(-1, 4).tolist(), block_norms.tolist(), discrepancy)
    for k, (element, p, root, corner, norms, gap) in enumerate(rows):
        bound = None
        if branch == "T1":
            bound = (t1**k) * sqrt_pi[0]
        elif branch == "T2" and k >= 1:
            bound = (r_value ** (k - 1)) * sqrt_pi[1]
        bound_ok = None if bound is None else root <= bound * (1.0 + BOUND_SLACK) + BOUND_FLOOR
        records.append(OrbitStep(k, element, p, root, bound, bound_ok, tuple(corner), tuple(norms), gap))
    applicable = branch is not None
    return IterationTrace(
        steps=records,
        mg=mg,
        T1=t1,
        T2=t2,
        R=r_value,
        branch=branch,
        bounds_applicable=applicable,
        bounds_hold=applicable and all(s.bound_ok for s in records if s.bound_ok is not None),
        degenerate_at=_first(pi == 0.0),
        truncated_at=truncated_at,
        diverged_at=diverged_at,
    )


# -- pullback sequence ----------------------------------------------------------


@dataclass(frozen=True)
class FkReport:
    """Per-step limit residuals of the pullback sequence f_k = g^-k h_{2k} g^k."""

    ks: list
    off_block_norms: list  # per k: six norms (1,2),(1,3),(2,1),(3,1),(2,3),(3,2)
    unitarity_defects: list
    corner_moduli: list  # per k: (|f_nn|, |f_n1n1|)
    expanding_modulus: float
    contracting_modulus: float
    log10_scale: list  # k * log10 |lam_n| per k, tracked for scale bookkeeping
    converged: bool
    distinct: bool
    threshold: float


def fk_sequence(g: SpElement, h: SpElement, K=8):
    """Build f_k = g^-k h_{2k} g^k for k = 0..K and report its limits.

    Under the contraction regime the six off-diagonal blocks and the
    unitarity defect of the leading block go to zero while the two corner
    moduli approach ``|lam_n|`` and ``1/|lam_n|``; together with pairwise
    distinctness this is the non-discreteness witness, read at
    :data:`FK_CONVERGENCE_TOL`.  The 2K-step orbit runs without its
    cross-check, and its even steps are pulled back as one stack: f_k is
    ``diag(d^-k) h_{2k} diag(d^k)`` with d = (unit eigenvalues, lam_n,
    lam_n1), g's diagonal in its frame, and the powers taken entry by entry,
    so g^k is never formed as a matrix.  The stack is retracted and admitted
    at once; the norms, the defects and the corners are read from its slices,
    and distinctness from one comparison of every pair.  The returned
    elements are the f_k retracted.
    """
    if K < 1:
        raise ValueError(f"the pullback sequence needs K >= 1, got K = {K}")
    frame = _diagonal_frame(g, h)
    orbit_steps, _, truncated_at, diverged_at = _orbit_in_frame(frame, 2 * K)
    orbit = QMatrix.stack([e.m for e in orbit_steps])
    if (degenerate_at := _first(_blocks(orbit)[2] == 0.0)) is not None:
        raise DegenerateOrbitError(degenerate_at, jorgensen_test(g, h).verdict)
    if truncated_at is not None:
        raise NumericError(f"orbit underflowed at step {truncated_at}; reduce K")
    if diverged_at is not None:
        raise NumericError(f"orbit diverged at step {diverged_at}: it outgrew the admission rule")
    mod_n, ks = frame.diag[-2].modulus(), range(K + 1)
    powers = [QMatrix.stack([QMatrix.diag([q ** (sign * k) for q in frame.diag]) for k in ks]) for sign in (-1, 1)]
    f = powers[0] @ _lift(orbit, slice(None, None, 2)) @ powers[1]
    retracted = retract(f)
    residual, admitted, refusal = _stack_admission(retracted)
    if (refused := _first(~admitted)) is not None:
        raise refusal(refused)
    elements = [SpElement(QMatrix(retracted.ca[k], retracted.cb[k]), g.n, float(residual[k])) for k in ks]

    norms, corners, _ = _blocks(f)
    offs = [tuple(row) for row in np.column_stack((norms, corners[:, 0, 1], corners[:, 1, 0])).tolist()]
    a_blk = f.submatrix(slice(0, g.n - 1), slice(0, g.n - 1))
    defects = (a_blk @ a_blk.star() - QMatrix.identity(g.n - 1)).norm_max().tolist()
    corners = [tuple(row) for row in corners[:, [0, 1], [0, 1]].tolist()]
    gaps = (_lift(retracted, (slice(None), None)) - _lift(retracted, None)).norm_max()

    converged = (
        max(offs[-1]) <= FK_CONVERGENCE_TOL
        and defects[-1] <= FK_CONVERGENCE_TOL
        and abs(corners[-1][0] - mod_n) <= FK_CONVERGENCE_TOL
        and abs(corners[-1][1] - 1.0 / mod_n) <= FK_CONVERGENCE_TOL
    )
    report = FkReport(
        ks=list(ks),
        off_block_norms=offs,
        unitarity_defects=defects,
        corner_moduli=corners,
        expanding_modulus=mod_n,
        contracting_modulus=1.0 / mod_n,
        log10_scale=[k * math.log10(mod_n) for k in ks],
        converged=converged,
        distinct=bool((gaps[np.triu_indices(K + 1, 1)] > 0.0).all()),
        threshold=FK_CONVERGENCE_TOL,
    )
    return elements, report
