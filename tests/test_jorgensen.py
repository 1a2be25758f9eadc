import dataclasses
import itertools
import math
import random
from collections import Counter
from functools import partial

import numpy as np
import pytest

from helpers import (
    _reference_certificate,
    count_linalg,
    int_matmul,
    int_star,
    lattice_element,
    lattice_matrix,
    lattice_words,
    parabolic_factor,
    preserved_pairs,
    random_unit_quaternion,
    reference_brackets_on,
    reference_conjugation_orbit,
    reference_cross_ratios,
    reference_diagonal_frame,
    reference_dumps,
    reference_elementary_certificate,
    reference_fk_rows,
    reference_fk_sequence,
    reference_jorgensen_test,
    reference_orbit_rows,
    same_bits,
    shared_fixed_point_pairs,
    small_perturbation,
    swap_element,
)

import qhspace.jsonio as jsonio

from qhspace.crossratio import cross_ratio, entry_identity_check
from qhspace.errors import ClassificationError, MembershipError, NumericError, ShapeMismatchError
from qhspace.geometry import ProjectivePoint, apply
from qhspace.jorgensen import (
    Certificate,
    DegenerateOrbitError,
    Verdict,
    _certificate,
    _diagonal_frame,
    _fixed_point_brackets,
    conjugation_orbit,
    elementary_certificate,
    fk_sequence,
    jorgensen_test,
)
from qhspace.qmatrix import QMatrix, _adjoint_spectrum, right_eigenpairs
from qhspace.quaternion import Quaternion
from qhspace import spectral
from qhspace.spectral import (
    _fixed_point_data,
    _lift,
    _unit_block_columns,
    loxodromic_data,
    spectral_report,
)
from qhspace.spn1 import (
    NormalFormParams,
    StabilizerKind,
    _structure_inverse,
    compose,
    form_matrix,
    group_inverse,
    herm_form,
    is_member,
    make_loxodromic,
    make_normal_form,
    membership_residual,
    random_element,
    retract,
    sample_elements,
)
from qhspace.tolerances import DIAGONAL_TOL, UNIT_MODULUS_TOL, pairing_vanishes


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_brackets_at_qinf_and_q0_are_the_entry_identities(n):
    # g's attracting fixed point is qinf and its repelling one q0, so the
    # test's brackets are the corner-entry identities that verify checks.
    rng = np.random.default_rng(n)
    g = make_loxodromic([random_unit_quaternion(rng) for _ in range(n - 1)], Quaternion(1.7, 0.4))
    checked = 0
    for h in sample_elements(n, 3, 16, 8):
        report = entry_identity_check(h)
        if report.degenerate:
            continue
        outcome = jorgensen_test(g, h)
        assert outcome.cross_abs1 == pytest.approx(report.lhs1, rel=1e-12, abs=0.0)
        assert outcome.cross_abs2 == pytest.approx(report.lhs2, rel=1e-12, abs=0.0)
        checked += 1
    assert checked >= 10


def slow_loxodromic():
    """diag(1, 1.05, 1/1.05): mg = 1/20 + 1/21 = 41/420."""
    return make_loxodromic([Quaternion(1)], Quaternion(1.05))


def readme_pair():
    """The pair of the README's quick tour."""
    return slow_loxodromic(), random_element(n=2, seed=7, word_length=8)


def both_stabilizer(rng):
    lam = random_unit_quaternion(rng)
    return make_normal_form(
        NormalFormParams(
            StabilizerKind.STAB_BOTH,
            lam=lam,
            mu=lam.conj().inverse(),
            A=QMatrix.identity(1),
        )
    )


def test_mg_of_slow_loxodromic():
    assert loxodromic_data(slow_loxodromic()).mg == pytest.approx(41.0 / 420.0)


def test_stabilizer_pair_is_degenerate_elementary():
    rng = np.random.default_rng(0)
    g = slow_loxodromic()
    h = both_stabilizer(rng)
    outcome = jorgensen_test(g, h)
    assert outcome.verdict is Verdict.DEGENERATE_ELEMENTARY
    assert outcome.cross_abs1 == 0.0
    assert elementary_certificate(g, h) is Certificate.PRESERVES_PAIR


def test_small_perturbation_condition_holds():
    rng = np.random.default_rng(1)
    g = slow_loxodromic()
    h = small_perturbation(2, rng, scale=0.3)
    outcome = jorgensen_test(g, h)
    assert outcome.verdict is Verdict.CONDITION_HOLDS
    assert 0.0 < outcome.cross_abs1 <= 0.05
    assert outcome.mg * (1.0 + math.sqrt(outcome.cross_abs1)) < 1.0


def test_large_mg_is_inconclusive():
    # mg = 1.5 can never satisfy the condition: both brackets exceed 1.
    g = make_loxodromic([Quaternion(1)], Quaternion(2))
    h = random_element(2, seed=5, word_length=6)
    outcome = jorgensen_test(g, h)
    assert outcome.verdict is Verdict.INCONCLUSIVE
    assert outcome.mg == pytest.approx(1.5)


def test_non_loxodromic_first_generator_rejected():
    rng = np.random.default_rng(2)
    with pytest.raises(ClassificationError):
        jorgensen_test(both_stabilizer(rng), slow_loxodromic())


#: The README g against long sampled words h.  The bracket denominator
#: <h(u), h(v)> is -1, but |h(u)||h(v)| grows like |h|^2, so the relative zero
#: rule reads it as zero; only g's certified fixed points may decide it.  Each
#: case takes the largest of four admitted words, which puts every seed here
#: in that regime; the test asserts it.
LONG_WORDS = [(64, seed) for seed in (8, 10, 20)] + [(96, seed) for seed in range(10)]


@pytest.mark.parametrize("length, seed", LONG_WORDS)
def test_long_words_get_the_50_digit_brackets(length, seed):
    g = slow_loxodromic()
    h = max(sample_elements(2, seed, 4, length), key=lambda e: e.m.norm_max())
    data = _fixed_point_data(g)
    hu, hv = h.m @ data.attracting.lift, h.m @ data.repelling.lift
    assert pairing_vanishes(herm_form(hu, hv).modulus(), hu.norm_fro(), hv.norm_fro())
    outcome = jorgensen_test(g, h)
    cross1, cross2, flags = reference_brackets_on(data.attracting, data.repelling, h)
    assert outcome.witnesses["flags"] == flags
    scale = h.m.norm_max() ** 2
    for got, want in ((outcome.cross_abs1, cross1), (outcome.cross_abs2, cross2)):
        assert abs(got - want) <= 1e-14 * scale * want


def test_the_test_path_builds_no_projective_point(monkeypatch):
    # g's fixed points, and h's for the shared-point certificate, stay one
    # lift stack each; a ProjectivePoint is built only when asked for.
    built = []
    original = ProjectivePoint.__init__

    def counted(self, lift):
        built.append(lift)
        original(self, lift)

    monkeypatch.setattr(ProjectivePoint, "__init__", counted)
    certificates = set()
    for g, h in shared_fixed_point_pairs(2, 5) + [(slow_loxodromic(), random_element(2, seed=5, word_length=6))]:
        jorgensen_test(g, h)
        certificates.add(elementary_certificate(g, h))
        spectral_report(g)
    assert Certificate.SHARES_EXACTLY_ONE in certificates and Certificate.NEITHER in certificates
    assert built == []
    assert loxodromic_data(slow_loxodromic()).attracting.n == 2
    assert len(built) == 1


def test_pairs_of_different_n_raise_shape_mismatch():
    g2 = slow_loxodromic()
    g3 = make_loxodromic([Quaternion(1), Quaternion(1)], Quaternion(1.05))
    for g, h in ((g2, g3), (g3, g2)):
        for call in (jorgensen_test, elementary_certificate, conjugation_orbit, fk_sequence):
            with pytest.raises(ShapeMismatchError, match=rf"different spaces \(n = {g.n} and {h.n}\)"):
                call(g, h)


def test_bracket_values_match_direct_cross_ratios():
    # The corner products of the conjugated h equal the two cross-ratio
    # absolute values on the original fixed points.
    for seed in range(5):
        g_seed = np.random.default_rng(seed)
        g = compose(
            compose(
                random_element(2, seed=100 + seed, word_length=4),
                make_loxodromic([random_unit_quaternion(g_seed)], Quaternion(1.2, 0.1)),
            ),
            group_inverse(random_element(2, seed=100 + seed, word_length=4)),
        )
        h = random_element(2, seed=200 + seed, word_length=6)
        outcome = jorgensen_test(g, h)
        data = loxodromic_data(g)
        u, v = data.attracting, data.repelling
        first = cross_ratio(apply(h, u), v, u, apply(h, v))
        second = cross_ratio(apply(h, u), u, v, apply(h, v))
        assert abs(first.abs_value - outcome.cross_abs1) <= 1e-9 * max(1.0, outcome.cross_abs1)
        assert abs(second.abs_value - outcome.cross_abs2) <= 1e-9 * max(1.0, outcome.cross_abs2)


def test_verdict_invariant_under_conjugation():
    rng = np.random.default_rng(3)
    g = slow_loxodromic()
    cases = [
        small_perturbation(2, rng, scale=0.3),
        both_stabilizer(rng),
        random_element(2, seed=55, word_length=6),
    ]
    for h in cases:
        base = jorgensen_test(g, h).verdict
        for seed in (7, 8):
            c = random_element(2, seed=seed, word_length=4)
            ci = group_inverse(c)
            moved = jorgensen_test(compose(compose(c, g), ci), compose(compose(c, h), ci))
            assert moved.verdict is base


def test_loxodromic_h_sharing_one_fixed_point():
    # h fixes the attracting point only and is itself loxodromic.
    rng = np.random.default_rng(4)
    g = slow_loxodromic()
    lam = Quaternion(1.3)
    mu = lam.conj().inverse()
    a = QMatrix.column([Quaternion(0.4, 0.1, 0.0, 0.2)])
    a_sq = float((a.entry_moduli() ** 2).sum())
    s = mu * (0.5 * a_sq / mu.modulus_sq()) + mu * Quaternion(0, 0.1, 0, 0)
    h = make_normal_form(
        NormalFormParams(StabilizerKind.STAB_INFINITY, lam=lam, mu=mu, A=QMatrix.identity(1), a=a, s=s)
    )
    assert elementary_certificate(g, h) is Certificate.SHARES_EXACTLY_ONE
    outcome = jorgensen_test(g, h)
    assert outcome.verdict is Verdict.DEGENERATE_NON_DISCRETE


def test_parabolic_h_fixing_one_point():
    rng = np.random.default_rng(5)
    g = slow_loxodromic()
    h = parabolic_factor(2, rng, StabilizerKind.STAB_INFINITY, scale=0.5)
    assert elementary_certificate(g, h) is Certificate.FIXES_ONE_SWAPS_NONE
    outcome = jorgensen_test(g, h)
    assert outcome.verdict is Verdict.DEGENERATE_ELEMENTARY


def test_swap_preserves_pair():
    g = slow_loxodromic()
    h = swap_element(2)
    assert elementary_certificate(g, h) is Certificate.PRESERVES_PAIR
    assert jorgensen_test(g, h).verdict is Verdict.DEGENERATE_ELEMENTARY


def test_mapping_one_fixed_point_onto_the_other():
    # h sends the repelling point onto the attracting one without fixing
    # either, so h g h^-1 shares exactly one fixed point with g.
    rng = np.random.default_rng(6)
    g = slow_loxodromic()
    h = compose(parabolic_factor(2, rng, StabilizerKind.STAB_INFINITY, scale=0.6), swap_element(2))
    assert elementary_certificate(g, h) is Certificate.NEITHER
    outcome = jorgensen_test(g, h)
    assert outcome.verdict is Verdict.DEGENERATE_NON_DISCRETE
    assert outcome.witnesses["degenerate_case"] == "fixed point mapped onto the other"


def test_random_h_moves_both_points():
    g = slow_loxodromic()
    h = random_element(2, seed=77, word_length=6)
    assert elementary_certificate(g, h) is Certificate.NEITHER


def test_orbit_on_stabilizer_stays_degenerate():
    rng = np.random.default_rng(7)
    g = slow_loxodromic()
    trace = conjugation_orbit(g, both_stabilizer(rng), steps=6)
    assert trace.degenerate_at == 0
    assert all(step.pi == 0.0 for step in trace.steps)
    assert len(trace.steps) == 7


def test_orbit_decay_and_bounds():
    rng = np.random.default_rng(8)
    g = slow_loxodromic()
    h = small_perturbation(2, rng, scale=0.25)
    trace = conjugation_orbit(g, h, steps=10)
    assert trace.branch == "T1"
    assert trace.T1 < 1.0
    assert trace.bounds_applicable and trace.bounds_hold
    pis = [s.pi for s in trace.steps]
    assert pis[10] < 1e-20
    # Strict decay and the per-step contraction inequality.
    for prev, cur in zip(trace.steps, trace.steps[1:]):
        assert cur.pi < prev.pi
        assert cur.sqrt_pi <= trace.T1 * prev.sqrt_pi * (1.0 + 1e-6) + 1e-28


def test_orbit_bounds_inapplicable_for_large_mg():
    # The orbit grows past the scale at which membership can be decided, so
    # it stops at step 5 instead of admitting a far-off-group element.
    g = make_loxodromic([Quaternion(1)], Quaternion(2))
    h = random_element(2, seed=21, word_length=6)
    trace = conjugation_orbit(g, h, steps=6)
    assert trace.branch is None
    assert not trace.bounds_applicable
    assert not trace.bounds_hold
    assert trace.diverged_at == 5
    assert len(trace.steps) == 5
    assert all(math.isfinite(s.pi) for s in trace.steps)


def test_orbit_second_branch():
    # A pair with T1 >= 1 but T2 < 1: corners (2.6, 2.5i, 2.48i, -2) give
    # |b c| = 6.2 and |a d| = 5.2, and the membership identity holds since
    # conj(d) a + conj(b) c = -5.2 + 6.2 = 1.
    g = make_loxodromic([], Quaternion(1.1612))
    mg = loxodromic_data(g).mg
    h = is_member(
        QMatrix.from_quaternions(
            [
                [Quaternion(2.6), Quaternion(0, 2.5)],
                [Quaternion(0, 2.48), Quaternion(-2.0)],
            ]
        )
    )
    assert mg * (1.0 + math.sqrt(6.2)) >= 1.0
    assert mg * (1.0 + math.sqrt(5.2)) < 1.0
    assert jorgensen_test(g, h).verdict is Verdict.CONDITION_HOLDS
    trace = conjugation_orbit(g, h, steps=12)
    assert trace.branch == "T2"
    assert trace.R is not None and trace.R < trace.T2 < 1.0
    assert trace.bounds_hold
    assert trace.steps[12].pi < trace.steps[1].pi * 1e-6


def test_recursion_matches_direct_conjugation():
    rng = np.random.default_rng(9)
    g = slow_loxodromic()
    h = small_perturbation(2, rng, scale=0.3)
    trace = conjugation_orbit(g, h, steps=8)
    for step in trace.steps[1:]:
        assert step.formula_vs_matmul is not None
        assert step.formula_vs_matmul <= 1e-9


def test_fk_sequence_converges():
    rng = np.random.default_rng(10)
    g = slow_loxodromic()
    h = small_perturbation(2, rng, scale=0.3)
    elements, report = fk_sequence(g, h, K=8)
    assert len(elements) == 9
    assert report.converged
    assert report.distinct
    assert max(report.off_block_norms[-1]) <= 1e-8
    assert report.unitarity_defects[-1] <= 1e-8
    assert abs(report.corner_moduli[-1][0] - 1.05) <= 1e-6
    assert abs(report.corner_moduli[-1][1] - 1.0 / 1.05) <= 1e-6
    # Off-diagonal decay is monotone until it reaches the rounding floor.
    tail = [max(row) for row in report.off_block_norms[2:]]
    assert all(b < a for a, b in zip(tail, tail[1:]) if a > 1e-11)


def test_readme_pair_orbit_stays_on_the_group():
    # Forming h g h^⋆ with h^⋆ = J h* J doubles the off-group part of h each
    # step unless h is retracted onto the group.
    trace = conjugation_orbit(slow_loxodromic(), random_element(n=2, seed=7, word_length=8))
    assert len(trace.steps) == 65
    assert max(s.element.residual for s in trace.steps) <= 1e-12
    assert trace.branch == "T1" and trace.bounds_hold
    assert trace.truncated_at is None and trace.diverged_at is None


def test_readme_pair_pullbacks_converge():
    elements, report = fk_sequence(slow_loxodromic(), random_element(n=2, seed=7, word_length=8), K=16)
    assert len(elements) == 17
    assert report.converged and report.distinct


@pytest.mark.parametrize("steps", [0, -1])
def test_step_counts_below_one_are_refused_before_the_frame(steps, monkeypatch):
    g, h = readme_pair()
    calls = count_linalg(monkeypatch)
    with pytest.raises(ValueError, match=f"the orbit needs at least one step, got steps = {steps}"):
        conjugation_orbit(g, h, steps=steps)
    with pytest.raises(ValueError, match=f"the pullback sequence needs K >= 1, got K = {steps}"):
        fk_sequence(g, h, K=steps)
    assert not calls


def test_fk_sequence_degenerate_route():
    rng = np.random.default_rng(11)
    g = slow_loxodromic()
    with pytest.raises(DegenerateOrbitError) as err:
        fk_sequence(g, both_stabilizer(rng), K=4)
    assert err.value.step == 0
    assert err.value.verdict is Verdict.DEGENERATE_ELEMENTARY


def test_outcome_json_shape():
    rng = np.random.default_rng(12)
    outcome = jorgensen_test(slow_loxodromic(), small_perturbation(2, rng))
    doc = outcome.to_json_dict()
    assert doc["verdict"] == "ConditionHolds_ElementaryOrNonDiscrete"
    assert set(doc) == {"verdict", "mg", "crossAbs1", "crossAbs2", "witnesses"}


def test_orbit_trace_csv_rows():
    rng = np.random.default_rng(13)
    trace = conjugation_orbit(slow_loxodromic(), small_perturbation(2, rng), steps=4)
    header, rows = trace.csv_rows()
    assert header[:4] == ["k", "pi", "sqrt_pi", "bound"]
    assert len(rows) == 5
    assert rows[0][0] == 0


def test_jorgensen_test_decomposes_g_once(monkeypatch):
    g = slow_loxodromic()
    h = random_element(n=2, seed=7, word_length=8)
    calls = count_linalg(monkeypatch)
    assert jorgensen_test(g, h).verdict is Verdict.CONDITION_HOLDS
    assert calls["eig"] == 1
    assert calls["eigvals"] == 0
    assert calls["svd"] <= 1


def test_readme_pair_linalg_counts(monkeypatch):
    g = slow_loxodromic()
    h = random_element(n=2, seed=7, word_length=8)
    calls = count_linalg(monkeypatch)
    assert jorgensen_test(g, h).verdict is Verdict.CONDITION_HOLDS
    assert dict(calls) == {"eig": 1}
    # Neither the test nor the certificate builds a conjugator.
    calls.clear()
    assert elementary_certificate(slow_loxodromic(), h) is Certificate.NEITHER
    assert dict(calls) == {"eig": 1}


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8])
def test_elementary_certificate_matches_reference(n):
    pairs = list(zip(sample_elements(n, 90, 10, 3), sample_elements(n, 91, 10, 2)))
    pairs += shared_fixed_point_pairs(n, 5)
    seen = set()
    for g, h in pairs:
        try:
            want = reference_elementary_certificate(g, h)
        except (ClassificationError, ArithmeticError) as err:
            with pytest.raises(type(err)) as got:
                elementary_certificate(g, h)
            assert str(got.value) == str(err)
            continue
        assert elementary_certificate(g, h) is want
        seen.add(want)
    assert len(seen) >= 3


def conjugated_pairs(n, count=12):
    """(c d c^-1, h) with d diagonal loxodromic, |lam_n| - 1 from 0.3 down to
    1e-5, and c, h sampled words."""
    rng = np.random.default_rng([40, n])
    pairs = []
    for i, (c, h) in enumerate(zip(sample_elements(n, 11, count, 8), sample_elements(n, 12, count, 8))):
        d = make_loxodromic(
            [random_unit_quaternion(rng) for _ in range(n - 1)],
            random_unit_quaternion(rng) * (1.0 + (0.3, 1e-1, 1e-3, 1e-5)[i % 4]),
        )
        try:
            pairs.append((is_member(c.m @ d.m @ group_inverse(c).m), h))
        except MembershipError:
            continue
    return pairs


def test_stress_grid_orbits_complete_or_stop_typed():
    # g = c diag(1, ..., 1, lam, 1/lam) c^-1 with |lam| - 1 down to 1e-5 and
    # sampled words c, h: 180 pairs.  Outside the contraction regime an orbit
    # may outgrow the admission rule, and then it stops with diverged_at.
    counts = {"complete": 0, "diverged": 0}
    for n in (2, 3, 5):
        for eps in (1e-1, 1e-3, 1e-5):
            d = make_loxodromic([Quaternion(1)] * (n - 1), Quaternion(1.0 + eps))
            for c, h in zip(sample_elements(n, 11, 20, 8), sample_elements(n, 12, 20, 8)):
                trace = conjugation_orbit(is_member(c.m @ d.m @ group_inverse(c).m), h, steps=16)
                assert all(math.isfinite(s.pi) for s in trace.steps)
                if trace.branch is not None or trace.diverged_at is None:
                    assert len(trace.steps) == 17
                    counts["complete"] += 1
                else:
                    assert len(trace.steps) == trace.diverged_at
                    counts["diverged"] += 1
    assert sum(counts.values()) == 180
    assert counts["complete"] > counts["diverged"]


def test_n5_stress_conjugators_are_admitted(monkeypatch):
    # The unit columns are eigenvectors of the kept eig.  The SVD basis they
    # replaced put five of these n = 5 conjugators off the group by 7e-4 to
    # 3.6e-3 relative to |C|^2, and they were refused; the eigenvector basis
    # is on it to 8.7e-10 before its one retraction step.
    raw = []
    monkeypatch.setattr(spectral, "retract", lambda m: raw.append(m) or retract(m))
    built = 0
    for g, h in stress_shared_pairs(5):
        try:
            _fixed_point_data(g)
        except (ClassificationError, ArithmeticError):
            continue
        _diagonal_frame(g, h)
        residual, _ = membership_residual(raw[-1])
        assert residual <= 1e-9 * raw[-1].norm_max() ** 2
        built += 1
    assert built == 24


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("q", [Quaternion(0.0, 0.0, 1.0, 0.0), Quaternion(0.6, 0.8)])
def test_repeated_non_real_unit_classes_get_a_frame(n, q):
    # diag(q, ..., q, lam, 1/conj(lam)) conjugated by sampled words: eig
    # returns both v and v j of one quaternionic line for each copy of q.
    d = make_loxodromic([q] * (n - 1), Quaternion(1.2, 0.3))
    j_mat = form_matrix(n)
    built = 0
    for c in sample_elements(n, 31, 8, 8):
        g = is_member(c.m @ d.m @ group_inverse(c).m)
        _diagonal_frame(g, g)
        data = loxodromic_data(g)
        conj = data.conjugator.m
        d_mat = _structure_inverse(conj) @ g.m @ conj
        assert (d_mat - QMatrix.diag([d_mat[i, i] for i in range(n + 1)])).norm_max() <= DIAGONAL_TOL
        columns = QMatrix.from_blocks([_unit_block_columns(g, data.unit_classes)])
        assert (columns.star() @ j_mat @ columns - QMatrix.identity(n - 1)).norm_max() <= 1e-10
        built += 1
    assert built == 8


@pytest.mark.parametrize("n", [3, 5])
def test_a_candidate_repeating_a_kept_line_is_dropped(monkeypatch, n):
    # Each class's pair becomes its candidate v and a copy of its line,
    # v (0.6 + 0.8i), next to it in index order: in a class of multiplicity
    # n - 1 the copy projects to rounding and must fail the form-positivity
    # cut, whether the frame reads it before or after v.
    original = spectral._eigen_candidates

    def doubled(m):
        spectrum, vecs = original(m)
        copies = vecs.scale_right(np.full(len(spectrum.values), 0.6 + 0.8j))
        layers = (copies, vecs) if copy_first else (vecs, copies)
        ca = np.stack([x.ca for x in layers], axis=1).reshape(-1, m.rows, 1)
        cb = np.stack([x.cb for x in layers], axis=1).reshape(-1, m.rows, 1)
        values = tuple(lam for lam in spectrum.values for _ in range(2))
        candidates = tuple(2 * i for i in spectrum.candidates)
        partners = tuple(i + 1 for i in candidates)
        return spectrum._replace(values=values, candidates=candidates, partners=partners), QMatrix._owning(ca, cb)

    monkeypatch.setattr(spectral, "_eigen_candidates", doubled)
    j_mat = form_matrix(n)
    for copy_first, q in itertools.product((False, True), (Quaternion(0.0, 0.0, 1.0, 0.0), Quaternion(0.6, 0.8))):
        d = make_loxodromic([q] * (n - 1), Quaternion(1.2, 0.3))
        for c in sample_elements(n, 31, 4, 8):
            g = is_member(c.m @ d.m @ group_inverse(c).m)
            columns = QMatrix.from_blocks([_unit_block_columns(g, _fixed_point_data(g).unit_classes)])
            assert (columns.star() @ j_mat @ columns - QMatrix.identity(n - 1)).norm_max() <= 1e-10
            assert loxodromic_data(g).conjugator is not None


class _RecordedRows:
    """Rows of an array, recording each index read."""

    def __init__(self, arr, reads):
        self.arr, self.reads = arr, reads

    def __getitem__(self, i):
        self.reads.append(i)
        return self.arr[i]


@pytest.mark.parametrize("n", [3, 5])
def test_each_class_and_each_unit_cluster_read_their_own_pairs(monkeypatch, n):
    # Repeated unit classes, where each cluster has several classes: every
    # class's candidate is the member of its own pair (the pair whose mean is
    # its representative) nearer that mean, and the frame reads a cluster's
    # candidates from its classes' two pair members, in index order, and
    # from nowhere else.
    reads = []
    original = spectral._eigen_candidates

    def recorded(m):
        spectrum, vecs = original(m)
        return spectrum, QMatrix._owning(_RecordedRows(vecs.ca, reads), _RecordedRows(vecs.cb, []))

    monkeypatch.setattr(spectral, "_eigen_candidates", recorded)
    j, r = Quaternion(0.0, 0.0, 1.0, 0.0), Quaternion(0.6, 0.8)
    unit_sets = [[j] * (n - 1), [r] * (n - 1)] + ([[j, j, r, r]] if n == 5 else [])
    checked = 0
    for units in unit_sets:
        d = make_loxodromic(units, Quaternion(1.2, 0.3))
        for c in sample_elements(n, 31, 4, 8):
            g = is_member(c.m @ d.m @ group_inverse(c).m)
            spectrum = _adjoint_spectrum(g.m)
            evals = spectrum.evals.tolist()
            assert sorted(spectrum.candidates + spectrum.partners) == list(range(2 * (n + 1)))
            for rep, a, b in zip(spectrum.reps, spectrum.candidates, spectrum.partners):
                mean = (0.5 + 0j) * (evals[a] + evals[b].conjugate())
                assert rep == complex(mean.real, abs(mean.imag))
                near, far = abs(spectrum.values[a] - rep), abs(spectrum.values[b] - rep)
                assert near < far or (near == far and a < b)
            data = _fixed_point_data(g)
            reads.clear()
            _unit_block_columns(g, data.unit_classes)
            clusters = spectral._cluster(spectrum.reps, data.unit_classes)
            assert sorted(map(len, clusters)) == sorted(Counter(units).values())
            rest = list(reads)
            for cluster in clusters:
                own = sorted(i for c in cluster for i in (spectrum.candidates[c], spectrum.partners[c]))
                taken = rest[: next((k for k, i in enumerate(rest) if i not in own), len(rest))]
                assert len(cluster) <= len(taken) and taken == own[: len(taken)]
                rest = rest[len(taken):]
            assert rest == []
            checked += 1
    assert checked == 4 * len(unit_sets)


def conjugated_contracting_pairs(n):
    """(c diag(1, ..., 1, 1.05, 1/1.05) c^-1, h) with short sampled words c,
    so the frame is not the identity, and small perturbations h."""
    d = make_loxodromic([Quaternion(1)] * (n - 1), Quaternion(1.05))
    pairs = []
    for seed in (61, 62, 63):
        c = next(iter(sample_elements(n, seed, 1, 4)))
        pairs.append((is_member(c.m @ d.m @ group_inverse(c).m), small_perturbation(n, np.random.default_rng(seed))))
    return pairs


def orbit_rows(trace):
    return [[s.pi, *s.corner_moduli, *s.block_norms] for s in trace.steps]


def assert_rows_close(got_rows, want_rows, rel):
    assert len(got_rows) == len(want_rows)
    for got, want in zip(got_rows, want_rows):
        assert all(abs(x - y) <= rel * y for x, y in zip(got, want))


@pytest.mark.parametrize("n", [2, 3])
def test_orbit_matches_a_50_digit_recursion(n):
    # The orbit's pi, corner moduli and block norms agree with the
    # high-precision ones (98 digits for 16 steps) to at most 6.1e-13
    # relative here.
    for g, h in conjugated_contracting_pairs(n):
        trace = conjugation_orbit(g, h, steps=16)
        assert trace.branch == "T1" and len(trace.steps) == 17
        assert_rows_close(orbit_rows(trace), reference_orbit_rows(g, h, 16), 1e-10)


def test_readme_pair_orbit_matches_the_high_precision_recursion():
    # 64 steps need more than 50 digits: the unretracted reference drifts off
    # the group by a factor 2 per step, and at 50 digits its block norms
    # level off near 1e-33 while the float orbit's fall to 1e-85.
    trace = conjugation_orbit(*readme_pair())
    assert_rows_close(orbit_rows(trace), reference_orbit_rows(*readme_pair(), 64), 1e-12)


def fk_rows(report):
    return [[*offs, *corners] for offs, corners in zip(report.off_block_norms, report.corner_moduli)]


def test_readme_pair_pullbacks_match_the_high_precision_orbit():
    # Off-diagonal norms and corners of every f_k, against the rescaled rows
    # of the reference orbit: at most 2.6e-14 relative here, and 3.3e-13 on
    # the conjugated pairs below.
    _, report = fk_sequence(*readme_pair(), K=16)
    assert_rows_close(fk_rows(report), reference_fk_rows(*readme_pair(), 16), 1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_conjugated_pullbacks_match_the_high_precision_orbit(n):
    for g, h in conjugated_contracting_pairs(n):
        _, report = fk_sequence(g, h, K=8)
        assert_rows_close(fk_rows(report), reference_fk_rows(g, h, 8), 1e-12)


def assert_same_orbit(got, want):
    # Every record field bit for bit (repr tells -0.0 from 0.0), and every
    # element's matrix and residual.
    def fields(trace):
        return repr(dataclasses.replace(trace, steps=[dataclasses.replace(s, element=None) for s in trace.steps]))

    assert fields(got) == fields(want)
    for a, b in zip(got.steps, want.steps):
        assert same_bits(a.element.m, b.element.m) and a.element.residual == b.element.residual


def assert_same_pullbacks(got, want):
    (got_elements, got_report), (want_elements, want_report) = got, want
    assert repr(got_report) == repr(want_report)
    assert len(got_elements) == len(want_elements)
    for a, b in zip(got_elements, want_elements):
        assert same_bits(a.m, b.m) and a.residual == b.residual


def n1_pairs():
    d = make_loxodromic([], Quaternion(1.05))
    return [(d, small_perturbation(1, np.random.default_rng(seed))) for seed in (61, 62)]


#: (pair, orbit steps, K): the README pair, the conjugated contracting pairs
#: for n = 2, 3, 5, n = 1, and orbits that underflow, diverge and degenerate.
STACKED_CASES = [
    ("readme", lambda: [readme_pair()], 64, 16),
    *[(f"conjugated n={n}", partial(conjugated_contracting_pairs, n), 64, 16) for n in (2, 3, 5)],
    ("n=1", n1_pairs, 64, 16),
    ("truncated", lambda: [readme_pair()], 200, 100),
    ("diverged", lambda: [(make_loxodromic([Quaternion(1)], Quaternion(2)), random_element(2, seed=21, word_length=6))],
     6, 3),
    ("degenerate", lambda: [(slow_loxodromic(), both_stabilizer(np.random.default_rng(11)))], 6, 4),
]


@pytest.mark.parametrize("name, pairs, steps, K", STACKED_CASES, ids=[c[0] for c in STACKED_CASES])
def test_stacked_records_and_pullbacks_match_the_step_by_step_loop(name, pairs, steps, K):
    for g, h in pairs():
        assert_same_orbit(conjugation_orbit(g, h, steps), reference_conjugation_orbit(g, h, steps))
        try:
            want = reference_fk_sequence(g, h, K)
        except (ArithmeticError, DegenerateOrbitError) as err:
            with pytest.raises(type(err)) as got:
                fk_sequence(g, h, K)
            assert str(got.value) == str(err)
        else:
            assert_same_pullbacks(fk_sequence(g, h, K), want)


def test_stacked_cases_reach_each_stop():
    truncated, diverged, degenerate = (
        conjugation_orbit(g, h, steps) for _, pairs, steps, _ in STACKED_CASES[-3:] for g, h in pairs()
    )
    assert truncated.truncated_at == 149 and diverged.diverged_at == 5 and degenerate.degenerate_at == 0


def test_pullbacks_form_no_cross_check_product(monkeypatch):
    # The step-by-step loop forms h g J h* J at each of the 2K orbit steps,
    # two products each, which the pullback report never reads.
    products = []
    original = QMatrix.__matmul__

    def counted(self, other):
        products.append(1)
        return original(self, other)

    monkeypatch.setattr(QMatrix, "__matmul__", counted)
    reference_fk_sequence(*readme_pair(), 8)
    before, products[:] = len(products), []
    fk_sequence(*readme_pair(), K=8)
    assert len(products) <= before - 2 * 16


def quaternion_bits(q):
    return np.array([q.w, q.x, q.y, q.z]).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_diagonal_frame_matches_reference(n):
    pairs = [(slow_loxodromic(), random_element(n=2, seed=7, word_length=8))] if n == 2 else []
    pairs += conjugated_pairs(n)
    built = 0
    for g, h in pairs:
        try:
            want = reference_diagonal_frame(g, h)
        except (ValueError, ArithmeticError) as err:
            with pytest.raises(type(err)) as got:
                _diagonal_frame(g, h)
            assert str(got.value) == str(err)
            continue
        frame = _diagonal_frame(g, h)
        built += 1
        assert same_bits(frame.h_conj.m, want.h_conj.m) and frame.h_conj.residual == want.h_conj.residual
        assert [quaternion_bits(q) for q in frame.diag] == [quaternion_bits(q) for q in want.diag]
        assert frame.mg == want.mg
    assert built >= 6


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_preserved_pair_is_degenerate_elementary(n):
    # g and h both fix q0 and qinf exactly, but g is close to parabolic, so
    # its computed fixed points carry rounding that an absolute cut on the
    # conjugated corners mistook for a moved point.
    for g, h in preserved_pairs(n, seed=3, count=10):
        outcome = jorgensen_test(g, h)
        assert outcome.verdict is Verdict.DEGENERATE_ELEMENTARY
        assert outcome.witnesses["degenerate_case"] == "pair preserved"
        assert elementary_certificate(g, h) is Certificate.PRESERVES_PAIR


#: The verdict each degenerate certificate gives.
CERTIFIED_VERDICTS = {
    Certificate.PRESERVES_PAIR: Verdict.DEGENERATE_ELEMENTARY,
    Certificate.SHARES_EXACTLY_ONE: Verdict.DEGENERATE_NON_DISCRETE,
    Certificate.FIXES_ONE_SWAPS_NONE: Verdict.DEGENERATE_ELEMENTARY,
}
#: Ranges of |lam_n| for the stress-regime shared pairs: |lam_n| - 1 down to 1e-5.
STRESS_MODULI = ((1.0 + 1e-5, 1.0 + 1e-4), (1.0 + 1e-3, 1.0 + 1e-2), (1.05, 1.5))


def stress_shared_pairs(n):
    """Shared-fixed-point pairs with conjugators of 8 factors."""
    return [
        pair
        for moduli in STRESS_MODULI
        for pair in shared_fixed_point_pairs(n, 1, count=8, modulus_range=moduli, word_length=8)
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_stress_shared_pairs_get_the_certified_verdict(n):
    checked = 0
    for g, h in stress_shared_pairs(n):
        try:
            _fixed_point_data(g)
        except (ClassificationError, ArithmeticError):
            continue
        outcome = jorgensen_test(g, h)
        certificate = elementary_certificate(g, h)
        assert certificate in CERTIFIED_VERDICTS
        assert outcome.verdict is CERTIFIED_VERDICTS[certificate]
        checked += 1
    assert checked >= 20


def stress_and_parabolic_elements(n):
    """Both generators of the stress pairs, then parabolics conjugated by
    sampled words."""
    rng = np.random.default_rng(n)
    elements = [h for pair in stress_shared_pairs(n) for h in pair]
    for c in sample_elements(n, 4, 60, 6):
        try:
            elements.append(is_member(c.m @ parabolic_factor(n, rng, scale=1.0).m @ group_inverse(c).m))
        except MembershipError:
            continue
    return elements


@pytest.mark.parametrize("n", [2, 3, 5])
def test_loxodromy_is_read_from_the_matched_candidate_moduli(n):
    # eig splits a parabolic element's unit class by up to about 1e-5, so the
    # averaged representatives and the candidates right_eigenpairs returns
    # can fall on different sides of the unit-modulus cut: loxodromy is read
    # from the classes' candidates, in the order right_eigenpairs returns.
    checked = 0
    for h in stress_and_parabolic_elements(n):
        try:
            pairs = right_eigenpairs(h.m)
        except NumericError:
            continue
        spectrum = _adjoint_spectrum(h.m)
        values = [spectrum.values[i] for i in spectrum.candidates]
        assert values == [p[0] for p in pairs]
        checked += 1
    assert checked >= 40


class _EigenpairsChecked(Exception):
    pass


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_certificate_decides_from_moduli_as_the_reference_path_does(monkeypatch, n):
    # Both orders of each stress pair: with the roles swapped, h is the
    # near-parabolic loxodromic of the grid.  The reference checks all of h's
    # eigenpairs before it reads the moduli; _fixed_point_data reads the
    # split first, so with right_eigenpairs made to raise, every element
    # without one expanding and one contracting class is still refused,
    # those whose eigenpairs fail included.
    certificates = set()
    for pair in stress_shared_pairs(n):
        for g, h in (pair, pair[::-1]):
            try:
                data = _fixed_point_data(g)
            except (ClassificationError, ArithmeticError):
                continue
            flags = _fixed_point_brackets(data, h)[3]
            want = _reference_certificate(_lift(data.lifts, 0), _lift(data.lifts, 1), h, flags)
            assert _certificate(data, h, flags) is want
            certificates.add(want)
    assert {Certificate.FIXES_ONE_SWAPS_NONE, Certificate.SHARES_EXACTLY_ONE} <= certificates
    elements = stress_and_parabolic_elements(n)
    splits = []
    for h in elements:
        try:
            moduli = [abs(p[0]) for p in right_eigenpairs(h.m)]
        except NumericError:
            splits.append(None)
            continue
        expanding = sum(m > 1.0 + UNIT_MODULUS_TOL for m in moduli)
        contracting = sum(m < 1.0 - UNIT_MODULUS_TOL for m in moduli)
        splits.append(expanding == contracting == 1)

    def checked(m):
        raise _EigenpairsChecked

    monkeypatch.setattr(spectral, "right_eigenpairs", checked)
    refused = {"eigenpairs pass": 0, "eigenpairs fail": 0}
    for h, split in zip(elements, splits):
        try:
            _fixed_point_data(h)
        except ClassificationError:
            assert split is not True
            refused["eigenpairs fail" if split is None else "eigenpairs pass"] += 1
        except _EigenpairsChecked:
            assert split is not False
    assert refused["eigenpairs pass"] >= 10
    assert n == 1 or refused["eigenpairs fail"] >= 20


def near_parabolic_pairs(n):
    """Pairs whose fixed points are certified and whose g has |lam_n| - 1 at
    most 1e-3, from the stress grid of conjugated_pairs and the
    stress-regime shared pairs.  The cut sits just above 1e-3 because the
    grid's moduli 1 + 1e-3 come back from the eigensolver with rounding on
    either side."""
    out = []
    for g, h in conjugated_pairs(n) + stress_shared_pairs(n):
        try:
            data = _fixed_point_data(g)
        except (ClassificationError, ArithmeticError):
            continue
        if abs(data.lam_n) - 1.0 <= 1.01e-3:
            out.append((g, h, data))
    return out


@pytest.mark.parametrize("n", [2, 3, 5])
def test_cross_ratios_match_a_50_digit_oracle_near_parabolic(n):
    pairs = near_parabolic_pairs(n)
    assert len(pairs) >= 4
    for g, h, data in pairs:
        outcome = jorgensen_test(g, h)
        cross1, cross2, mg, flags = reference_cross_ratios(g, h)
        assert outcome.witnesses["flags"] == flags
        if any(flags.values()):
            assert outcome.verdict in (Verdict.DEGENERATE_ELEMENTARY, Verdict.DEGENERATE_NON_DISCRETE)
        else:
            holds = mg * (1.0 + math.sqrt(cross1)) < 1.0 or mg * (1.0 + math.sqrt(cross2)) < 1.0
            assert outcome.verdict is (Verdict.CONDITION_HOLDS if holds else Verdict.INCONCLUSIVE)
        # Near-parabolic g has ill-conditioned fixed points: with
        # |lam_n| - 1 below 1e-3 the brackets differ from the oracle's by up
        # to 3.1e-7 (the pairs are listed in CHANGES.md) while they agree to
        # 1e-10 on the library's own fixed points, so those are compared.
        if abs(data.lam_n) - 1.0 < 1e-3:
            cross1, cross2, _ = reference_brackets_on(data.attracting, data.repelling, h)
        for got, want in ((outcome.cross_abs1, cross1), (outcome.cross_abs2, cross2)):
            if want >= 1e-6:
                assert abs(got - want) <= 1e-9 * want


def _outcome_or_error(test, g, h):
    """The JSON document of a test outcome, or the type and message of its error."""
    try:
        return test(g, h).to_json_dict()
    except (ClassificationError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8])
def test_jorgensen_test_bytes_match_the_dense_form_reference(n):
    """Every pairing of the test, taken with J applied by moving rows and as
    slices of one stacked product, has the bits of the dense-form products."""
    pairs = shared_fixed_point_pairs(n, 3) + preserved_pairs(n, 4) + conjugated_pairs(n)
    # A g close to the identity, so that the condition can hold.
    d = make_loxodromic([Quaternion(1)] * (n - 1), Quaternion(1.05))
    for c, h in zip(sample_elements(n, 21, 8, 2), sample_elements(n, 22, 8, 2)):
        pairs.append((is_member(c.m @ d.m @ group_inverse(c).m), h))
    verdicts = set()
    for g, h in pairs:
        got, want = _outcome_or_error(jorgensen_test, g, h), _outcome_or_error(reference_jorgensen_test, g, h)
        if isinstance(want, tuple):
            assert got == want
            continue
        assert jsonio.dumps(got) == reference_dumps(want)
        verdicts.add(want["verdict"])
    assert len(verdicts) >= 3
    assert {Verdict.DEGENERATE_ELEMENTARY.value, Verdict.DEGENERATE_NON_DISCRETE.value, Verdict.INCONCLUSIVE.value} <= verdicts


def _certified(g):
    try:
        _fixed_point_data(g)
    except (ClassificationError, NumericError):
        return False
    return True


@pytest.mark.parametrize("n", [1, 2, 3])
def test_no_lattice_pair_is_certified_non_discrete(n):
    # Sp(n,1) over the Lipschitz integers is discrete, so the condition must
    # never hold on a pair of its words, and no two of its loxodromics may
    # share exactly one fixed point.  Some pairs are elementary (powers,
    # words in one translation), and those read Degenerate_Elementary.
    form = lattice_matrix(form_matrix(n))
    words = lattice_words(n, 200, random.Random(n))
    assert all(int_matmul(int_matmul(int_star(w), form), w) == form for w in words)
    elements = [lattice_element(w) for w in words]
    assert all(e.residual == 0.0 for e in elements)
    loxodromic = [g for g in elements if _certified(g)]
    assert len(loxodromic) >= 30
    verdicts, smallest = Counter(), math.inf
    for g in loxodromic[:40]:
        for h in elements[:40]:
            outcome = jorgensen_test(g, h)
            verdicts[outcome.verdict] += 1
            root = math.sqrt(min(outcome.cross_abs1, outcome.cross_abs2))
            smallest = min(smallest, outcome.mg * (1.0 + root))
    false = {Verdict.CONDITION_HOLDS, Verdict.DEGENERATE_NON_DISCRETE} & verdicts.keys()
    assert not false, f"false certificates {verdicts}; smallest mg (1 + sqrt p) {smallest}"


@pytest.mark.xfail(strict=True, reason=(
    "fk_sequence decides distinct by gaps > 0.0, so converged pullbacks that agree up to rounding "
    "read as its witness of non-discreteness: at n = 1, 37 of these pairs (n = 2: 5, n = 3: 3), "
    "36 of whose h commute with g exactly; every smallest pairwise gap is at most 1.8e-12, "
    "with median 4.5e-15 at n = 1"))
def test_no_lattice_pair_has_a_pullback_witness():
    # A converged and distinct pullback sequence witnesses non-discreteness,
    # and Sp(1,1) over the Lipschitz integers is discrete.
    elements = [lattice_element(w) for w in lattice_words(1, 200, random.Random(1))]
    loxodromic = [g for g in elements if _certified(g)][:40]
    witnesses = 0
    for g in loxodromic:
        for h in elements[:20]:
            try:
                _, report = fk_sequence(g, h)
            except NumericError:
                continue
            witnesses += report.converged and report.distinct
    assert witnesses == 0, f"{witnesses} lattice pairs report converged and distinct"
