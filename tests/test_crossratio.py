import math

import numpy as np
import pytest

from helpers import (
    check_elements,
    random_boundary_point,
    random_interior_point,
    random_quaternion,
    reference_corner_bound_slacks,
    reference_cross_ratio,
    reference_entry_identity_check,
    stack_of,
    swap_element,
)

from qhspace.crossratio import (
    _cross_ratio_parts,
    _moduli,
    corner_bound_slacks,
    corner_slack_table,
    cross_ratio,
    entry_identity_check,
    entry_identity_table,
)
from qhspace.errors import ShapeMismatchError
from qhspace.geometry import q_infinity, q_zero
from qhspace.qmatrix import QMatrix
from qhspace.quaternion import Quaternion
from qhspace.spn1 import identity_element, is_member, sample_elements

rng = np.random.default_rng(55)


def test_null_self_products_give_zero():
    value = cross_ratio(q_infinity(2), q_zero(2), q_infinity(2), q_zero(2))
    assert not value.degenerate
    assert value.value == Quaternion(0.0)
    assert value.abs_value == 0.0
    assert set(value.vanishing) == {"w1z1", "w2z2"}


def test_equal_first_points_give_unit_absolute_value():
    z = random_boundary_point(2, rng)
    w1 = random_boundary_point(2, rng)
    w2 = random_interior_point(2, rng)
    value = cross_ratio(z, z, w1, w2)
    assert not value.degenerate
    assert value.abs_value == pytest.approx(1.0, abs=1e-12)


def test_degenerate_denominator_detected():
    # <w1, z2> pairs a null point with itself.
    value = cross_ratio(q_infinity(2), q_zero(2), q_zero(2), q_infinity(2))
    assert value.degenerate
    assert "w1z2" in value.vanishing
    assert math.isnan(value.abs_value)


def test_points_of_different_n_raise_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        cross_ratio(q_zero(2), q_zero(3), q_infinity(2), q_infinity(2))


def test_absolute_value_is_lift_invariant():
    points = [
        random_boundary_point(2, rng),
        random_boundary_point(2, rng),
        random_interior_point(2, rng),
        random_boundary_point(2, rng),
    ]
    base = cross_ratio(*points)
    value_changed = False
    for _ in range(100):
        scales = [random_quaternion(rng) + Quaternion(1.5) for _ in range(4)]
        moved = cross_ratio(*(p.rescaled(q) for p, q in zip(points, scales)))
        assert abs(moved.abs_value - base.abs_value) <= 1e-10 * max(1.0, base.abs_value)
        if (moved.value - base.value).modulus() > 1e-6:
            value_changed = True
    assert value_changed, "the raw quaternion value should depend on the lifts"


def test_entry_identities_on_stabilizer():
    g = is_member(QMatrix.diag([Quaternion(1), Quaternion(2), Quaternion(0.5)]))
    report = entry_identity_check(g)
    # Both numerator pairings vanish: the element fixes both distinguished
    # points, and the corner products are 0 and 1.
    assert report.degenerate
    assert report.rhs1 == 0.0
    assert report.rhs2 == pytest.approx(1.0)
    assert "w1z1" in report.vanishing1 and "w2z2" in report.vanishing1


def test_entry_identities_on_random_elements():
    checked = 0
    for h in sample_elements(2, seed=71, count=100, word_length=8):
        report = entry_identity_check(h)
        if report.degenerate:
            continue
        checked += 1
        assert abs(report.lhs1 - report.rhs1) <= 1e-9 * max(report.rhs1, 1e-12)
        assert abs(report.lhs2 - report.rhs2) <= 1e-9 * max(report.rhs2, 1e-12)
    assert checked >= 80


def test_entry_identities_on_swap():
    report = entry_identity_check(swap_element(2))
    assert report.rhs2 == 0.0
    # The second bracket repeats a null pairing, consistently with rhs2 = 0.
    assert report.lhs2 == 0.0 or report.vanishing2


def test_corner_slacks_identity():
    slacks = corner_bound_slacks(identity_element(2))
    assert np.allclose(slacks, [0.0, 0.0, 0.0, 2.0, 0.0])


def test_corner_slacks_diagonal():
    g = is_member(QMatrix.diag([Quaternion(1), Quaternion(2), Quaternion(0.5)]))
    assert np.allclose(corner_bound_slacks(g), [0.0, 0.0, 0.0, 2.0, 0.0])


def test_corner_slacks_nonnegative_on_samples():
    worst = 0.0
    for n in (1, 2, 3):
        for h in sample_elements(n, seed=83, count=150, word_length=10):
            worst = min(worst, corner_bound_slacks(h).min())
    assert worst >= -1e-9


def same_report(got, ref):
    """Equal fields, with equal bits for the floats (NaN included)."""
    floats = ("lhs1", "rhs1", "lhs2", "rhs2")
    return (
        np.array([getattr(got, f) for f in floats]).tobytes()
        == np.array([getattr(ref, f) for f in floats]).tobytes()
        and all(type(getattr(got, f)) is float for f in floats)
        and (got.vanishing1, got.vanishing2) == (ref.vanishing1, ref.vanishing2)
    )


def test_moduli_match_quaternion_modulus():
    # x * x differs from Python's x ** 2 in about one square in a thousand.
    gen = np.random.default_rng(8)
    comp = gen.standard_normal((50, 200, 4)) * 10.0 ** gen.integers(-8, 8, (50, 1, 1))
    want = [[Quaternion(*q).modulus() for q in row] for row in comp]
    assert _moduli(QMatrix.from_components(comp)).tobytes() == np.array(want).tobytes()


def test_cross_ratio_matches_scalar_reference():
    n_points = [(n, kind) for n in (1, 2, 3, 5) for kind in range(3)]
    for n, kind in n_points:
        for _ in range(10):
            points = [
                random_interior_point(n, rng) if (i + kind) % 3 == 0 else random_boundary_point(n, rng)
                for i in range(4)
            ]
            points[kind] = points[(kind + 1) % 4]  # a repeated point
            for args in (points, points[::-1], (q_infinity(n), q_zero(n), q_zero(n), points[0])):
                got, ref = cross_ratio(*args), reference_cross_ratio(*args)
                assert got.degenerate == ref.degenerate and got.vanishing == ref.vanishing
                assert np.array([got.abs_value]).tobytes() == np.array([ref.abs_value]).tobytes()
                assert type(got.abs_value) is float
                assert got.value.to_json() == ref.value.to_json() or got.degenerate


@pytest.mark.parametrize("count", [4, 7])
def test_cross_ratio_parts_takes_a_stack_of_lift_stacks(count):
    # Lift stack k is scaled by 10^(6k), so a pairing put to the zero rule
    # with another stack's norms gets another flag; in the odd stacks z1 and
    # w1 are both qinf, whose pairing vanishes exactly.
    n, draws = 3, np.random.default_rng(count)
    stacks = []
    for k in range(count):
        points = [random_boundary_point(n, draws) for _ in range(4)]
        if k % 2:
            points[0] = points[2] = q_infinity(n)
        stacks.append(QMatrix.stack([p.lift for p in points]).scale_right(10.0 ** (6 * k)))
    lifts = QMatrix._owning(*(np.stack([getattr(s, part) for s in stacks], axis=1) for part in ("ca", "cb")))
    pairings, moduli, vanishing = _cross_ratio_parts(lifts)
    assert moduli.shape == vanishing.shape == (4, count)
    for k, stack in enumerate(stacks):
        own_pairings, own_moduli, own_vanishing = _cross_ratio_parts(stack)
        assert pairings.ca[:, k].tobytes() == own_pairings.ca.tobytes()
        assert pairings.cb[:, k].tobytes() == own_pairings.cb.tobytes()
        assert moduli[:, k].tobytes() == own_moduli.tobytes()
        assert (vanishing[:, k] == own_vanishing).all()
    assert vanishing[0, 1::2].all() and not vanishing[:, ::2].any()


#: Word lengths of the long words added per n: at these lengths the pairing
#: <h(qinf), h(q0)> of some words is flagged as vanishing relative to lifts of
#: size |h| (seed 0), so that branch is compared too.
LONG_WORDS = {2: (64, 96), 3: (64,)}


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9])
def test_entry_identity_table_matches_per_element_reference(n):
    base = check_elements(n)
    long_words = [list(sample_elements(n, 0, 30, length)) for length in LONG_WORDS.get(n, ())]
    elements = base + [h for words in long_words for h in words]
    lhs, rhs, vanishing = entry_identity_table(stack_of(elements))
    assert lhs.shape == rhs.shape == (len(elements), 2)
    assert vanishing.shape == (len(elements), 2, 4)
    degenerate = 0
    for k, h in enumerate(elements):
        ref = reference_entry_identity_check(h)
        got = entry_identity_check(h)
        assert same_report(got, ref)
        assert np.array([lhs[k, 0], rhs[k, 0], lhs[k, 1], rhs[k, 1]]).tobytes() == np.array(
            [ref.lhs1, ref.rhs1, ref.lhs2, ref.rhs2]
        ).tobytes()
        degenerate += ref.degenerate
        assert ref.degenerate == bool(vanishing[k].any())
    # The normal forms that fix q0 or qinf, the diagonal element, the
    # identity and the swap all have vanishing pairings.
    assert degenerate >= 5
    for k in range(len(long_words)):
        # Each set of long words has words whose <h(qinf), h(q0)> is flagged.
        start = len(base) + 30 * k
        assert vanishing[start : start + 30, :, 3].any()


def test_entry_identity_names_the_vanishing_pairings():
    for n in (1, 2, 3, 5):
        *_, lox, eye, swap = check_elements(n)
        for h in (lox, eye):
            report = entry_identity_check(h)
            assert report.vanishing1 == ("w1z1", "w2z2")
            assert same_report(report, reference_entry_identity_check(h))
        report = entry_identity_check(swap)
        assert report.degenerate and report.rhs2 == 0.0
        assert same_report(report, reference_entry_identity_check(swap))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_corner_slack_table_matches_per_element_reference(n):
    elements = check_elements(n)
    table = corner_slack_table(stack_of(elements))
    assert table.shape == (len(elements), 5)
    for row, h in zip(table, elements):
        ref = reference_corner_bound_slacks(h)
        assert row.tobytes() == ref.tobytes()
        assert corner_bound_slacks(h).tobytes() == ref.tobytes()
