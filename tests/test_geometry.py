import math

import numpy as np
import pytest

from helpers import (
    random_boundary_point,
    random_interior_point,
    random_quaternion,
    reference_dumps,
    reference_point_dict,
)

from qhspace.geometry import (
    POINT_AT_INFINITY,
    Position,
    ProjectivePoint,
    apply,
    bergman_distance,
    from_lift,
    project,
    projectively_close,
    q_infinity,
    q_zero,
)
from qhspace.qmatrix import QMatrix
from qhspace.quaternion import Quaternion
from qhspace.spn1 import is_member, sample_elements

rng = np.random.default_rng(77)


def test_distinguished_points():
    assert q_zero(2).position is Position.BOUNDARY
    assert q_infinity(2).position is Position.BOUNDARY
    assert project(q_zero(2)) == (Quaternion(0.0), Quaternion(0.0))
    assert project(q_infinity(2)) is POINT_AT_INFINITY


def test_projection_example():
    p = from_lift([0, 0.5, 1])
    assert p.position is Position.INTERIOR
    assert project(p) == (Quaternion(0.0), Quaternion(0.5))


def test_projection_is_gauge_invariant():
    p = random_interior_point(2, rng)
    q = random_quaternion(rng)
    moved = p.rescaled(q)
    for a, b in zip(project(p), project(moved)):
        assert (a - b).modulus() < 1e-12


def test_outside_lift_rejected():
    outside = from_lift([1, 0, 0])  # <z,z> = 1 > 0
    assert outside.position is Position.OUTSIDE
    with pytest.raises(ValueError):
        project(outside)


def test_position_invariant_under_rescaling():
    for maker in (random_interior_point, random_boundary_point):
        p = maker(2, rng)
        q = random_quaternion(rng)
        assert p.rescaled(q).position is p.position


def test_distance_of_point_to_itself():
    p = random_interior_point(2, rng)
    assert bergman_distance(p, p) == 0.0


def test_distance_worked_value():
    # lifts (0, 1/2, 1) and (0, 1, 1): the three form values are -3/2, -1, -2,
    # so cosh^2(rho/2) = (9/4) / 2 = 9/8.
    z = from_lift([0, 0.5, 1])
    w = from_lift([0, 1, 1])
    rho = bergman_distance(z, w)
    assert abs(math.cosh(rho / 2.0) ** 2 - 9.0 / 8.0) < 1e-12
    assert bergman_distance(w, z) == pytest.approx(rho)


def test_distance_requires_interior_points():
    with pytest.raises(ValueError):
        bergman_distance(q_zero(2), random_interior_point(2, rng))


def test_distance_is_gauge_invariant():
    p = random_interior_point(2, rng)
    q = random_interior_point(2, rng)
    base = bergman_distance(p, q)
    for _ in range(20):
        s = random_quaternion(rng)
        t = random_quaternion(rng)
        assert abs(bergman_distance(p.rescaled(s), q.rescaled(t)) - base) < 1e-10


def test_distance_is_isometry_invariant():
    for g in sample_elements(2, seed=8, count=30, word_length=8):
        p = random_interior_point(2, rng)
        q = random_interior_point(2, rng)
        drift = abs(bergman_distance(apply(g, p), apply(g, q)) - bergman_distance(p, q))
        assert drift < 1e-9


def test_cosh_squared_at_least_one():
    from qhspace.spn1 import herm_form

    for _ in range(200):
        p = random_interior_point(2, rng)
        q = random_interior_point(2, rng)
        value = herm_form(p.lift, q.lift).modulus_sq() / (
            p.self_product.re() * q.self_product.re()
        )
        assert value >= 1.0 - 1e-12


def test_apply_examples():
    g = is_member(QMatrix.diag([Quaternion(1), Quaternion(2), Quaternion(0.5)]))
    p = from_lift([0, 0.5, 1])
    image = apply(g, p)
    assert image.position is Position.INTERIOR
    assert project(image) == (Quaternion(0.0), Quaternion(2.0))
    inf_image = apply(g, q_infinity(2))
    assert projectively_close(inf_image, q_infinity(2))
    # The lift itself scales by the expanding eigenvalue.
    assert inf_image.lift[1, 0] == Quaternion(2.0)


def test_position_invariance_under_action():
    makers = (random_interior_point, random_boundary_point)
    for idx, g in enumerate(sample_elements(2, seed=15, count=50, word_length=8)):
        p = makers[idx % 2](2, rng)
        assert apply(g, p).position is p.position


def test_projectively_close_detects_difference():
    p = random_boundary_point(2, rng)
    q = random_boundary_point(2, rng)
    assert projectively_close(p, p.rescaled(random_quaternion(rng)))
    assert not projectively_close(p, q)


def test_point_json_round_trip():
    p = random_interior_point(2, rng)
    back = ProjectivePoint.from_json_dict(p.to_json_dict())
    assert (back.lift - p.lift).norm_max() == 0.0
    assert back.position is p.position


def test_point_json_matches_per_row_reference():
    points = [q_infinity(3), q_zero(1), from_lift([Quaternion(-0.0, 1.0, -0.0, 2.0), 1.0])]
    points += [random_interior_point(n, rng) for n in (1, 2, 5)]
    points += [random_boundary_point(n, rng).rescaled(random_quaternion(rng)) for n in (2, 3)]
    for p in points:
        doc, ref = p.to_json_dict(), reference_point_dict(p)
        assert reference_dumps(doc) == reference_dumps(ref)
        assert all(type(v) is float for row in doc["lift"] for v in row)
