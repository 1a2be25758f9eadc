import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import approx_equal, reference_random_unit

from qhspace.quaternion import (
    I,
    J,
    K,
    ONE,
    Quaternion,
    conj_components,
    modulus_components,
    mul_components,
    random_unit,
    similar,
)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)
nonzero_quaternions = quaternions.filter(lambda q: q.modulus() > 1e-3)


def test_unit_multiplication_table():
    table = {
        (I, J): K, (J, K): I, (K, I): J,
        (J, I): -K, (K, J): -I, (I, K): -J,
    }
    for (a, b), expected in table.items():
        assert a * b == expected
    for unit in (I, J, K):
        assert unit * unit == Quaternion(-1.0)
    assert I * J * K == Quaternion(-1.0)


def test_one_is_identity():
    q = Quaternion(0.3, -1.2, 4.0, 0.7)
    assert ONE * q == q
    assert q * ONE == q


def test_expansion_by_hand():
    # (1+i)(1-i) = 1 - i + i - i^2 = 2
    assert Quaternion(1, 1) * Quaternion(1, -1) == Quaternion(2.0)


def test_inverse_examples():
    assert I.inverse() == -I
    assert Quaternion(2.0).inverse() == Quaternion(0.5)
    q = Quaternion(1, 1, 1, 1)
    assert q.inverse() == Quaternion(0.25, -0.25, -0.25, -0.25)
    assert approx_equal(q * q.inverse(), ONE, 1e-15)


def test_zero_not_invertible():
    with pytest.raises(ZeroDivisionError, match="not invertible"):
        Quaternion(0.0).inverse()


def test_similar_examples():
    assert similar(I, J)
    assert similar(Quaternion(1, 1), Quaternion(1, 0, -1))
    assert not similar(Quaternion(1.0), Quaternion(2.0))


def test_similar_matches_explicit_conjugation():
    # j maps i to -i: j i j^-1 = -i, so 1+i and 1-i are conjugate.
    lhs = J * Quaternion(1, 1) * J.inverse()
    assert approx_equal(lhs, Quaternion(1, -1), 1e-15)


def test_similar_rejects_negative_tolerance():
    with pytest.raises(ValueError):
        similar(I, J, tol=-1.0)


def test_accessors():
    q = Quaternion(1, 2, 3, 4)
    assert q.re() == 1.0
    assert q.im() == Quaternion(0, 2, 3, 4)
    assert q.conj() == Quaternion(1, -2, -3, -4)
    assert q.modulus() == math.sqrt(30.0)
    # Im(q) agrees with (q - conj(q)) / 2.
    assert (q - q.conj()) / 2 == q.im()


@settings(max_examples=300)
@given(quaternions, quaternions)
def test_real_part_of_product_is_symmetric(a, b):
    eps = 1e-12 * max(1.0, a.modulus() * b.modulus())
    assert abs((a * b).re() - (b * a).re()) <= eps


@settings(max_examples=300)
@given(quaternions, quaternions)
def test_product_real_part_bound(a, b):
    eps = 1e-12 * max(1.0, a.modulus() * b.modulus())
    assert 2 * a.re() * b.re() - (a * b).re() <= (a * b).modulus() + eps


@settings(max_examples=300)
@given(quaternions, nonzero_quaternions)
def test_conjugation_preserves_real_part_and_modulus(z, w):
    conj = w * z * w.inverse()
    eps = 1e-10 * max(1.0, z.modulus())
    assert abs(conj.re() - z.re()) <= eps
    assert abs(conj.modulus() - z.modulus()) <= eps


@settings(max_examples=300)
@given(quaternions, quaternions)
def test_modulus_is_multiplicative(a, b):
    eps = 1e-12 * max(1.0, a.modulus() * b.modulus())
    assert abs((a * b).modulus() - a.modulus() * b.modulus()) <= eps


@settings(max_examples=300)
@given(quaternions, quaternions)
def test_conjugate_is_anti_automorphism(a, b):
    eps = 1e-12 * max(1.0, a.modulus() * b.modulus())
    assert ((a * b).conj() - b.conj() * a.conj()).modulus() <= eps


def test_integer_powers():
    q = Quaternion(0.4, 0.3, -0.2, 0.1)
    assert (q**3 - q * q * q).modulus() < 1e-15
    assert (q**-2 - (q.inverse() * q.inverse())).modulus() < 1e-15
    assert q**0 == ONE


def test_complex_pair_round_trip():
    q = Quaternion(1, 2, 3, 4)
    a, b = q.complex_pair()
    assert (a, b) == (1 + 2j, 3 + 4j)
    assert Quaternion.from_complex_pair(a, b) == q
    # q = a + b*j with the embedded units.
    rebuilt = Quaternion(a.real, a.imag) + Quaternion(b.real, b.imag) * J
    assert rebuilt == q


def test_json_round_trip():
    q = Quaternion(1.5, -2.25, 0.0, 3.125)
    assert Quaternion.from_json(q.to_json()) == q
    assert q.to_json() == [1.5, -2.25, 0.0, 3.125]


def test_component_kernels_match_scalar_ops():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((50, 4))
    b = rng.standard_normal((50, 4))
    prod = mul_components(a, b)
    for i in range(50):
        expected = Quaternion(*a[i]) * Quaternion(*b[i])
        assert np.allclose(prod[i], [expected.w, expected.x, expected.y, expected.z])
    assert np.allclose(conj_components(a)[:, 0], a[:, 0])
    assert np.allclose(conj_components(a)[:, 1:], -a[:, 1:])
    assert np.allclose(
        modulus_components(a), [Quaternion(*row).modulus() for row in a]
    )


def test_random_unit_matches_linalg_norm_bit_for_bit():
    rng, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(100_000):
        q, ref = random_unit(rng), reference_random_unit(rng_ref)
        assert (q.w, q.x, q.y, q.z) == (ref.w, ref.x, ref.y, ref.z)
