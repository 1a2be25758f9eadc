import numpy as np
import pytest

from helpers import (
    allclose,
    check_elements,
    inverse_via_adjoint,
    random_unit_quaternion,
    reference_factor_params,
    reference_group_inverse,
    reference_identity_residuals,
    reference_membership_residual,
    reference_normal_form,
    reference_sample,
    reference_sample_elements,
    reference_unitary,
    same_bits,
    stack_of,
)

import qhspace.spn1 as spn1

from qhspace.errors import MembershipError, NumericError, ParameterError
from qhspace.qmatrix import QMatrix
from qhspace.quaternion import I, Quaternion
from qhspace.spn1 import (
    NormalFormParams,
    StabilizerKind,
    compose,
    form_matrix,
    group_inverse,
    herm_form,
    identity_element,
    identity_residual_table,
    identity_residuals,
    is_member,
    make_loxodromic,
    make_normal_form,
    membership_residual,
    random_element,
    random_unitary,
    sample_elements,
)


def qvec(*values):
    return QMatrix.column([v if isinstance(v, Quaternion) else Quaternion(v) for v in values])


def test_form_matrix_involution():
    for n in (1, 2, 3):
        j = form_matrix(n)
        assert (j.star() - j).norm_max() == 0.0
        assert (j @ j - QMatrix.identity(n + 1)).norm_max() == 0.0


def test_form_examples():
    q_inf = qvec(0, 1, 0)
    q_zero = qvec(0, 0, 1)
    assert herm_form(q_inf, q_inf) == Quaternion(0.0)
    assert herm_form(q_inf, q_zero) == Quaternion(-1.0)
    interior = qvec(0, 0.5, 1)
    assert herm_form(interior, interior) == Quaternion(-1.0)


def test_form_conjugate_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = QMatrix.from_components(rng.standard_normal((4, 1, 4)))
        w = QMatrix.from_components(rng.standard_normal((4, 1, 4)))
        assert (herm_form(z, w) - herm_form(w, z).conj()).modulus() < 1e-13


def test_membership_examples():
    assert is_member(QMatrix.identity(3)).residual == 0.0
    good = is_member(QMatrix.diag([Quaternion(1), Quaternion(2), Quaternion(0.5)]))
    assert good.residual == 0.0
    with pytest.raises(MembershipError) as err:
        is_member(QMatrix.diag([Quaternion(1), Quaternion(2), Quaternion(2)]))
    assert err.value.residual == pytest.approx(3.0)
    assert err.value.worst_index in ((1, 2), (2, 1))


def test_block_views():
    g = random_element(3, seed=5, word_length=4)
    m = g.m
    assert g.A.rows == 2 and g.A.cols == 2
    assert g.alpha.cols == 1 and g.beta.cols == 1
    assert g.gamma.rows == 1 and g.theta.rows == 1
    assert g.a_nn == m[2, 2]
    assert g.a_nn1 == m[2, 3]
    assert g.a_n1n == m[3, 2]
    assert g.a_n1n1 == m[3, 3]


def test_group_inverse_examples():
    eye = identity_element(2)
    assert (group_inverse(eye).m - eye.m).norm_max() == 0.0
    g = is_member(QMatrix.diag([Quaternion(1), Quaternion(2), Quaternion(0.5)]))
    gi = group_inverse(g)
    assert allclose(gi.m, QMatrix.diag([Quaternion(1), Quaternion(0.5), Quaternion(2)]), 0.0)


def test_group_inverse_property_and_adjoint_oracle():
    for seed in range(5):
        g = random_element(2, seed=seed, word_length=8)
        gi = group_inverse(g)
        assert (g.m @ gi.m - QMatrix.identity(3)).norm_max() < 1e-10
        # Oracle: the generic complex-adjoint inverse.
        assert (gi.m - inverse_via_adjoint(g.m)).norm_max() < 1e-8


def test_identity_residuals_identity_and_diagonal():
    assert identity_residuals(identity_element(2)).max() == 0.0
    g = is_member(QMatrix.diag([Quaternion(1), Quaternion(2), Quaternion(0.5)]))
    res = identity_residuals(g)
    assert res.shape == (13,)
    # Corner identity a_nn * conj(a_n1n1) = 2 * (1/2) = 1 sits at slot 4.
    assert res.max() == 0.0


def test_identity_residuals_random():
    for n in (1, 2, 3):
        for g in sample_elements(n, seed=31, count=50, word_length=12):
            assert identity_residuals(g).max() <= 1e-9


def test_normal_form_identity_case():
    p = NormalFormParams(
        StabilizerKind.STAB_BOTH, lam=Quaternion(1), mu=Quaternion(1), A=QMatrix.identity(1)
    )
    assert (make_normal_form(p).m - QMatrix.identity(3)).norm_max() == 0.0


def test_normal_form_vertical_translation():
    p = NormalFormParams(
        StabilizerKind.STAB_INFINITY,
        lam=Quaternion(1),
        mu=Quaternion(1),
        A=QMatrix.identity(1),
        a=QMatrix.zeros(1, 1),
        s=I,
    )
    g = make_normal_form(p)
    assert g.residual < 1e-15
    assert g.m[1, 2] == I


def test_normal_form_diagonal_loxodromic():
    p = NormalFormParams(
        StabilizerKind.STAB_BOTH, lam=Quaternion(2), mu=Quaternion(0.5), A=QMatrix.identity(1)
    )
    g = make_normal_form(p)
    assert allclose(g.m, QMatrix.diag([Quaternion(1), Quaternion(2), Quaternion(0.5)]), 0.0)


def test_normal_form_stab_zero_is_member():
    rng = np.random.default_rng(7)
    lam = random_unit_quaternion(rng)
    a = QMatrix.from_components(rng.standard_normal((2, 1, 4)))
    a_sq = float((a.entry_moduli() ** 2).sum())
    mu = lam.conj().inverse()
    s = mu * (0.5 * a_sq) + mu * Quaternion(0, *rng.standard_normal(3))
    p = NormalFormParams(
        StabilizerKind.STAB_ZERO, lam=lam, mu=mu, A=random_unitary(rng, 2), a=a, s=s
    )
    g = make_normal_form(p)
    assert g.n == 3 and g.residual < 1e-12


def test_normal_form_constraint_errors():
    one = Quaternion(1)
    with pytest.raises(ParameterError, match="lam"):
        make_normal_form(
            NormalFormParams(StabilizerKind.STAB_BOTH, lam=Quaternion(2), mu=one, A=QMatrix.identity(1))
        )
    with pytest.raises(ParameterError, match="unitary"):
        make_normal_form(
            NormalFormParams(StabilizerKind.STAB_BOTH, lam=one, mu=one, A=QMatrix.diag([Quaternion(2)]))
        )
    with pytest.raises(ParameterError, match=r"\|a\|"):
        make_normal_form(
            NormalFormParams(
                StabilizerKind.STAB_INFINITY,
                lam=one,
                mu=one,
                A=QMatrix.identity(1),
                a=QMatrix.column([Quaternion(1)]),
                s=I,
            )
        )


def test_translation_constraint_is_necessary():
    # Shifting s by a delta with nonzero Re(conj(mu) * delta) breaks membership.
    rng = np.random.default_rng(3)
    a = QMatrix.from_components(rng.standard_normal((1, 1, 4)))
    a_sq = float((a.entry_moduli() ** 2).sum())
    s = Quaternion(0.5 * a_sq + 1e-3, 0.2, 0.0, 0.0)
    p = NormalFormParams(
        StabilizerKind.STAB_INFINITY,
        lam=Quaternion(1),
        mu=Quaternion(1),
        A=QMatrix.identity(1),
        a=a,
        s=s,
    )
    with pytest.raises(ParameterError):
        make_normal_form(p)


def test_make_loxodromic_examples():
    g = make_loxodromic([Quaternion(1)], Quaternion(2))
    assert allclose(g.m, QMatrix.diag([Quaternion(1), Quaternion(2), Quaternion(0.5)]), 0.0)
    g = make_loxodromic([I], Quaternion(1.05))
    assert (g.m[2, 2] - Quaternion(1 / 1.05)).modulus() < 1e-15
    g = make_loxodromic([Quaternion(1)], Quaternion(1, 1))
    assert g.m[2, 2] == Quaternion(0.5, 0.5)
    with pytest.raises(ParameterError, match="not loxodromic"):
        make_loxodromic([Quaternion(1)], I)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(11)
    for m in (1, 2, 3):
        u = random_unitary(rng, m)
        assert (u.star() @ u - QMatrix.identity(m)).norm_max() < 1e-13


def test_random_element_determinism_and_membership():
    a = random_element(2, seed=42, word_length=8)
    b = random_element(2, seed=42, word_length=8)
    assert (a.m - b.m).norm_max() == 0.0
    assert a.residual <= 1e-9


def test_closure_under_products():
    gs = list(sample_elements(2, seed=9, count=10, word_length=8))
    for g, h in zip(gs, gs[1:]):
        prod = compose(g, h)
        assert prod.residual <= 1e-8


def test_form_preservation():
    rng = np.random.default_rng(4)
    for g in sample_elements(2, seed=13, count=20, word_length=8):
        z = QMatrix.from_components(rng.standard_normal((3, 1, 4)))
        w = QMatrix.from_components(rng.standard_normal((3, 1, 4)))
        drift = (herm_form(g.m @ z, g.m @ w) - herm_form(z, w)).modulus()
        assert drift < 1e-9 * max(1.0, z.norm_fro() * w.norm_fro())


def test_element_json_round_trip():
    from qhspace.spn1 import SpElement

    g = random_element(2, seed=21, word_length=6)
    doc = g.to_json_dict()
    assert doc["n"] == 2 and "entries" in doc
    back = SpElement.from_json_dict(doc)
    assert (back.m - g.m).norm_max() == 0.0


def assert_same_elements(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert same_bits(g.m, r.m)
        assert g.residual == r.residual


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_sampler_matches_reference_bit_for_bit(n):
    for word_length in (1, 8, 16):
        for seed in range(5):
            ref, _ = reference_sample(n, seed, 2, word_length)
            assert_same_elements(list(sample_elements(n, seed, 2, word_length)), ref)


def test_sampler_redraws_match_reference():
    for seed in range(3):
        ref, attempts = reference_sample(2, seed, 5, 8, tol=1e-15)
        assert attempts > 5  # the tolerance rejects some words
        assert_same_elements(list(sample_elements(2, seed, 5, 8, tol=1e-15)), ref)


def test_normal_form_and_unitary_match_reference():
    for n in (1, 2, 3, 5):
        rng, rng_ref = np.random.default_rng(n), np.random.default_rng(n)
        for _ in range(5):
            assert same_bits(random_unitary(rng, n - 1), reference_unitary(rng_ref, n - 1))
        for _ in range(20):
            p = reference_factor_params(rng, n)
            assert_same_elements([make_normal_form(p)], [reference_normal_form(p)])


def test_sampler_exhaustion_raises_numeric_error():
    with pytest.raises(NumericError, match="admitted 0 of 1") as err:
        list(sample_elements(2, seed=0, count=1, word_length=8, tol=1e-20))
    assert err.value.residual > 1e-20


def test_membership_residual_on_a_stack():
    gs = [g.m for g in sample_elements(2, seed=17, count=4, word_length=6)]
    gs.append(QMatrix.diag([Quaternion(1), Quaternion(2), Quaternion(2)]))
    stack = QMatrix(np.stack([g.ca for g in gs]), np.stack([g.cb for g in gs]))
    residual, (rows, cols) = membership_residual(stack)
    for k, g in enumerate(gs):
        one, one_worst = membership_residual(g)
        assert residual[k] == one
        assert (rows[k], cols[k]) == one_worst


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_chunked_sampler_matches_per_word_reference(monkeypatch, chunk):
    monkeypatch.setattr(spn1, "_WORD_CHUNK", chunk)
    for n, count, word_length in ((1, 9, 8), (2, 10, 16), (3, 5, 1), (5, 4, 8)):
        for seed in range(2):
            ref = list(reference_sample_elements(n, seed, count, word_length))
            assert_same_elements(list(sample_elements(n, seed, count, word_length)), ref)


@pytest.mark.parametrize("chunk", [1, 2, 7, None])
def test_chunked_sampler_redraws_match_per_word_reference(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(spn1, "_WORD_CHUNK", chunk)
    ref, attempts = reference_sample(2, 1, 6, 8, tol=1e-15)
    assert attempts > 6  # the tolerance rejects some words
    assert_same_elements(list(sample_elements(2, 1, 6, 8, tol=1e-15)), ref)


def _drain(elements):
    """The elements yielded before an error, and the error."""
    got = []
    with pytest.raises(NumericError) as err:
        for element in elements:
            got.append(element)
    return got, err.value


@pytest.mark.parametrize("chunk", [1, 2, 7, None])
def test_chunked_sampler_exhaustion_matches_per_word_reference(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(spn1, "_WORD_CHUNK", chunk)
    # At count 4 the chunks do not divide the 80-word budget evenly.
    for count, seed, admitted in ((3, 0, 2), (3, 3, 1), (4, 2, 2), (4, 9, 1)):
        ref, ref_err = _drain(reference_sample_elements(2, seed, count, 8, tol=6e-16))
        got, err = _drain(sample_elements(2, seed, count, 8, tol=6e-16))
        assert len(ref) == admitted
        assert_same_elements(got, ref)
        assert str(err) == str(ref_err)
        assert err.residual == ref_err.residual


def test_random_element_draws_one_word(monkeypatch):
    lengths = []
    draw = spn1._random_factors

    def counted(rng, n, length):
        lengths.append(length)
        return draw(rng, n, length)

    monkeypatch.setattr(spn1, "_random_factors", counted)
    for n in (1, 5):
        g = random_element(n, seed=4, word_length=6)
        (ref,), _ = reference_sample(n, 4, 1, 6)
        assert_same_elements([g], [ref])
    assert lengths == [6, 6]


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_group_inverse_matches_block_reference(n):
    for g in check_elements(n):
        got, ref = group_inverse(g), reference_group_inverse(g)
        assert same_bits(got.m, ref.m)
        assert got.residual == ref.residual


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_identity_residual_table_matches_per_element_reference(n):
    elements = check_elements(n)
    table = identity_residual_table(stack_of(elements))
    assert table.shape == (len(elements), 13)
    for row, g in zip(table, elements):
        ref = reference_identity_residuals(g)
        assert row.tobytes() == ref.tobytes()
        assert identity_residuals(g).tobytes() == ref.tobytes()


def _draws_and_coverage(n, seed, length):
    """The reference factors of one stream and which factor shapes it drew."""
    rng = np.random.default_rng(seed)
    params = [reference_factor_params(rng, n) for _ in range(length)]
    both = [abs(p.lam.modulus() - 1.0) for p in params if p.kind is StabilizerKind.STAB_BOTH]
    shapes = {p.kind for p in params}
    if any(d < 1e-12 for d in both):
        shapes.add("unstretched")
    if any(d > 1e-3 for d in both):
        shapes.add("stretched")
    return [reference_normal_form(p) for p in params], shapes


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_factor_draws_match_reference_bit_for_bit(n):
    length = 40
    for seed in range(3):
        ref, shapes = _draws_and_coverage(n, seed, length)
        assert shapes == set(StabilizerKind) | {"stretched", "unstretched"}
        factors = spn1._random_factors(np.random.default_rng(seed), n, length)
        assert factors.ca.shape == (length, n + 1, n + 1)
        for k, r in enumerate(ref):
            assert same_bits(QMatrix(factors.ca[k], factors.cb[k]), r.m)


def _perturbed(n, rng):
    """Matrices near the group and far from it, with their stack."""
    mats = [g.m for g in check_elements(n)]
    mats += [QMatrix.from_components(rng.standard_normal((n + 1, n + 1, 4))) for _ in range(4)]
    mats += [
        QMatrix(g.ca + 1e-7 * rng.standard_normal(g.ca.shape), g.cb) for g in mats[:4]
    ]
    return mats, QMatrix(np.stack([g.ca for g in mats]), np.stack([g.cb for g in mats]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_membership_residual_matches_matmul_reference(n):
    mats, stack = _perturbed(n, np.random.default_rng(n))
    for m in mats:
        residual, worst = membership_residual(m)
        ref_residual, ref_worst = reference_membership_residual(m)
        assert np.float64(residual).tobytes() == np.float64(ref_residual).tobytes()
        assert worst == ref_worst
    residual, (rows, cols) = membership_residual(stack)
    ref_residual, (ref_rows, ref_cols) = reference_membership_residual(stack)
    assert residual.tobytes() == ref_residual.tobytes()
    assert (rows == ref_rows).all() and (cols == ref_cols).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_membership_rejects_non_finite_entries(bad):
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 5):
        for _ in range(6):
            m = random_element(n, seed=int(rng.integers(100)), word_length=4).m.copy()
            i, j = rng.integers(0, n + 1, 2)
            if rng.random() < 0.5:
                m.ca[i, j] = complex(bad, 0.0)
            else:
                m.cb[i, j] = complex(0.0, bad)
            with np.errstate(all="ignore"):
                residual, worst = membership_residual(m)
                ref_residual, ref_worst = reference_membership_residual(m)
                with pytest.raises(MembershipError) as err:
                    is_member(m)
            assert not residual <= 1.0
            assert np.float64(residual).tobytes() == np.float64(ref_residual).tobytes()
            assert worst == ref_worst
            assert err.value.worst_index == ref_worst
