import numpy as np
import pytest

from helpers import (
    allclose,
    count_linalg,
    from_adjoint,
    inverse_via_adjoint,
    reference_dumps,
    reference_matrix_dict,
    same_bits,
)

import qhspace.qmatrix as qmatrix
from qhspace.errors import NumericError, ShapeMismatchError
from qhspace.qmatrix import (
    QMatrix,
    _adjoint_spectrum,
    eigenspace_basis,
    right_eigenpairs,
    right_eigenvalues,
)
from qhspace.quaternion import I, J, K, Quaternion

rng = np.random.default_rng(20260809)


def random_qmatrix(rows, cols):
    return QMatrix.from_components(rng.standard_normal((rows, cols, 4)))


def test_identity_multiplication():
    m = random_qmatrix(3, 3)
    assert (QMatrix.identity(3) @ m - m).norm_max() == 0.0


def test_unit_diagonal_product():
    assert ((QMatrix.diag([I]) @ QMatrix.diag([J]))[0, 0]) == K


def test_order_matters_for_one_by_one():
    # [[i]] @ [[j]] = [[k]] while [[j]] @ [[i]] = [[-k]].
    assert (QMatrix.diag([I]) @ QMatrix.diag([J]))[0, 0] == K
    assert (QMatrix.diag([J]) @ QMatrix.diag([I]))[0, 0] == -K


def test_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        random_qmatrix(2, 3) @ random_qmatrix(2, 3)


def test_star_examples():
    assert allclose(QMatrix.identity(3).star(), QMatrix.identity(3), 0.0)
    assert QMatrix.diag([I]).star()[0, 0] == -I


def test_star_is_involutive_exactly():
    m = random_qmatrix(3, 4)
    assert (m.star().star() - m).norm_max() == 0.0


def test_star_reverses_products():
    a, b = random_qmatrix(3, 3), random_qmatrix(3, 3)
    assert ((a @ b).star() - b.star() @ a.star()).norm_max() < 1e-13


def test_adjoint_homomorphism():
    for _ in range(10):
        a, b = random_qmatrix(3, 3), random_qmatrix(3, 3)
        lhs = (a @ b).adjoint()
        rhs = a.adjoint() @ b.adjoint()
        assert np.abs(lhs - rhs).max() < 1e-12


def test_adjoint_round_trip():
    m = random_qmatrix(3, 2)
    assert allclose(from_adjoint(m.adjoint()), m, 0.0)


def test_eigenvalues_real_diagonal():
    vals = right_eigenvalues(QMatrix.diag([Quaternion(2.0), Quaternion(0.5)]))
    assert np.allclose(sorted(abs(v) for v in vals), [0.5, 2.0])
    assert all(abs(v.imag) < 1e-12 for v in vals)


def test_eigenvalue_of_unit_i():
    (val,) = right_eigenvalues(QMatrix.diag([I]))
    assert abs(val - 1j) < 1e-14


def test_eigenvalues_of_conjugated_diagonal():
    # Oracle: build the similar matrix explicitly and compare class data.
    diag = QMatrix.diag([Quaternion(1, 1), Quaternion(3)])
    c = random_qmatrix(2, 2)
    m = c @ diag @ inverse_via_adjoint(c)
    vals = sorted(right_eigenvalues(m), key=lambda v: v.real)
    assert abs(vals[0] - (1 + 1j)) < 1e-8
    assert abs(vals[1] - 3) < 1e-8


def test_eigenvalues_are_similarity_invariants():
    m = random_qmatrix(3, 3)
    base = right_eigenvalues(m)
    for _ in range(5):
        h = random_qmatrix(3, 3)
        moved = right_eigenvalues(h @ m @ inverse_via_adjoint(h))
        got = sorted((v.real, abs(v)) for v in moved)
        want = sorted((v.real, abs(v)) for v in base)
        assert np.allclose(got, want, atol=1e-8)


def test_eigenpair_residuals_and_right_scaling():
    m = random_qmatrix(3, 3)
    pairs = right_eigenpairs(m, tol=1e-8)
    assert len(pairs) == 3
    for lam, vec, residual in pairs:
        assert residual <= 1e-10
        t = Quaternion.from_complex_pair(lam)
        q = Quaternion(*rng.standard_normal(4))
        scaled = vec.scale_right(q)
        moved = q.inverse() * t * q
        assert (m @ scaled - scaled.scale_right(moved)).norm_max() < 1e-10 * max(
            1.0, scaled.norm_fro()
        )


def test_inverse_via_adjoint():
    m = random_qmatrix(4, 4)
    assert (m @ inverse_via_adjoint(m) - QMatrix.identity(4)).norm_max() < 1e-12


def test_entry_access_and_components():
    m = QMatrix.from_quaternions([[Quaternion(1, 2, 3, 4), I], [J, K]])
    assert m[0, 0] == Quaternion(1, 2, 3, 4)
    assert m[1, 0] == J
    rebuilt = QMatrix.from_components(m.components)
    assert allclose(rebuilt, m, 0.0)


def test_scaling_sides_differ():
    m = QMatrix.diag([I])
    assert m.scale_left(J)[0, 0] == J * I
    assert m.scale_right(J)[0, 0] == I * J
    assert m.scale_left(J)[0, 0] == -m.scale_right(J)[0, 0]


def test_empty_blocks():
    empty = QMatrix.zeros(0, 0)
    col = QMatrix.zeros(0, 1)
    assert empty.norm_max() == 0.0
    prod = col.star() @ col
    assert prod.rows == 1 and prod.cols == 1
    assert prod[0, 0] == Quaternion(0.0)


def test_json_round_trip():
    m = random_qmatrix(2, 3)
    doc = m.to_json_dict()
    assert doc["rows"] == 2 and doc["cols"] == 3 and len(doc["entries"]) == 6
    assert allclose(QMatrix.from_json_dict(doc), m, 0.0)


def _element(stack, k):
    return QMatrix(stack.ca[k], stack.cb[k])


def test_stack_operations_match_each_element_bit_for_bit():
    a = QMatrix.from_components(rng.standard_normal((4, 3, 2, 4)))
    b = QMatrix.from_components(rng.standard_normal((4, 2, 3, 4)))
    c = QMatrix.from_components(rng.standard_normal((4, 3, 2, 4)))
    q = QMatrix.from_components(rng.standard_normal((4, 1, 1, 4)))
    r = rng.standard_normal(4)
    one = random_qmatrix(2, 2)
    assert (a @ b).ca.shape == (4, 3, 3)
    for k in range(4):
        ak, bk, ck = _element(a, k), _element(b, k), _element(c, k)
        qk = _element(q, k)[0, 0]
        pairs = [
            (a @ b, ak @ bk),
            (a @ one, ak @ one),
            (a.star(), ak.star()),
            (a + c, ak + ck),
            (a - c, ak - ck),
            (-a, -ak),
            (a.scale_left(q), ak.scale_left(qk)),
            (a.scale_right(q), ak.scale_right(qk)),
            (a.scale_right(r), ak.scale_right(float(r[k]))),
        ]
        for stacked, single in pairs:
            assert same_bits(_element(stacked, k), single)
        assert a.entry_moduli()[k].tobytes() == ak.entry_moduli().tobytes()
        assert a.norm_max()[k] == ak.norm_max()
        assert a.norm_fro()[k] == ak.norm_fro()


def test_element_only_methods_reject_stacks():
    stack = QMatrix.from_components(rng.standard_normal((2, 3, 3, 4)))
    for call in (
        lambda: stack[0, 0],
        stack.adjoint,
        stack.to_json_dict,
        lambda: right_eigenvalues(stack),
        lambda: right_eigenpairs(stack),
        lambda: eigenspace_basis(stack, 1.0),
    ):
        with pytest.raises(ShapeMismatchError):
            call()


def test_frozen_matrix_keeps_one_read_only_spectrum(monkeypatch):
    for n in (1, 2, 4):
        m = random_qmatrix(n, n)
        unfrozen = m.copy()
        m.freeze()
        calls = count_linalg(monkeypatch)
        cached = _adjoint_spectrum(m)
        right_eigenvalues(m)
        right_eigenpairs(m)
        eigenspace_basis(m, cached.evals[0])
        assert calls["eig"] == 1 and calls["eigvals"] == 0
        assert _adjoint_spectrum(m) is cached
        fresh = _adjoint_spectrum(unfrozen)
        assert unfrozen._spectrum is None
        assert cached.adj_norm == fresh.adj_norm
        for name in ("adj", "evals", "evecs"):
            arr = getattr(cached, name)
            assert arr.tobytes() == getattr(fresh, name).tobytes()
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert right_eigenvalues(m) == right_eigenvalues(unfrozen)
        for (lam1, v1, r1), (lam2, v2, r2) in zip(right_eigenpairs(m), right_eigenpairs(unfrozen)):
            assert (lam1, r1) == (lam2, r2) and same_bits(v1, v2)


def test_adjoint_layout():
    m = random_qmatrix(2, 3)
    adj = m.adjoint()
    want = np.block([[m.ca, m.cb], [-m.cb.conj(), m.ca.conj()]])
    assert adj.shape == (4, 6) and adj.tobytes() == want.tobytes()
    assert adj.flags.writeable


def test_from_blocks_matches_np_block():
    blocks = [[random_qmatrix(2, 2), random_qmatrix(2, 1)], [random_qmatrix(1, 2), random_qmatrix(1, 1)]]
    got = QMatrix.from_blocks(blocks)
    want = QMatrix(np.block([[b.ca for b in row] for row in blocks]),
                   np.block([[b.cb for b in row] for row in blocks]))
    assert same_bits(got, want)


def test_freeze_never_makes_a_callers_array_read_only():
    ca, cb = rng.standard_normal((2, 3, 3)) + 0j, np.zeros((2, 3, 3), complex)
    m = QMatrix(ca, cb).freeze()
    assert ca.flags.writeable and cb.flags.writeable
    assert not np.shares_memory(m.ca, ca) and not np.shares_memory(m.cb, cb)
    # A view of a writable matrix is copied before it is frozen.
    parent = random_qmatrix(3, 3)
    for frozen in (parent.submatrix(slice(0, 2), 1).freeze(), parent.star().freeze()):
        assert parent.ca.flags.writeable and parent.cb.flags.writeable
        assert not frozen.ca.flags.writeable and not frozen.cb.flags.writeable
        for part in (frozen.ca, frozen.cb):
            assert not np.shares_memory(part, parent.ca) and not np.shares_memory(part, parent.cb)


def test_frozen_matrix_never_shares_memory_with_a_writable_array():
    parent = random_qmatrix(4, 4)
    block = parent.submatrix(slice(1, 3), slice(0, 2))
    assert not np.shares_memory(block.ca, parent.ca)  # an unfrozen parent's block is a copy
    block.ca[0, 0] = 7.0
    assert parent.ca[1, 0] != 7.0
    parent.freeze()
    view = parent.submatrix(slice(1, 3), slice(0, 2))
    assert np.shares_memory(view.ca, parent.ca)  # a frozen parent's block is a view
    assert not view.ca.flags.writeable and not view.cb.flags.writeable
    for result in (parent @ parent, parent.star(), parent + parent, parent - parent, -parent,
                   parent.scale_left(I), parent.scale_right(2.0), parent.copy()):
        for part in (result.ca, result.cb):
            assert part.flags.writeable
            assert not np.shares_memory(part, parent.ca) and not np.shares_memory(part, parent.cb)


def test_computed_results_take_ownership(monkeypatch):
    m, other = random_qmatrix(3, 3), random_qmatrix(3, 3)
    frozen = random_qmatrix(3, 3).freeze()
    copies = []
    original = QMatrix.__init__

    def counted(self, ca, cb):
        copies.append(1)
        original(self, ca, cb)

    monkeypatch.setattr(QMatrix, "__init__", counted)
    results = [m @ other, m.star(), m + other, m - other, -m, m.scale_left(I),
               m.scale_right(2.0), frozen.submatrix(slice(0, 2), 1), m.copy()]
    assert copies == []
    monkeypatch.setattr(QMatrix, "__init__", original)
    ref = QMatrix(m.ca, m.cb)
    want = [ref @ other, ref.star(), ref + other, ref - other, -ref, ref.scale_left(I),
            ref.scale_right(2.0), QMatrix(frozen.ca[0:2, 1:2], frozen.cb[0:2, 1:2]), ref]
    for got, exp in zip(results, want):
        assert got.ca.dtype == complex and np.array_equal(got.ca, exp.ca)
        assert np.array_equal(got.cb, exp.cb)


def test_eigenvalue_pairing_runs_once_per_frozen_element(monkeypatch):
    from qhspace.spectral import classify, spectral_report
    from qhspace.spn1 import sample_elements

    pairings = []
    pair = qmatrix._pair_adjoint_eigenvalues

    def counted(evals):
        pairings.append(1)
        return pair(evals)

    monkeypatch.setattr(qmatrix, "_pair_adjoint_eigenvalues", counted)
    elements = list(sample_elements(2, seed=3, count=4, word_length=2))
    unfrozen = [g.m.copy() for g in elements]
    for g in elements:
        classify(g)
        spectral_report(g)
        right_eigenpairs(g.m)
        right_eigenvalues(g.m)
    assert len(pairings) == len(elements)
    for g, m in zip(elements, unfrozen):
        cached = right_eigenvalues(g.m)
        assert np.array(cached).tobytes() == np.array(right_eigenvalues(m)).tobytes()
    # The unfrozen copies pair on every call.
    assert len(pairings) == 2 * len(elements)


def test_cached_pairing_raises_as_a_fresh_one():
    m = QMatrix.from_components(np.random.default_rng(5).standard_normal((3, 3, 4)))
    unfrozen = m.copy()
    m.freeze()
    right_eigenvalues(m)
    for tol in (1e-8, 1e-12, 1e-300, 0.0):
        outcomes = []
        for target in (m, unfrozen):
            try:
                outcomes.append(("ok", np.array(right_eigenvalues(target, tol=tol)).tobytes()))
            except NumericError as exc:
                outcomes.append(("error", str(exc), exc.residual))
        assert outcomes[0] == outcomes[1]
    with pytest.raises(NumericError):
        right_eigenvalues(m, tol=0.0)


def test_json_dict_matches_per_entry_reference():
    mats = [random_qmatrix(r, c) for r, c in ((1, 1), (2, 3), (4, 4), (6, 6), (3, 1))]
    mats.append(QMatrix.zeros(0, 0))
    signed = random_qmatrix(3, 3)
    signed.ca[0, 1] = complex(-0.0, 0.0)
    signed.cb[2, 2] = complex(0.0, -0.0)
    mats.append(signed)
    for m in mats:
        doc, ref = m.to_json_dict(), reference_matrix_dict(m)
        assert reference_dumps(doc) == reference_dumps(ref)
        assert all(type(v) is float for entry in doc["entries"] for v in entry)
