import json
import math
import random
from collections import Counter

import numpy as np
import pytest

from helpers import (
    count_linalg,
    diagonal_of,
    horizontal_translation,
    lattice_element,
    lattice_kind,
    lattice_words,
    random_unit_quaternion,
    reference_loxodromic_data,
    reference_spectral_report,
    same_bits,
    shared_fixed_point_pairs,
    swap_element,
)

from qhspace import jsonio, spectral
from qhspace.cli import main
from qhspace.errors import ClassificationError, MembershipError, NumericError
from qhspace.jorgensen import jorgensen_test
from qhspace.geometry import apply, projectively_close, q_infinity, q_zero
from qhspace.qmatrix import QMatrix
from qhspace.quaternion import I, Quaternion
from qhspace.spectral import (
    ElementKind,
    _fixed_point_data,
    _lift,
    classify,
    invariants_from_eigs,
    loxodromic_data,
    spectral_report,
)
from qhspace.spn1 import (
    NormalFormParams,
    SpElement,
    StabilizerKind,
    compose,
    group_inverse,
    herm_form,
    identity_element,
    is_member,
    make_loxodromic,
    make_normal_form,
    random_element,
    sample_elements,
)

rng = np.random.default_rng(123)


def vertical_parabolic(n=2, s=I):
    """The vertical Heisenberg translation by s, an exact parabolic."""
    return make_normal_form(
        NormalFormParams(
            StabilizerKind.STAB_INFINITY,
            lam=Quaternion(1),
            mu=Quaternion(1),
            A=QMatrix.identity(n - 1),
            a=QMatrix.zeros(n - 1, 1),
            s=s,
        )
    )


def test_classify_loxodromic():
    g = is_member(QMatrix.diag([Quaternion(1), Quaternion(2), Quaternion(0.5)]))
    cls = classify(g)
    assert cls.kind is ElementKind.LOXODROMIC
    assert cls.boundary_classes == 2
    assert max(cls.eigen_moduli) == pytest.approx(2.0)


def test_classify_elliptic_with_null_eigenvectors():
    # diag(i, 1, 1): each standard eigenvector is null, but the eigenvalue-1
    # eigenspace contains the interior point with lift (0, 1, 1).
    g = is_member(QMatrix.diag([I, Quaternion(1), Quaternion(1)]))
    cls = classify(g)
    assert cls.kind is ElementKind.ELLIPTIC


def test_classify_parabolic():
    cls = classify(vertical_parabolic())
    assert cls.kind is ElementKind.PARABOLIC
    assert cls.boundary_classes == 1


def test_classify_identity():
    assert classify(identity_element(2)).kind is ElementKind.IDENTITY


@pytest.mark.parametrize("n", [1, 2, 3])
def test_classify_reads_minus_identity_as_the_identity(n):
    # -I acts on quaternionic hyperbolic space as I does: the isometry group
    # is Sp(n,1)/{I, -I}.
    g = is_member(-QMatrix.identity(n + 1))
    cls = classify(g)
    assert (cls.kind, cls.boundary_classes) == (ElementKind.IDENTITY, 0)
    assert spectral_report(g)["kind"] == "Identity"


def test_classify_boundary_elliptic_swap():
    cls = classify(swap_element(2))
    assert cls.kind is ElementKind.ELLIPTIC


def test_loxodromic_data_real_diagonal():
    g = is_member(QMatrix.diag([Quaternion(1), Quaternion(2), Quaternion(0.5)]))
    data = loxodromic_data(g)
    assert data.delta == 0.0
    assert data.mg == pytest.approx(1.5)
    assert abs(data.lam_n - 2.0) < 1e-12
    assert abs(data.lam_n1 - 0.5) < 1e-12
    assert projectively_close(data.attracting, q_infinity(2))
    assert projectively_close(data.repelling, q_zero(2))


def test_loxodromic_data_unit_class():
    g = is_member(QMatrix.diag([I, Quaternion(2), Quaternion(0.5)]))
    data = loxodromic_data(g)
    assert data.delta == pytest.approx(math.sqrt(2.0))
    assert data.mg == pytest.approx(2.0 * math.sqrt(2.0) + 1.5)


def test_loxodromic_data_rejects_non_loxodromic():
    with pytest.raises(ClassificationError):
        loxodromic_data(vertical_parabolic())


def test_invariants_are_conjugation_invariant():
    g = make_loxodromic([I], Quaternion(1.3, 0.2))
    base = loxodromic_data(g)
    for c in sample_elements(2, seed=3, count=20, word_length=6):
        moved = compose(compose(c, g), group_inverse(c))
        data = loxodromic_data(moved)
        assert abs(data.delta - base.delta) <= 1e-7
        assert abs(data.mg - base.mg) <= 1e-7


def test_fixed_points_are_fixed():
    g = make_loxodromic([random_unit_quaternion(rng)], Quaternion(1.4, 0.1))
    c = next(iter(sample_elements(2, seed=19, count=1, word_length=6)))
    moved = compose(compose(c, g), group_inverse(c))
    data = loxodromic_data(moved)
    assert projectively_close(apply(moved, data.attracting), data.attracting, 1e-8)
    assert projectively_close(apply(moved, data.repelling), data.repelling, 1e-8)


def test_eigenvalue_moduli_are_reciprocal():
    for seed in range(10):
        local = np.random.default_rng(seed)
        g = make_loxodromic(
            [random_unit_quaternion(local)],
            random_unit_quaternion(local) * local.uniform(1.1, 2.0),
        )
        data = loxodromic_data(g)
        assert abs(abs(data.lam_n) * abs(data.lam_n1) - 1.0) <= 1e-9


def test_invariants_do_not_depend_on_representative():
    # |q lam q^-1 - 1| = |lam - 1| for any unit q.
    lam = Quaternion.from_complex_pair(complex(0.2, 0.6))
    base = (lam - Quaternion(1)).modulus()
    for _ in range(50):
        q = random_unit_quaternion(rng)
        moved = q * lam * q.inverse()
        assert abs((moved - Quaternion(1)).modulus() - base) < 1e-12


def test_invariants_from_eigs_helper():
    delta, mg = invariants_from_eigs([1j], complex(2.0), complex(0.5))
    assert delta == pytest.approx(math.sqrt(2.0))
    assert mg == pytest.approx(2.0 * math.sqrt(2.0) + 1.5)
    delta, mg = invariants_from_eigs([], complex(1.3), complex(1 / 1.3))
    assert delta == 0.0


def test_conjugator_diagonalizes():
    for n, seed in ((1, 0), (2, 1), (3, 2)):
        local = np.random.default_rng(seed)
        units = [random_unit_quaternion(local) for _ in range(n - 1)]
        g = make_loxodromic(units, random_unit_quaternion(local) * 1.5)
        c = next(iter(sample_elements(n, seed=seed + 50, count=1, word_length=6)))
        moved = compose(compose(c, g), group_inverse(c))
        data = loxodromic_data(moved)
        entries, off = diagonal_of(moved, data.conjugator)
        assert off < 1e-9
        # Expanding class sits in slot n-1, contracting in slot n.
        assert entries[n - 1].modulus() == pytest.approx(1.5, abs=1e-9)
        assert entries[n].modulus() == pytest.approx(1.0 / 1.5, abs=1e-9)


def test_spectral_report_shape():
    g = is_member(QMatrix.diag([Quaternion(1), Quaternion(2), Quaternion(0.5)]))
    report = spectral_report(g)
    assert report["kind"] == "Loxodromic"
    assert report["delta"] == 0.0
    assert report["mg"] == pytest.approx(1.5)
    assert report["u"] is not None and report["v"] is not None
    par = spectral_report(vertical_parabolic())
    assert par["kind"] == "Parabolic"
    assert par["mg"] is None


def test_spectral_report_decomposes_each_element_once(monkeypatch):
    g = make_loxodromic([Quaternion(1)], Quaternion(1.05))
    h = random_element(n=2, seed=7, word_length=8)
    calls = count_linalg(monkeypatch)
    assert spectral_report(g)["kind"] == "Loxodromic"
    assert (calls["eig"], calls["eigvals"]) == (1, 0)
    spectral_report(h)
    spectral_report(g)
    assert (calls["eig"], calls["eigvals"]) == (2, 0)


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ClassificationError, MembershipError, ArithmeticError) as err:
        return type(err), str(err)


def _spectral_oracle_elements(n):
    """Sampled words, conjugated diagonal loxodromics with unit classes, and
    both generators of the shared-fixed-point pairs."""
    local = np.random.default_rng(n)
    out = [g for length in (1, 2, 8) for g in sample_elements(n, 60 + length, 6, length)]
    for c in sample_elements(n, 70, 4, 4):
        diag = make_loxodromic(
            [random_unit_quaternion(local) for _ in range(n - 1)], random_unit_quaternion(local) * 1.3
        )
        out.append(compose(compose(c, diag), group_inverse(c)))
    out += [x for pair in shared_fixed_point_pairs(n, 5) for x in pair]
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_loxodromic_data_matches_the_conjugator_building_reference(n):
    checked = 0
    for g in _spectral_oracle_elements(n):
        got, want = _outcome(loxodromic_data, g), _outcome(reference_loxodromic_data, g)
        if isinstance(want, tuple):
            assert got == want
            continue
        checked += 1
        for name in ("unit_eigs", "lam_n", "lam_n1", "delta", "mg"):
            assert getattr(got, name) == getattr(want, name)
        for name in ("attracting", "repelling"):
            assert same_bits(getattr(got, name).lift, getattr(want, name).lift)
        assert same_bits(got.conjugator.m, want.conjugator.m)
        assert got.conjugator.residual == want.conjugator.residual
    assert checked >= 20


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_vu_pairing_is_the_form_of_the_lifts_bit_for_bit(n):
    # The conjugator scales v by the certified <v, u>; these bits are the
    # ones herm_form gives, so the conjugator keeps the bits of scaling v
    # by its own pairing.
    checked = 0
    for g in _spectral_oracle_elements(n):
        try:
            data = _fixed_point_data(g)
        except (ClassificationError, ArithmeticError):
            continue
        want = herm_form(_lift(data.lifts, 1), _lift(data.lifts, 0))
        assert np.array(data.vu_pairing.complex_pair()).tobytes() == np.array(want.complex_pair()).tobytes()
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8])
def test_spectral_report_matches_reference(n):
    elements = _spectral_oracle_elements(n) + [identity_element(n)]
    kinds = set()
    for g in elements:
        got, want = _outcome(spectral_report, g), _outcome(reference_spectral_report, g)
        if isinstance(want, tuple):
            assert got == want
            continue
        kinds.add(want["kind"])
        assert jsonio.dumps(got) == jsonio.dumps(want)
    assert {"Loxodromic", "Identity"} <= kinds and len(kinds) >= 3


def test_spectral_report_builds_no_conjugator(monkeypatch):
    # Two unit classes.  The conjugator's unit columns come from the same
    # kept eig, so building it takes no second decomposition.
    local = np.random.default_rng(8)
    g = make_loxodromic([random_unit_quaternion(local) for _ in range(2)], Quaternion(1.2, 0.3))
    c = next(iter(sample_elements(3, seed=81, count=1, word_length=4)))
    g = compose(compose(c, g), group_inverse(c))
    calls = count_linalg(monkeypatch)
    assert spectral_report(g)["kind"] == "Loxodromic"
    assert dict(calls) == {"eig": 1}
    assert isinstance(loxodromic_data(g).conjugator, SpElement)
    assert dict(calls) == {"eig": 1}


def test_conjugator_lets_programming_errors_through(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("broken admission")

    g = make_loxodromic([Quaternion(1)], Quaternion(1.05))
    monkeypatch.setattr(spectral, "is_member", broken)
    with pytest.raises(TypeError, match="broken admission"):
        loxodromic_data(g)


def conjugated_translations(n, s, length, seed):
    """``(w, w T w^-1)`` for T the vertical translation by s and the 80 words w
    of ``sample_elements(n, seed, 80, length)``; None for a refused product."""
    t = vertical_parabolic(n, s)
    for w in sample_elements(n, seed, 80, length):
        try:
            yield w, compose(compose(w, t), group_inverse(w))
        except MembershipError:
            yield w, None


#: (s, n, word length, seed, word index) of exact parabolics whose defective
#: class eig splits into an expanding and a contracting value.  The first
#: was certified loxodromic with candidate fixed points pairing to 1.6e-8 and
#: mg = 3.3e-7; the second was certified by ``test`` while ``classify`` read
#: it as parabolic.
MISREAD_PARABOLICS = [(I, 5, 8, 35249, 62), (I * 2.0, 2, 6, 14188, 33)]


@pytest.mark.parametrize("s, n, length, seed, k", MISREAD_PARABOLICS)
def test_a_split_parabolic_is_not_loxodromic(tmp_path, capsys, s, n, length, seed, k):
    w, g = list(conjugated_translations(n, s, length, seed))[k]
    with pytest.raises(ClassificationError, match="candidate fixed points pair to"):
        jorgensen_test(g, w)
    assert classify(g).kind is ElementKind.PARABOLIC
    path = tmp_path / "g.json"
    path.write_text(jsonio.dumps(g.to_json_dict()))
    assert main(["classify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "Parabolic"


def test_boundary_classes_follow_the_kind():
    # Of an elliptic or a parabolic element exactly one eigenvalue class has an
    # eigenspace that meets the closed ball: eigenvectors of non-similar unit
    # classes are J-orthogonal, and the J-complement of a negative or a null
    # vector holds no other null line.  Counted one SVD eigenspace at a time,
    # the conjugated translations read 2 to 4 classes on 19 of these 80.
    s, n, length, seed, _ = MISREAD_PARABOLICS[0]
    swap = swap_element(n)
    for w, g in conjugated_translations(n, s, length, seed):
        cls = classify(g)
        assert (cls.kind, cls.boundary_classes) == (ElementKind.PARABOLIC, 1)
        cls = classify(compose(compose(w, swap), group_inverse(w)))
        assert (cls.kind, cls.boundary_classes) == (ElementKind.ELLIPTIC, 1)


def test_classify_and_the_fixed_points_take_one_loxodromy_decision():
    checked = 0
    for length in (6, 8):
        for _, g in conjugated_translations(2, I * 2.0, length, 7000 * 2 + 31 * length + 2):
            if g is None:
                continue
            try:
                _fixed_point_data(g)
                certified = True
            except ClassificationError:
                certified = False
            kind = classify(g).kind
            assert (kind is ElementKind.LOXODROMIC) == certified
            assert kind is ElementKind.PARABOLIC
            checked += 1
    assert checked >= 159


def test_no_conjugated_horizontal_translation_is_certified_loxodromic():
    # The horizontal translation H, conjugated by 80 sampled words w at each
    # n and word length: 720 exact parabolics w H w^-1.  A 3x3 Jordan block
    # splits in eig by far more than a 2x2 one.  The fixed-point decision must
    # refuse every one of them, and classify, which raises NumericError on
    # many of them (the adjoint spectrum does not split into conjugate
    # pairs), must never read one as loxodromic or elliptic.
    kinds = Counter()
    for n in (2, 3, 5):
        t = horizontal_translation(n)
        for length in (1, 4, 8):
            for w in sample_elements(n, 5000 + 13 * n + length, 80, length):
                g = compose(compose(w, t), group_inverse(w))
                with pytest.raises((ClassificationError, NumericError)):
                    _fixed_point_data(g)
                try:
                    kinds[classify(g).kind] += 1
                except NumericError:
                    kinds[NumericError] += 1
    assert sum(kinds.values()) == 720
    assert ElementKind.LOXODROMIC not in kinds and ElementKind.ELLIPTIC not in kinds, kinds


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lattice_words_get_their_kind(n):
    # The words of test_no_lattice_pair_is_certified_non_discrete, their kind
    # decided in integers by their powers: +-I, periodic or +-unipotent.  The
    # undecided ones are the loxodromics.
    boundary = {ElementKind.IDENTITY: 0, ElementKind.ELLIPTIC: 1, ElementKind.PARABOLIC: 1}
    kinds = Counter()
    for word in lattice_words(n, 200, random.Random(n)):
        if (kind := lattice_kind(word)) is None:
            continue
        cls = classify(lattice_element(word))
        assert (cls.kind, cls.boundary_classes) == (kind, boundary[kind]), word
        kinds[kind] += 1
    assert len(kinds) == 3 and sum(kinds.values()) >= 140, kinds
