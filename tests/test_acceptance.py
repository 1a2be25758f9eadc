"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and prints a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to
see the lines as they appear).
"""

import math
import time

import numpy as np

from helpers import (
    random_boundary_point,
    random_interior_point,
    random_quaternion,
    random_unit_quaternion,
    small_perturbation,
)

from qhspace.crossratio import corner_bound_slacks, cross_ratio, entry_identity_check
from qhspace.geometry import apply, bergman_distance, from_lift
from qhspace.jorgensen import conjugation_orbit, fk_sequence, jorgensen_test
from qhspace.quaternion import (
    conj_components,
    modulus_components,
    mul_components,
)
from qhspace.qmatrix import right_eigenpairs, right_eigenvalues
from qhspace.spectral import loxodromic_data
from qhspace.spn1 import (
    compose,
    group_inverse,
    identity_residuals,
    make_loxodromic,
    random_element,
    sample_elements,
)

SAMPLE_SEED = 414213
SAMPLE_COUNT = 1000
WORD_LENGTH = 16

_cache = {}


def _samples():
    if "elements" not in _cache:
        start = time.perf_counter()
        _cache["elements"] = {
            n: list(sample_elements(n, SAMPLE_SEED + n, SAMPLE_COUNT, WORD_LENGTH))
            for n in (1, 2, 3)
        }
        _cache["sampling_seconds"] = time.perf_counter() - start
    return _cache["elements"]


def _report(idx, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {idx:2d} {name}: {status} ({detail})", flush=True)
    assert ok, f"criterion {idx} ({name}): {detail}"


def _claim_runs():
    """50 perturbation pairs against diag(1, 1.05, 1/1.05) with 10-step orbits."""
    if "claim_runs" in _cache:
        return _cache["claim_runs"]
    from qhspace.quaternion import Quaternion

    g = make_loxodromic([Quaternion(1)], Quaternion(1.05))
    rng = np.random.default_rng(2718281)
    runs = []
    while len(runs) < 50:
        scale = rng.uniform(0.1, 0.3)
        h = small_perturbation(2, rng, scale=scale)
        trace = conjugation_orbit(g, h, steps=10)
        pi0 = trace.steps[0].pi
        if not (1e-4 <= pi0 <= 1e-2):
            continue
        runs.append((h, trace))
    _cache["claim_runs"] = (g, runs)
    return _cache["claim_runs"]


def test_criterion_01_membership_and_identities():
    elements_by_n = _samples()
    start = time.perf_counter()
    worst_membership = 0.0
    worst_identity = 0.0
    total = 0
    for n, elements in elements_by_n.items():
        for element in elements:
            total += 1
            worst_membership = max(worst_membership, element.residual)
            worst_identity = max(worst_identity, float(identity_residuals(element).max()))
    elapsed = time.perf_counter() - start + _cache["sampling_seconds"]
    ok = worst_membership <= 1e-9 and worst_identity <= 1e-9 and elapsed < 30.0
    _report(
        1,
        "membership and thirteen identities",
        ok,
        f"{total} elements, membership max {worst_membership:.2e}, "
        f"identity max {worst_identity:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_corner_inequality_battery():
    worst = math.inf
    for elements in _samples().values():
        for element in elements:
            worst = min(worst, float(corner_bound_slacks(element).min()))
    _report(2, "corner inequality slacks", worst >= -1e-9, f"min slack {worst:.2e}")


def test_criterion_03_cross_ratio_gauge_invariance():
    rng = np.random.default_rng(161803)
    makers = (random_boundary_point, random_interior_point)
    worst = 0.0
    tuples = 0
    while tuples < 100:
        points = [makers[rng.integers(2)](2, rng) for _ in range(4)]
        base = cross_ratio(*points)
        if base.degenerate or base.vanishing:
            continue
        tuples += 1
        for _ in range(100):
            scales = [random_quaternion(rng) + type(points[0].lift[0, 0])(1.5) for _ in range(4)]
            moved = cross_ratio(*(p.rescaled(q) for p, q in zip(points, scales)))
            worst = max(worst, abs(moved.abs_value - base.abs_value))
    _report(3, "cross-ratio gauge invariance", worst <= 1e-10, f"max drift {worst:.2e}")


def test_criterion_04_entry_identities():
    worst = 0.0
    checked = 0
    for element in _samples()[2]:
        if checked == 500:
            break
        report = entry_identity_check(element)
        if report.degenerate:
            continue
        checked += 1
        worst = max(
            worst,
            abs(report.lhs1 - report.rhs1) / max(report.rhs1, 1e-300),
            abs(report.lhs2 - report.rhs2) / max(report.rhs2, 1e-300),
        )
    ok = checked == 500 and worst <= 1e-9
    _report(4, "corner-entry identities", ok, f"{checked} elements, max rel err {worst:.2e}")


def test_criterion_05_conjugacy_invariants():
    from qhspace.quaternion import Quaternion

    rng = np.random.default_rng(577215)
    worst_delta = worst_mg = 0.0
    verdict_mismatches = 0
    for trial in range(200):
        g = make_loxodromic(
            [random_unit_quaternion(rng)],
            random_unit_quaternion(rng) * rng.uniform(1.1, 2.0),
        )
        base = loxodromic_data(g)
        h = random_element(2, seed=int(rng.integers(1 << 30)), word_length=4)
        base_verdict = jorgensen_test(g, h).verdict
        c = random_element(2, seed=int(rng.integers(1 << 30)), word_length=3)
        ci = group_inverse(c)
        g_moved = compose(compose(c, g), ci)
        h_moved = compose(compose(c, h), ci)
        moved = loxodromic_data(g_moved)
        worst_delta = max(worst_delta, abs(moved.delta - base.delta))
        worst_mg = max(worst_mg, abs(moved.mg - base.mg))
        if jorgensen_test(g_moved, h_moved).verdict is not base_verdict:
            verdict_mismatches += 1
    ok = worst_delta <= 1e-7 and worst_mg <= 1e-7 and verdict_mismatches == 0
    _report(
        5,
        "conjugacy invariants",
        ok,
        f"max |d delta| {worst_delta:.2e}, max |d mg| {worst_mg:.2e}, "
        f"verdict mismatches {verdict_mismatches}",
    )


def test_criterion_06_eigenvalue_oracle():
    rng = np.random.default_rng(693147)
    worst_class = 0.0
    worst_residual = 0.0
    for trial in range(200):
        units = [random_unit_quaternion(rng)]
        lam = random_unit_quaternion(rng) * rng.uniform(1.1, 2.0)
        diag = make_loxodromic(units, lam)
        expected = sorted(
            ((q.re(), q.modulus()) for q in (units[0], lam, lam.conj().inverse())),
            key=lambda t: (t[1], t[0]),
        )
        c = random_element(2, seed=int(rng.integers(1 << 30)), word_length=4)
        element = compose(compose(c, diag), group_inverse(c))
        votes = sorted(
            ((v.real, abs(v)) for v in right_eigenvalues(element.m)),
            key=lambda t: (t[1], t[0]),
        )
        worst_class = max(
            worst_class,
            max(abs(a - b) for got, want in zip(votes, expected) for a, b in zip(got, want)),
        )
        for _, _, residual in right_eigenpairs(element.m):
            worst_residual = max(worst_residual, residual)
    ok = worst_class <= 1e-8 and worst_residual <= 1e-8
    _report(
        6,
        "right-eigenvalue oracle",
        ok,
        f"max class error {worst_class:.2e}, max eigenpair residual {worst_residual:.2e}",
    )


def test_criterion_07_contraction_decay():
    g, runs = _claim_runs()
    mg = loxodromic_data(g).mg
    assert abs(mg - 41.0 / 420.0) < 1e-12
    worst_margin = -math.inf
    slowest = 0.0
    for _, trace in runs:
        assert trace.branch == "T1" and trace.T1 < 1.0
        for prev, cur in zip(trace.steps, trace.steps[1:]):
            margin = cur.sqrt_pi - (trace.T1 * prev.sqrt_pi * (1.0 + 1e-6) + 1e-28)
            worst_margin = max(worst_margin, margin)
        slowest = max(slowest, trace.steps[10].pi)
    ok = worst_margin <= 0.0 and slowest < 1e-20
    _report(
        7,
        "contraction decay",
        ok,
        f"50 runs, worst bound excess {worst_margin:.2e}, max pi_10 {slowest:.2e}",
    )


def test_criterion_08_recursion_cross_check():
    _, runs = _claim_runs()
    worst = 0.0
    for _, trace in runs:
        for step in trace.steps[1:]:
            if step.formula_vs_matmul is not None:
                worst = max(worst, step.formula_vs_matmul)
    _report(8, "recursion cross-check", worst <= 1e-9, f"max entry discrepancy {worst:.2e}")


def test_criterion_09_pullback_convergence():
    g, runs = _claim_runs()
    worst_off = worst_defect = worst_corner = 0.0
    all_distinct = True
    used = 0
    for h, trace in runs:
        if any(step.pi == 0.0 for step in trace.steps):
            continue
        used += 1
        _, report = fk_sequence(g, h, K=8)
        worst_off = max(worst_off, max(report.off_block_norms[-1]))
        worst_defect = max(worst_defect, report.unitarity_defects[-1])
        worst_corner = max(
            worst_corner,
            abs(report.corner_moduli[-1][0] - report.expanding_modulus),
            abs(report.corner_moduli[-1][1] - report.contracting_modulus),
        )
        all_distinct = all_distinct and report.distinct
    ok = (
        used == len(runs)
        and worst_off <= 1e-6
        and worst_defect <= 1e-6
        and worst_corner <= 1e-6
        and all_distinct
    )
    _report(
        9,
        "pullback-sequence convergence",
        ok,
        f"{used} runs, off max {worst_off:.2e}, defect max {worst_defect:.2e}, "
        f"corner err max {worst_corner:.2e}, distinct {all_distinct}",
    )


def test_criterion_10_distance_invariance():
    rng = np.random.default_rng(301029)
    worst = 0.0
    elements = list(sample_elements(2, seed=987, count=50, word_length=8))
    for trial in range(500):
        g = elements[trial % len(elements)]
        z = random_interior_point(2, rng)
        w = random_interior_point(2, rng)
        worst = max(
            worst,
            abs(bergman_distance(apply(g, z), apply(g, w)) - bergman_distance(z, w)),
        )
    z = from_lift([0, 0.5, 1])
    w = from_lift([0, 1, 1])
    rho = bergman_distance(z, w)
    worked = abs(math.cosh(rho / 2.0) ** 2 - 9.0 / 8.0)
    ok = worst <= 1e-8 and worked <= 1e-12
    _report(
        10,
        "distance isometry invariance",
        ok,
        f"500 triples, max drift {worst:.2e}, worked-value error {worked:.2e}",
    )


def test_criterion_11_quaternion_layer():
    rng = np.random.default_rng(141421)
    count = 10**6
    a = rng.standard_normal((count, 4))
    b = rng.standard_normal((count, 4))
    w = rng.standard_normal((count, 4))
    mod_a = modulus_components(a)
    mod_b = modulus_components(b)
    scale = np.maximum(1.0, mod_a * mod_b)
    eps = 1e-12

    ab = mul_components(a, b)
    ba = mul_components(b, a)
    sym = np.abs(ab[:, 0] - ba[:, 0]) / scale
    mod_ab = modulus_components(ab)
    bound = (2.0 * a[:, 0] * b[:, 0] - ab[:, 0] - mod_ab) / scale
    mult = np.abs(mod_ab - mod_a * mod_b) / scale
    conj_ab = conj_components(ab)
    conj_ba = mul_components(conj_components(b), conj_components(a))
    anti = modulus_components(conj_ab - conj_ba) / scale

    w_mod_sq = (w * w).sum(axis=1)
    w_inv = conj_components(w) / w_mod_sq[:, None]
    moved = mul_components(mul_components(w, a), w_inv)
    scale_a = np.maximum(1.0, mod_a)
    re_inv = np.abs(moved[:, 0] - a[:, 0]) / scale_a
    mod_inv = np.abs(modulus_components(moved) - mod_a) / scale_a

    checks = {
        "Re(ab)=Re(ba)": sym.max(),
        "2Re(a)Re(b)-Re(ab)<=|ab|": bound.max(),
        "|ab|=|a||b|": mult.max(),
        "conj anti-automorphism": anti.max(),
        "Re conj-invariance": re_inv.max(),
        "modulus conj-invariance": mod_inv.max(),
    }
    worst = max(checks.values())
    ok = worst <= eps
    detail = ", ".join(f"{k} {v:.1e}" for k, v in checks.items())
    _report(11, "quaternion layer properties", ok, detail)
