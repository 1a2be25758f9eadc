"""Inputs, operations and known-answer checks of the workloads.

A workload's set-up writes its inputs under a work directory and returns the
operations of one round.  An operation is one ``qhspace`` command line plus
a check that reads what the command wrote.  Every round repeats the same
operations, so each call must reproduce its first output byte for byte.

Inputs depend only on the benchmark seed: every random draw comes from a
PCG64 stream keyed by ``(seed, workload tag, ...)``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from qhspace import jsonio
from qhspace.errors import MembershipError
from qhspace.jorgensen import Verdict
from qhspace.qmatrix import QMatrix
from qhspace.quaternion import Quaternion, random_unit
from qhspace.spectral import ElementKind
from qhspace.spn1 import (
    NormalFormParams,
    SpElement,
    StabilizerKind,
    group_inverse,
    is_member,
    make_loxodromic,
    make_normal_form,
    random_element,
    random_unitary,
    sample_elements,
)


@dataclass(frozen=True)
class Outcome:
    """What one call produced: ``units`` are the useful items (0 on failure)."""

    ok: bool
    units: int
    digest: str
    reason: str = ""


@dataclass(frozen=True)
class Op:
    role: str  # "primary" or "secondary"
    command: str
    argv: list
    output: str  # the file or directory the command writes
    check: Callable[[], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    make_ops: Callable[[int, str], list]
    primary: str
    secondary: str
    units: tuple  # what primary and secondary throughput count
    aliases: dict  # benchmark metric name -> the name the ROADMAP uses


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _fail(reason, digest="") -> Outcome:
    return Outcome(False, 0, digest, reason)


def _stream_seed(seed, *key) -> int:
    """A CLI ``--seed`` value derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def _write_element(path, element: SpElement):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(jsonio.dumps(element.to_json_dict()))


def _conjugate(c: SpElement, x: SpElement) -> SpElement:
    """Admit ``c x c^-1`` at the default tolerance, as the CLI will on load."""
    return is_member(c.m @ x.m @ group_inverse(c).m)


#: Steps of the scrambled orders in which :func:`_norm_quantiles` hands out
#: quantiles; coprime with every count they are used with (4 to 24).  A
#: pair's g and h use different steps, so their worst-conditioned draws do
#: not meet in one pair.
CONJUGATOR_STEP = 7
PARTNER_STEP = 5


def _norm_quantiles(elements, count, step=1):
    """Candidates at ``count`` evenly spaced norm quantiles of a sampled pool.

    ``elements`` yields two elements per quantile.  Sorted by norm, the pool
    is cut into ``count`` consecutive pairs.  Entry k of the result starts
    with pair ``k * step % count``, so a step coprime with ``count`` spreads
    the quantiles over callers that take entries by class, and goes on with
    every better-conditioned element of the pool, the fallbacks for a
    conjugation that fails admission.  Every seed thus gets the same spread
    of conditioning, which decides most failures.
    """
    pool = sorted(elements, key=lambda e: e.m.norm_max())
    return [tuple(pool[2 * q: 2 * q + 2]) + tuple(reversed(pool[: 2 * q]))
            for q in (k * step % count for k in range(count))]


# -- batch --------------------------------------------------------------------

BATCH_DIMS = (1, 2, 3)
#: Calls of each command per n, each on its own CLI seed.  Short calls
#: (about 20 ms) keep a call's best time over the rounds clear of the
#: host's interruptions; calls of 10 elements (about 60 ms) spread by up to
#: 22% between runs on a busy host, against 7% for the 4 ms calls of pairs.
BATCH_CALLS_PER_DIM = 4
BATCH_COUNT = 3
BATCH_WORD_LENGTH = 16


def _check_sample(out_dir, n) -> Outcome:
    names = sorted(os.listdir(out_dir))
    if names != [f"element_{i:04d}.json" for i in range(BATCH_COUNT)]:
        return _fail(f"sample wrote {len(names)} files, expected {BATCH_COUNT}")
    blobs = [_read(os.path.join(out_dir, name)) for name in names]
    digest = _sha(b"".join(blobs))
    for name, blob in zip(names, blobs):
        data = json.loads(blob)
        try:
            element = SpElement.from_json_dict(data)
        except MembershipError as exc:
            return _fail(f"{name} does not re-admit: {exc}", digest)
        if data.get("n") != n or element.n != n:
            return _fail(f"{name} has n = {data.get('n')}, expected {n}", digest)
    return Outcome(True, BATCH_COUNT, digest)


def _check_verify(path) -> Outcome:
    blob = _read(path)
    doc = json.loads(blob)
    if doc.get("pass") is not True:
        return _fail("verify did not report pass", _sha(blob))
    if doc.get("count") != BATCH_COUNT:
        return _fail(f"verify checked {doc.get('count')} elements", _sha(blob))
    return Outcome(True, BATCH_COUNT, _sha(blob))


def batch_ops(seed, work) -> list:
    ops = []
    for n in BATCH_DIMS:
        for r in range(BATCH_CALLS_PER_DIM):
            common = [
                "--n", str(n), "--seed", str(_stream_seed(seed, 1, n, r)),
                "--count", str(BATCH_COUNT), "--word-length", str(BATCH_WORD_LENGTH),
            ]
            out_dir = os.path.join(work, f"sample_n{n}_{r}")
            ops.append(Op("primary", "sample", ["sample", *common, "--out", out_dir],
                          out_dir, partial(_check_sample, out_dir, n)))
            out = os.path.join(work, f"verify_n{n}_{r}.json")
            ops.append(Op("secondary", "verify", ["verify", *common, "--out", out],
                          out, partial(_check_verify, out)))
    return ops


# -- pairs --------------------------------------------------------------------

#: Pair i of a dimension is in class i % 4: classes 0 and 2 have unit
#: classes near 1, class 1 random ones, and class 3 (random unit classes)
#: has an h that fixes one of g's fixed points.
PAIR_CLASSES = 4
SHARED_CLASS = 3
#: |lambda| - 1 is log-uniform on this range, reaching near-parabolic g.
LOXODROMY_RANGE = (1e-5, 0.3)


@dataclass(frozen=True)
class PairsSpec:
    """Input regime of a pairs workload.

    ``per_dim`` pairs, a multiple of PAIR_CLASSES, are made for each n in
    ``dims``.  Conjugators of g are sampled at ``conjugator_word_length``
    and the partners h at ``partner_word_length``.  ``near_angle`` is the
    range of angles from 1 of the unit classes drawn near 1.  In the
    shared-fixed-point class, ``shared_loxodromy`` replaces LOXODROMY_RANGE
    and ``stabilizer_loxodromic_share`` is the share of loxodromic k.
    """

    dims: tuple
    per_dim: int
    conjugator_word_length: int
    partner_word_length: int
    shared_loxodromy: tuple
    near_angle: tuple
    stabilizer_loxodromic_share: float


#: Gated regime, in which no call fails: n = 5 is left out, conjugators are
#: single normal forms (a well-conditioned diagonal frame), partners are
#: products of two (single ones include elliptic elements with clustered
#: eigenvalues), near-1 unit classes keep at least 1e-3 apart from 1, and
#: shared-fixed-point pairs keep |lambda| - 1 >= 1e-2, where the degenerate
#: certificate survives, with a loxodromic k (a conjugated parabolic k can
#: be classified loxodromic).  Eight pairs per n keep a round short, so a
#: call's best time is taken over many rounds; the median call still lies
#: inside the n = 2 group, not on a boundary between two dimensions.
PAIRS = PairsSpec(dims=(1, 2, 3), per_dim=8, conjugator_word_length=1, partner_word_length=2,
                  shared_loxodromy=(1e-2, 0.3), near_angle=(1e-3, 3e-2),
                  stabilizer_loxodromic_share=1.0)
#: Stress regime, not gated: n = 5, words of 8 factors, near-parabolic
#: shared pairs and tightly clustered unit classes.  About a fifth of its
#: calls fail today (see perfbench/README.md).
PAIRS_STRESS = PairsSpec(dims=(1, 2, 3, 5), per_dim=24, conjugator_word_length=8,
                         partner_word_length=8, shared_loxodromy=LOXODROMY_RANGE,
                         near_angle=(1e-4, 1e-2), stabilizer_loxodromic_share=0.5)
MG_REL_TOL = 1e-9
DEGENERATE = {Verdict.DEGENERATE_ELEMENTARY.value, Verdict.DEGENERATE_NON_DISCRETE.value}
KINDS = {kind.value for kind in ElementKind}


def _stratified(rng, stratum, strata, lo, hi) -> float:
    """Log-uniform draw from one of ``strata`` equal slices of [lo, hi].

    Each class of pairs covers every slice once, so the share of
    near-parabolic inputs is the same for every seed.
    """
    lo, hi = math.log10(lo), math.log10(hi)
    return 10.0 ** (lo + (hi - lo) * (stratum + rng.random()) / strata)


def _near_one(lo, hi, rng) -> Quaternion:
    """A unit quaternion at a log-uniform angle in [lo, hi] from 1."""
    angle = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
    axis = rng.standard_normal(3)
    axis *= math.sin(angle) / np.linalg.norm(axis)
    return Quaternion(math.cos(angle), *axis)


def _stabilizer(rng, n, loxodromic_share) -> SpElement:
    """A normal form fixing q_infinity or q_0, loxodromic at the given share."""
    kind = (StabilizerKind.STAB_INFINITY, StabilizerKind.STAB_ZERO)[int(rng.integers(2))]
    lam = random_unit(rng)
    if rng.random() < loxodromic_share:
        lam = lam * rng.uniform(1.01, 1.3)
    mu = lam.conj().inverse()
    a = QMatrix.from_components(0.35 * rng.standard_normal((n - 1, 1, 4)))
    a_sq = float((a.entry_moduli() ** 2).sum()) if n > 1 else 0.0
    imag = Quaternion(0.0, *(0.35 * rng.standard_normal(3)))
    s = mu * (0.5 * a_sq / mu.modulus_sq()) + mu * imag
    return make_normal_form(
        NormalFormParams(kind, lam=lam, mu=mu, A=random_unitary(rng, n - 1), a=a, s=s)
    )


def _expected_mg(unit_eigs, lam: Quaternion) -> float:
    """``2 delta + |lam - 1| + |conj(lam)^-1 - 1|`` from the construction."""
    delta = max(((q - 1).modulus() for q in unit_eigs), default=0.0)
    return 2.0 * delta + (lam - 1).modulus() + (lam.conj().inverse() - 1).modulus()


def _check_test(path, expected_mg, shared) -> Outcome:
    blob = _read(path)
    digest = _sha(blob)
    doc = json.loads(blob)
    verdict, mg = doc["verdict"], doc["mg"]
    if not abs(mg - expected_mg) <= MG_REL_TOL * expected_mg:
        return _fail(f"mg {mg!r} differs from the constructed {expected_mg!r}", digest)
    if shared:
        if verdict not in DEGENERATE:
            return _fail(f"shared fixed point, but verdict {verdict}", digest)
    elif verdict not in DEGENERATE:
        holds = any(mg * (1.0 + math.sqrt(doc[key])) < 1.0 for key in ("crossAbs1", "crossAbs2"))
        if holds != (verdict == Verdict.CONDITION_HOLDS.value):
            return _fail(f"verdict {verdict} disagrees with mg(1+sqrt(crossAbs)) < 1", digest)
    return Outcome(True, 1, digest)


def _check_classify(path, n) -> Outcome:
    blob = _read(path)
    digest = _sha(blob)
    doc = json.loads(blob)
    eigs = [complex(re, im) for re, im in doc["eigs"]]
    if doc["kind"] not in KINDS or len(eigs) != n + 1:
        return _fail(f"kind {doc['kind']} with {len(eigs)} eigenvalues for n = {n}", digest)
    loxodromic = doc["kind"] == ElementKind.LOXODROMIC.value
    if loxodromic != (doc["mg"] is not None):
        return _fail("mg is reported exactly for loxodromic elements", digest)
    if loxodromic:
        by_modulus = sorted(eigs, key=abs)
        delta = max((abs(lam - 1) for lam in by_modulus[1:-1]), default=0.0)
        mg = 2.0 * delta + abs(by_modulus[0] - 1) + abs(by_modulus[-1] - 1)
        if not abs(doc["mg"] - mg) <= 1e-6 * mg:
            return _fail(f"mg {doc['mg']!r} disagrees with the reported eigenvalues", digest)
    return Outcome(True, 1, digest)


def pairs_ops(spec: PairsSpec, seed, work) -> list:
    ops = []
    for n in spec.dims:
        rng = np.random.default_rng([seed, 2, n])
        pools = [sample_elements(n, _stream_seed(seed, 2, n, k), 2 * spec.per_dim, word_length)
                 for k, word_length in enumerate((spec.conjugator_word_length,
                                                  spec.partner_word_length))]
        conjugators = _norm_quantiles(pools[0], spec.per_dim, CONJUGATOR_STEP)
        partners = _norm_quantiles(pools[1], spec.per_dim, PARTNER_STEP)
        strata = spec.per_dim // PAIR_CLASSES
        for i in range(spec.per_dim):
            stratum, cls = divmod(i, PAIR_CLASSES)
            # Near-identity unit classes let the condition hold; random ones
            # make it fail.
            draw = partial(_near_one, *spec.near_angle) if cls % 2 == 0 else random_unit
            unit_eigs = [draw(rng) for _ in range(n - 1)]
            shared = cls == SHARED_CLASS
            span = spec.shared_loxodromy if shared else LOXODROMY_RANGE
            lam = draw(rng) * (1.0 + _stratified(rng, stratum, strata, *span))
            diag = make_loxodromic(unit_eigs, lam)
            k = _stabilizer(rng, n, spec.stabilizer_loxodromic_share) if shared else None
            for c in conjugators[i]:
                try:
                    g = _conjugate(c, diag)
                    h = _conjugate(c, k) if shared else partners[i][0]
                    break
                except MembershipError:
                    continue
            else:
                raise RuntimeError(f"no admissible conjugator for pair {i} at n = {n}")
            g_path = os.path.join(work, f"g_n{n}_{i:02d}.json")
            h_path = os.path.join(work, f"h_n{n}_{i:02d}.json")
            _write_element(g_path, g)
            _write_element(h_path, h)
            test_out = os.path.join(work, f"test_n{n}_{i:02d}.json")
            ops.append(Op("primary", "test", ["test", g_path, h_path, "--out", test_out],
                          test_out,
                          partial(_check_test, test_out, _expected_mg(unit_eigs, lam), shared)))
            cls_out = os.path.join(work, f"classify_n{n}_{i:02d}.json")
            ops.append(Op("secondary", "classify", ["classify", h_path, "--out", cls_out],
                          cls_out, partial(_check_classify, cls_out, n)))
    return ops


# -- orbit --------------------------------------------------------------------

ORBIT_DIMS = (1, 2, 3)
#: Pair i is in class i % 6: its dimension is ORBIT_DIMS[i % 3], and g is
#: diagonal for even i and conjugated by a sampled element for odd i.
ORBIT_CLASSES = 6
ORBIT_PAIRS = 24
ORBIT_MODULUS_RANGE = (1.01, 1.1)
ITERATE_STEPS = 16  # the CLI default
LONG_STEPS = 64  # DEFAULT_ORBIT_STEPS of the library
#: Every LONG_EVERY-th pair also runs the orbit at LONG_STEPS; 5 is coprime
#: with the number of classes, so the slice covers every class.
LONG_EVERY = 5
FK_STEPS = 8
ITERATE_HEADER = [
    "k", "pi", "sqrt_pi", "bound", "a_nn", "a_nn1", "a_n1n", "a_n1n1",
    "alpha_norm", "beta_norm", "gamma_norm", "theta_norm", "formula_vs_matmul",
]
FK_HEADER = [
    "k", "off_12", "off_13", "off_21", "off_31", "off_23", "off_32",
    "unitarity_defect", "corner_nn", "corner_n1n1", "log10_scale",
]


def _csv_rows(blob, header):
    rows = list(csv.reader(io.StringIO(blob.decode("utf-8"))))
    if not rows or rows[0] != header:
        return None
    return [[float(cell) for cell in row] for row in rows[1:]]


def _check_iterate(path, steps) -> Outcome:
    blob = _read(path)
    digest = _sha(blob)
    rows = _csv_rows(blob, ITERATE_HEADER)
    if not rows:
        return _fail("iterate wrote no orbit table", digest)
    if [row[0] for row in rows] != list(range(len(rows))):
        return _fail("orbit steps are not numbered 0, 1, 2, ...", digest)
    if not all(math.isfinite(row[1]) and row[1] >= 0.0 for row in rows):
        return _fail("orbit has a non-finite corner product", digest)
    # Shorter orbits are legitimate only when pi underflowed (truncation).
    if len(rows) != steps + 1 and rows[-1][1] >= 1e-300:
        return _fail(f"orbit stopped at step {len(rows) - 1} of {steps}", digest)
    return Outcome(True, len(rows), digest)


def _check_fk(path) -> Outcome:
    blob = _read(path)
    digest = _sha(blob)
    if blob.lstrip().startswith(b"{"):
        doc = json.loads(blob)
        if isinstance(doc.get("degenerate_at"), int) and doc.get("verdict") in DEGENERATE:
            return Outcome(True, 1, digest)
        return _fail("fk wrote an unexpected JSON document", digest)
    rows = _csv_rows(blob, FK_HEADER)
    if rows is None or [row[0] for row in rows] != list(range(FK_STEPS + 1)):
        return _fail(f"fk did not report k = 0..{FK_STEPS}", digest)
    return Outcome(True, 1, digest)


def _orbit_pair(rng, i, conjugators, partners):
    """Contraction-regime pair i; pair 0 is the README pair."""
    n = ORBIT_DIMS[i % len(ORBIT_DIMS)]
    stratum = i // ORBIT_CLASSES
    lo, hi = ORBIT_MODULUS_RANGE
    modulus = lo + (hi - lo) * (stratum + rng.random()) / (ORBIT_PAIRS // ORBIT_CLASSES)
    if i == 0:
        return (make_loxodromic([Quaternion(1.0)], Quaternion(1.05)),
                random_element(n=2, seed=7, word_length=8))
    diag = make_loxodromic([Quaternion(1.0)] * (n - 1), Quaternion(modulus))
    h = partners[n][i // len(ORBIT_DIMS)][0]
    if i % 2 == 0:
        return diag, h
    for c in conjugators[n][stratum]:
        try:
            return _conjugate(c, diag), h
        except MembershipError:
            continue
    raise RuntimeError(f"no admissible conjugator for orbit pair {i}")


def orbit_ops(seed, work) -> list:
    rng = np.random.default_rng([seed, 3])
    per_dim = ORBIT_PAIRS // len(ORBIT_DIMS)
    strata = ORBIT_PAIRS // ORBIT_CLASSES
    conjugators = {
        n: _norm_quantiles(sample_elements(n, _stream_seed(seed, 3, n, 0), 2 * strata),
                           strata, CONJUGATOR_STEP)
        for n in ORBIT_DIMS
    }
    partners = {
        n: _norm_quantiles(sample_elements(n, _stream_seed(seed, 3, n, 1), 2 * per_dim),
                           per_dim, PARTNER_STEP)
        for n in ORBIT_DIMS
    }
    ops = []
    for i in range(ORBIT_PAIRS):
        g, h = _orbit_pair(rng, i, conjugators, partners)
        g_path = os.path.join(work, f"g_{i:02d}.json")
        h_path = os.path.join(work, f"h_{i:02d}.json")
        _write_element(g_path, g)
        _write_element(h_path, h)
        runs = [ITERATE_STEPS] + ([LONG_STEPS] if i % LONG_EVERY == 0 else [])
        for steps in runs:
            out = os.path.join(work, f"iterate_{i:02d}_{steps}.csv")
            ops.append(Op("primary", "iterate",
                          ["iterate", g_path, h_path, "--steps", str(steps), "--out", out],
                          out, partial(_check_iterate, out, steps)))
        out = os.path.join(work, f"fk_{i:02d}.csv")
        ops.append(Op("secondary", "fk",
                      ["fk", g_path, h_path, "--steps", str(FK_STEPS), "--out", out],
                      out, partial(_check_fk, out)))
    return ops


WORKLOADS = {
    "batch": Workload(
        "batch", batch_ops, "sample", "verify", ("elements", "elements"),
        {"primary_per_s": "sample_elements_per_s", "secondary_per_s": "verify_elements_per_s"},
    ),
    "pairs": Workload(
        "pairs", partial(pairs_ops, PAIRS), "test", "classify", ("calls", "calls"),
        {"primary_p50_ms": "test_p50_ms", "secondary_p50_ms": "classify_p50_ms"},
    ),
    "pairs-stress": Workload(
        "pairs-stress", partial(pairs_ops, PAIRS_STRESS), "test", "classify", ("calls", "calls"),
        {"primary_p50_ms": "test_p50_ms", "secondary_p50_ms": "classify_p50_ms"},
    ),
    "orbit": Workload(
        "orbit", orbit_ops, "iterate", "fk", ("orbit rows", "calls"),
        {"primary_per_s": "orbit_steps_per_s", "secondary_p50_ms": "fk_p50_ms"},
    ),
}
