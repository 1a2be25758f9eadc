"""Command line front end.

Subcommands: ``sample`` (seeded random group elements), ``classify``
(spectral report for one element), ``test`` (the discreteness condition for
a pair), ``iterate`` (conjugation-orbit trace), ``fk`` (pullback-sequence
report) and ``verify`` (identity / inequality residual tables over a sample
batch).  Exit codes: 0 success, 1 usage or input error, 2 verification
failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import jsonio
from .crossratio import corner_slack_table, entry_identity_table
from .jorgensen import DegenerateOrbitError, conjugation_orbit, fk_sequence, jorgensen_test
from .qmatrix import QMatrix
from .spectral import spectral_report
from .spn1 import ADMISSION_TOL, SpElement, identity_residual_table, sample_elements
from .tolerances import ENTRY_IDENTITY_FLOOR


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_output(text, path):
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_table(args, header, rows, summary):
    """Write ``rows`` as CSV, or as the ``steps`` of a JSON document with ``summary``."""
    if args.format == "json":
        doc = dict(summary, steps=[dict(zip(header, row)) for row in rows])
        _write_output(jsonio.dumps(doc), args.out)
    else:
        _write_output(jsonio.csv_text(header, rows), args.out)
    return 0


def _load_element(path, tol):
    return SpElement.from_json_dict(jsonio.load_file(path), tol=tol)


def _cmd_sample(args):
    elements = list(
        sample_elements(args.n, args.seed, args.count, args.word_length, tol=args.tol)
    )
    if args.out is None:
        _write_output(jsonio.dumps([e.to_json_dict() for e in elements]), None)
        return 0
    os.makedirs(args.out, exist_ok=True)
    for idx, element in enumerate(elements):
        path = os.path.join(args.out, f"element_{idx:04d}.json")
        _write_output(jsonio.dumps(element.to_json_dict()), path)
    print(f"wrote {len(elements)} elements to {args.out}")
    return 0


def _cmd_classify(args):
    element = _load_element(args.element, args.tol)
    _write_output(jsonio.dumps(spectral_report(element)), args.out)
    return 0


def _cmd_test(args):
    g = _load_element(args.g, args.tol)
    h = _load_element(args.h, args.tol)
    outcome = jorgensen_test(g, h)
    _write_output(jsonio.dumps(outcome.to_json_dict()), args.out)
    return 0


def _cmd_iterate(args):
    g = _load_element(args.g, args.tol)
    h = _load_element(args.h, args.tol)
    trace = conjugation_orbit(g, h, steps=args.steps)
    header, rows = trace.csv_rows()
    summary = {
        "mg": trace.mg,
        "T1": trace.T1,
        "T2": trace.T2,
        "R": trace.R,
        "branch": trace.branch,
        "bounds_applicable": trace.bounds_applicable,
        "bounds_hold": trace.bounds_hold,
        "degenerate_at": trace.degenerate_at,
    }
    return _write_table(args, header, rows, summary)


def _cmd_fk(args):
    g = _load_element(args.g, args.tol)
    h = _load_element(args.h, args.tol)
    try:
        _, report = fk_sequence(g, h, K=args.steps)
    except DegenerateOrbitError as exc:
        _write_output(
            jsonio.dumps({"degenerate_at": exc.step, "verdict": exc.verdict.value}),
            args.out,
        )
        return 0
    header = [
        "k",
        "off_12", "off_13", "off_21", "off_31", "off_23", "off_32",
        "unitarity_defect", "corner_nn", "corner_n1n1", "log10_scale",
    ]
    rows = []
    for i, k in enumerate(report.ks):
        rows.append(
            [
                k,
                *report.off_block_norms[i],
                report.unitarity_defects[i],
                *report.corner_moduli[i],
                report.log10_scale[i],
            ]
        )
    summary = {
        "converged": report.converged,
        "distinct": report.distinct,
        "expanding_modulus": report.expanding_modulus,
        "contracting_modulus": report.contracting_modulus,
        "threshold": report.threshold,
    }
    return _write_table(args, header, rows, summary)


def _cmd_verify(args):
    # --tol is the verification threshold; admission stays at the default so
    # that a strict threshold reports failure instead of stalling the sampler.
    tol = args.tol
    elements = list(sample_elements(args.n, args.seed, args.count, args.word_length))
    stack = QMatrix(np.stack([e.m.ca for e in elements]), np.stack([e.m.cb for e in elements]))
    membership_worst = max([0.0] + [e.residual for e in elements])
    identity_worst = np.max(identity_residual_table(stack), axis=0, initial=0.0)
    slack_worst = np.min(corner_slack_table(stack), axis=0, initial=np.inf)
    lhs, rhs, vanishing = entry_identity_table(stack)
    degenerate = vanishing.any(axis=(-2, -1))
    relative = abs(lhs - rhs) / np.maximum(rhs, ENTRY_IDENTITY_FLOOR)
    entry_worst = float(np.max(relative[~degenerate], initial=0.0))
    checks = {
        "membership_max": (membership_worst, membership_worst <= tol),
        "identity_residual_max": (float(identity_worst.max()), identity_worst.max() <= tol),
        "corner_slack_min": (float(slack_worst.min()), slack_worst.min() >= -tol),
        "entry_identity_rel_max": (entry_worst, entry_worst <= tol),
    }
    doc = {
        "n": args.n,
        "seed": args.seed,
        "count": len(elements),
        "word_length": args.word_length,
        "tolerance": tol,
        "identity_residuals": [float(v) for v in identity_worst],
        "corner_slacks": [float(v) for v in slack_worst],
        "degenerate_entry_identities": int(degenerate.sum()),
        "checks": {k: {"value": v, "pass": bool(ok)} for k, (v, ok) in checks.items()},
    }
    ok = all(flag for _, flag in checks.values())
    doc["pass"] = bool(ok)
    _write_output(jsonio.dumps(doc), args.out)
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qhspace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, batch=False):
        p.add_argument("--tol", type=float, default=ADMISSION_TOL,
                       help="admission / verification tolerance")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if batch:
            p.add_argument("--n", type=int, default=2, help="quaternionic dimension")
            p.add_argument("--seed", type=int, default=0, help="PCG64 seed")
            p.add_argument("--count", type=int, default=10, help="number of elements")
            p.add_argument("--word-length", type=int, default=8,
                           help="generator word length per element")

    p = sub.add_parser("sample", help="write seeded random group elements as JSON")
    add_common(p, batch=True)

    p = sub.add_parser("classify", help="spectral report for one element")
    p.add_argument("element", help="element JSON file")
    add_common(p)

    p = sub.add_parser("test", help="discreteness condition for a pair (g, h)")
    p.add_argument("g", help="loxodromic element JSON file")
    p.add_argument("h", help="second generator JSON file")
    add_common(p)

    p = sub.add_parser("iterate", help="conjugation-orbit trace for a pair")
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("--steps", type=int, default=16)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(p)

    p = sub.add_parser("fk", help="pullback-sequence report for a pair")
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(p)

    p = sub.add_parser("verify", help="residual tables over a sampled batch")
    add_common(p, batch=True)
    p.add_argument("--format", choices=("json",), default="json")

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # Parsing leaves the parser unchanged, so one instance serves every call
    # in a process; it is built on the first call, not at import.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # The parser outlives any rebinding of the handlers, so look them up by name.
    handler = globals()[f"_cmd_{args.command}"]
    try:
        return handler(args)
    except (ValueError, ArithmeticError, DegenerateOrbitError, OSError) as exc:
        print(f"qhspace: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
