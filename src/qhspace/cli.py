"""Command line front end.

Subcommands: ``sample`` (seeded random group elements), ``classify``
(spectral report for one element), ``test`` (the discreteness condition for
a pair), ``iterate`` (conjugation-orbit trace), ``fk`` (pullback-sequence
report) and ``verify`` (identity / inequality residual tables over a sample
batch).  Exit codes: 0 success, 1 usage or input error, 2 verification
failure.

A call parses its arguments with its subcommand's own parser: the top-level
parser only hands the arguments after the command name on to it, so
``main`` looks the command up itself and runs the top-level parser only
when the arguments do not start with a command name.  Usage, help and error
text are those of the top-level route.  Each file artifact is written with
one descriptor: its UTF-8 bytes go out through ``os.open``/``os.write``,
not through a text-mode file object.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import warnings
from gettext import gettext

import numpy as np

from . import jsonio
from .crossratio import corner_slack_table, entry_identity_table
from .errors import MembershipError, ShapeMismatchError
from .jorgensen import DegenerateOrbitError, conjugation_orbit, fk_sequence, jorgensen_test
from .qmatrix import QMatrix
from .spectral import spectral_report
from .spn1 import ADMISSION_TOL, identity_residual_table, is_member, sample_elements
from .tolerances import ENTRY_IDENTITY_FLOOR, admission


class _Parser(argparse.ArgumentParser):
    #: The subcommand parsers by name; set on the top-level parser by build_parser.
    commands = {}

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _factor(text):
    """The ``--tol`` factor: a finite number, at least 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text!r}")
    return value


def _positive(text):
    """A count or size option: an integer, at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _write_output(text, path):
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        data = memoryview(text.encode("utf-8"))
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_CLOEXEC, 0o666)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)


def _write_table(args, header, rows, summary):
    """Write ``rows`` as CSV, or as the ``steps`` of a JSON document with ``summary``."""
    if args.format == "json":
        doc = dict(summary, steps=[dict(zip(header, row)) for row in rows])
        _write_output(jsonio.dumps(doc), args.out)
    else:
        _write_output(jsonio.csv_text(header, rows), args.out)
    return 0


def _load_element(path, tol):
    data = jsonio.load_file(path)
    try:
        return is_member(QMatrix.from_json_dict(data), tol=tol)
    except (ShapeMismatchError, MembershipError) as exc:
        raise ValueError(f"element in {path} refused: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"malformed element in {path}: {exc}") from exc


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
        "truncated_at": trace.truncated_at,
        "diverged_at": trace.diverged_at,
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
    # --tol is the admission rule's factor.  A check passes when every
    # element's error is within that element's own limit (the corner pairings,
    # too, round at u |h|^2); the values are the batch's absolute worsts.  The
    # sampler admits at the default factor, so a strict factor reports failure.
    elements = list(sample_elements(args.n, args.seed, args.count, args.word_length))
    stack = QMatrix.stack([e.m for e in elements])
    membership = np.array([e.residual for e in elements])
    identity = identity_residual_table(stack)
    slack = corner_slack_table(stack)
    lhs, rhs, vanishing = entry_identity_table(stack)
    degenerate = vanishing.any(axis=(-2, -1))
    relative = abs(lhs - rhs) / np.maximum(rhs, ENTRY_IDENTITY_FLOOR)
    relative[degenerate] = 0.0
    rows = {  # per check: the batch worst and the per-element errors
        "membership_max": (membership.max(initial=0.0), membership),
        "identity_residual_max": (identity.max(initial=0.0), identity.max(axis=-1)),
        "corner_slack_min": (slack.min(initial=np.inf), -slack.min(axis=-1)),
        "entry_identity_rel_max": (relative.max(initial=0.0), relative.max(axis=-1)),
    }
    errors = np.stack([e for _, e in rows.values()])
    passed = admission(errors, stack.norm_max(), args.tol)[0].all(axis=-1)
    checks = {name: {"value": float(w), "pass": bool(p)} for (name, (w, _)), p in zip(rows.items(), passed)}
    ok = bool(passed.all())
    doc = {
        "n": args.n,
        "seed": args.seed,
        "count": len(elements),
        "word_length": args.word_length,
        "tolerance": args.tol,
        "identity_residuals": [float(v) for v in identity.max(axis=0, initial=0.0)],
        "corner_slacks": [float(v) for v in slack.min(axis=0, initial=np.inf)],
        "degenerate_entry_identities": int(degenerate.sum()),
        "checks": checks,
        "pass": ok,
    }
    _write_output(jsonio.dumps(doc), args.out)
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    # The help shows the docstring's first two paragraphs: the commands and exit codes.
    parser = _Parser(prog="qhspace", description="\n\n".join(__doc__.split("\n\n")[:2]))
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, batch=False):
        p.add_argument("--tol", type=_factor, default=ADMISSION_TOL,
                       help="factor c of the admission rule, which admits and verifies a "
                            "residual up to c max(1, s)^2, s the largest entry modulus")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if batch:
            p.add_argument("--n", type=_positive, default=2, help="quaternionic dimension")
            p.add_argument("--seed", type=int, default=0, help="PCG64 seed")
            p.add_argument("--count", type=_positive, default=10, help="number of elements")
            p.add_argument("--word-length", type=_positive, default=8,
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
    p.add_argument("--steps", type=_positive, default=16)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(p)

    p = sub.add_parser("fk", help="pullback-sequence report for a pair")
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("--steps", type=_positive, default=8)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(p)

    p = sub.add_parser("verify", help="residual tables over a sampled batch")
    add_common(p, batch=True)

    parser.commands = sub.choices
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # Parsing leaves the parser unchanged, so one instance serves every call
    # in a process; it is built on the first call, not at import.
    return build_parser()


def _parse_args(argv):
    """The Namespace the top-level parser gives for ``argv``, in one parser pass.

    Raises SystemExit, after printing usage, help or an error, as that
    parser does.
    """
    parser = _shared_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(gettext("unrecognized arguments: %s") % " ".join(extras))
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # The parser outlives any rebinding of the handlers, so look them up by name.
    handler = globals()[f"_cmd_{args.command}"]
    try:
        # numpy reports overflow and invalid values as RuntimeWarnings; raised,
        # they end the call with one error line instead of reaching stderr.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return handler(args)
    except (ValueError, ArithmeticError, RuntimeWarning, OSError) as exc:
        print(f"qhspace: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
