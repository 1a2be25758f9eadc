"""Benchmark of the qhspace command line.

Each workload runs in this process through ``qhspace.cli.main(argv)`` as a
closed loop with one client: a command starts when the previous one has
returned and its output has been checked.  Set-up (the import of qhspace
plus writing the workload's input files) is timed on its own; then rounds,
each one pass over the workload's commands, repeat for ``--seconds``, and
every call must reproduce the output it gave in the first round.

    python3 perfbench/run.py --workload pairs --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced rounds with ``--trace 1``.
A fuller report, with output digests, environment and counts, is written to
``perfbench/out/``.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
WORKLOAD_NAMES = ("batch", "pairs", "pairs-stress", "orbit")
DEFAULT_SEED = 1
#: Seed kept out of tuning; a performance claim must also hold on it.
HOLDOUT_SEED = 20090
SETUP_REPEATS = 11
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import qhspace.cli; print(time.perf_counter() - t)"
)
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "primary_per_s": "1/s",
    "primary_p50_ms": "ms",
    "secondary_per_s": "1/s",
    "secondary_p50_ms": "ms",
}


@dataclass(frozen=True)
class Call:
    role: str
    command: str
    seconds: float
    outcome: object


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _remove(path):
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


def _tree_digest(top) -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, top).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _environment():
    import platform
    from importlib import metadata

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "pinned_threads": PINNED_THREADS,
    }


def _import_seconds() -> float:
    """Import time of qhspace in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip())


def _reference_ms() -> float:
    """Best time of a fixed pure-Python loop: how fast the host runs right now."""
    best = float("inf")
    for _ in range(50):
        start = time.perf_counter()
        sum(i * i for i in range(20000))
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def _pin(cpus):
    """Move this process to ``cpus``, where the host lets it."""
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, cpus)


def _set_up(workload, seed, work):
    """Time SETUP_REPEATS set-ups; the inputs must be identical every time."""
    import_s, generate_s, fingerprints = [], [], []
    for i in range(SETUP_REPEATS):
        import_s.append(_import_seconds())
        target = os.path.join(work, f"setup{i}")
        os.makedirs(target)
        start = time.perf_counter()
        ops = workload.make_ops(seed, target)
        generate_s.append(time.perf_counter() - start)
        fingerprints.append(_tree_digest(target))
    totals = [a + b for a, b in zip(import_s, generate_s)]
    problems = [] if len(set(fingerprints)) == 1 else ["set-up wrote different inputs on repeats"]
    return ops, {"setup_s": statistics.median(totals), "import_s": import_s,
                 "generate_s": generate_s, "input_digest": fingerprints[0]}, problems


def _run_round(cli, ops, tracer=None):
    from workloads import Outcome

    calls = []
    for op in ops:
        _remove(op.output)
        captured = io.StringIO()
        if tracer is not None:
            tracer.invocation += 1
            linalg_before = tracer.linalg_calls()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            start = time.perf_counter()
            try:
                code = cli.main(op.argv)
            except Exception as exc:
                # The installed entry point would exit 1 with a traceback.
                print(f"uncaught {exc!r}", file=captured)
                code = 1
            seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.counts[f"cli.{op.command}.invocations"] += 1
            tracer.counts[f"cli.{op.command}.linalg"] += tracer.linalg_calls() - linalg_before
        if code != 0:
            message = captured.getvalue().strip().splitlines()
            outcome = Outcome(False, 0, _sha(captured.getvalue().encode()),
                              f"exit {code}: {message[-1] if message else ''}")
        else:
            try:
                outcome = op.check()
            except (OSError, ValueError, KeyError, TypeError) as exc:
                outcome = Outcome(False, 0, "", f"unreadable output: {exc!r}")
        calls.append(Call(op.role, op.command, seconds, outcome))
    return calls


def _end_to_end(rounds, reference, ops, setup_s):
    """End-to-end metrics of the untraced rounds.

    Every round repeats the same calls; a call's time is its best over the
    rounds, which keeps other tenants of a shared host out of the figures.
    A rate is the useful units of a command's calls (0 for a failed call)
    over the sum of their times, failed calls included.  Percentiles are
    taken over the calls of a command.  ``rounds`` holds the call times of
    each untraced round, ``reference`` the calls of the first round.
    """
    best = [min(seconds[i] for seconds in rounds) for i in range(len(ops))]
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {}
    for role in ("primary", "secondary"):
        mine = [i for i, op in enumerate(ops) if op.role == role]
        seconds = [best[i] for i in mine]
        units = sum(reference[i].outcome.units for i in mine)
        metrics[f"{role}_per_s"] = units / sum(seconds)
        metrics[f"{role}_p50_ms"] = 1e3 * statistics.median(seconds)
        samples[role] = {"calls": len(mine), "units": units, "best_of_rounds": len(rounds),
                         "p90_ms": 1e3 * statistics.quantiles(seconds, n=10, method="inclusive")[8]}
    return {name: metrics[name] for name in E2E_UNITS}, samples


def _per_layer(tracers, untraced_s, traced_s):
    """Per-layer metrics as means over traced rounds (one pass over the inputs each)."""
    from spans import COUNTED_METHODS, LINALG, SPAN_NAMES

    rounds = len(tracers)

    def total(attr, key):
        return sum(getattr(t, attr)[key] for t in tracers)

    def ratio(num, den):
        return num / den if den else 0.0

    layer = {}
    for name, _, _ in COUNTED_METHODS:
        layer[f"{name}.calls"] = (total("counts", name) / rounds, "count")
    for fn in LINALG:
        layer[f"linalg.{fn}.calls"] = (total("counts", f"linalg.{fn}") / rounds, "count")
    for command in ("test", "classify", "fk"):
        per_call = ratio(total("counts", f"cli.{command}.linalg"),
                         total("counts", f"cli.{command}.invocations"))
        layer[f"linalg.calls_per_{command}"] = (per_call, "count")
    for name in SPAN_NAMES:
        layer[f"{name}.calls"] = (total("calls", name) / rounds, "count")
        layer[f"{name}.self_ms"] = (1e3 * total("self_s", name) / rounds, "ms")
        layer[f"{name}.failed"] = (total("failed", name) / rounds, "count")
    layer["spn1.sampler_redraw_ratio"] = (
        ratio(total("counts", "spn1.sampler_redraws"), total("calls", "spn1.sample_elements")), "ratio")
    layer["spectral.conjugator_ok_ratio"] = (
        ratio(total("counts", "spectral.conjugator_ok"),
              total("counts", "spectral.conjugator_attempts")), "ratio")
    recorded = total("counts", "jorgensen.orbit_rows_recorded")
    layer["jorgensen.orbit_step_ms"] = (
        ratio(1e3 * total("self_s", "jorgensen.conjugation_orbit"), recorded), "ms")
    layer["jorgensen.orbit_completion_ratio"] = (
        ratio(recorded, total("counts", "jorgensen.orbit_rows_requested")), "ratio")
    layer["jsonio.dumps.bytes"] = (total("counts", "jsonio.dumps.bytes") / rounds, "bytes")
    layer["numpy.runtime_warnings"] = (total("counts", "numpy.runtime_warnings") / rounds, "count")
    layer["trace.overhead_share"] = (
        statistics.median(traced_s) / statistics.median(untraced_s) - 1.0, "ratio")
    return layer


def _tracer_signature(tracer):
    """Everything a traced round counts; it must repeat exactly between rounds."""
    return (dict(tracer.calls), dict(tracer.failed), dict(tracer.counts))


def _print_layers(name, layer):
    rows = [(key[: -len(".self_ms")], value) for key, (value, _) in layer.items()
            if key.endswith(".self_ms")]
    total = sum(value for _, value in rows)
    print(f"{name}: self time per round by layer (total {total:.1f} ms)")
    for key, value in sorted(rows, key=lambda row: -row[1]):
        if value > 0:
            calls = layer[f"{key}.calls"][0]
            print(f"  {key:32s} {value:10.2f} ms  {calls:10.0f} calls  {100 * value / total:5.1f}%")
    for key, (value, unit) in layer.items():
        if not key.endswith((".self_ms", ".calls", ".failed")) or key.startswith(("linalg.", "quaternion.")):
            print(f"  {key:32s} {value:14.6g} {unit}")


def run_workload(args) -> int:
    import numpy as np

    import qhspace.cli as cli

    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "qhspace"):
        print(f"qhspace was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer, traced
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    warnings = Counter()
    np.seterrcall(lambda kind, flag: warnings.update((kind,)))
    np.seterr(divide="call", over="call", invalid="call")
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    try:
        ops, setup, problems = _set_up(workload, args.seed, work)
        # Only the first round's outcomes are kept; later rounds are checked
        # against them as they finish and keep only their call times, so
        # that peak_rss_mb does not grow with the number of rounds.
        reference, rounds, tracers, warned = None, [], [], []
        failed = 0
        reference_ms = [_reference_ms()]
        cpus = sorted(os.sched_getaffinity(0))
        start = time.perf_counter()
        while True:
            done = time.perf_counter() - start >= args.seconds
            # A traced run needs one untraced and one traced round at least.
            if done and len(rounds) >= (2 if args.trace else 1):
                break
            # With --trace 1, untraced and traced rounds alternate, so their
            # difference is the tracing overhead.
            tracing = bool(args.trace) and len(rounds) % 2 == 1
            # Rounds (pairs of rounds when tracing) rotate over the usable
            # CPUs, so a vCPU that another tenant contends for cannot slow
            # every sample of a call.
            _pin({cpus[len(rounds) // (1 + args.trace) % len(cpus)]})
            before = sum(warnings.values())
            if tracing:
                tracer = Tracer()
                if not tracers:
                    tracer.spans = []
                with traced(tracer):
                    calls = _run_round(cli, ops, tracer)
                tracer.counts["numpy.runtime_warnings"] += sum(warnings.values()) - before
                tracers.append(tracer)
            else:
                calls = _run_round(cli, ops)
            warned.append(sum(warnings.values()) - before)
            if reference is None:
                reference = calls
            for op_index, (call, first) in enumerate(zip(calls, reference)):
                if (call.outcome.ok, call.outcome.digest) != (first.outcome.ok, first.outcome.digest):
                    problems.append(f"round {len(rounds) + 1}: {ops[op_index].argv[0]} call "
                                    f"{op_index} did not repeat its first output")
            failed += sum(not call.outcome.ok for call in calls)
            rounds.append((tracing, [call.seconds for call in calls]))
        _pin(cpus)
        reference_ms.append(_reference_ms())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if any(_tracer_signature(t) != _tracer_signature(tracers[0]) for t in tracers):
        problems.append("traced rounds counted different calls or linalg work")
    if len(set(warned)) > 1:
        problems.append(f"rounds raised different numbers of numpy warnings: {sorted(set(warned))}")

    attempted = len(rounds) * len(ops)
    untraced = [seconds for tracing, seconds in rounds if not tracing]
    e2e, samples = _end_to_end(untraced, reference, ops, setup["setup_s"])
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "setup": setup,
        "rounds": len(rounds),
        "traced_rounds": len(tracers),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "samples": samples,
        "end_to_end": e2e,
        "aliases": workload.aliases,
        "digests": {
            command: _sha("".join(c.outcome.digest for c in reference if c.command == command).encode())
            for command in (workload.primary, workload.secondary)
        },
        "failures": [
            {"call": i, "argv": ops[i].argv[:1] + [os.path.basename(a) for a in ops[i].argv[1:]],
             "reason": c.outcome.reason}
            for i, c in enumerate(reference) if not c.outcome.ok
        ],
        "runtime_warnings_per_round": warned[0],
        "host_reference_ms": {"before": reference_ms[0], "after": reference_ms[1]},
        "problems": problems,
    }
    stem = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    print(f"{workload.name}: seed {args.seed}, {len(rounds)} rounds of {len(ops)} calls, "
          f"failed {failed} of {attempted} (failed_share {report['failed_share']:.4f})")
    if args.trace:
        busy = {t: [sum(seconds) for tracing, seconds in rounds if tracing is t]
                for t in (False, True)}
        layer = _per_layer(tracers, busy[False], busy[True])
        report["per_layer"] = {key: value for key, (value, _) in layer.items()}
        with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracers[0].spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "name", "start", "end", "invocation", "failed"), span))) + "\n")
        _print_layers(workload.name, layer)
        print(f"  tracing overhead: {1e3 * (statistics.median(busy[True]) - statistics.median(busy[False])):.1f} ms "
              f"per round over {1e3 * statistics.median(busy[False]):.1f} ms untraced "
              f"({len(busy[True])} traced, {len(busy[False])} untraced rounds)")
        metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in layer.items()}
    else:
        for key, value in e2e.items():
            alias = workload.aliases.get(key, "")
            print(f"  {key:18s} {value:14.6g} {E2E_UNITS[key]:6s} {alias}")
        for role, counts in samples.items():
            print(f"  {role}: {counts['calls']} calls of {getattr(workload, role)} per round, "
                  f"{counts['units']} {workload.units[role == 'secondary']}, "
                  f"best of {counts['best_of_rounds']} rounds")
        metrics = {key: {"value": value, "unit": E2E_UNITS[key]} for key, value in e2e.items()}
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    for problem in problems:
        print(f"integrity: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one row per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            print(f"{name}: exited {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    # The per-layer metrics are too many for one row; their tables are above.
    keys = ["trace.overhead_share"] if args.trace else list(E2E_UNITS)
    print()
    print(f"{'workload':12s} {'failed/attempted':>17s} " + " ".join(f"{k:>20s}" for k in keys))
    print(f"{'':12s} {'':>17s} " + " ".join(
        f"{results['batch']['metrics'][k]['unit']:>20s}" for k in keys))
    for name, result in results.items():
        cells = " ".join(f"{result['metrics'][k]['value']:20.6g}" for k in keys)
        print(f"{name:12s} {result['failed']:>8d}/{result['attempted']:<8d} {cells}")
    combined = os.path.join(OUT, f"BENCH_seed{args.seed}_trace{args.trace}.json")
    with open(combined, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
    print(f"wrote {os.path.relpath(combined, ROOT)}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; hold-out {HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=55.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from traced rounds")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "qhspace", "cli.py")):
        print(f"no qhspace sources under {SRC}", file=sys.stderr)
        return 2
    # Pin BLAS to one thread before numpy is first imported.
    os.environ.update(PINNED_THREADS)
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
