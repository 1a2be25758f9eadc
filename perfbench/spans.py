"""Spans around qhspace's public functions, recorded from outside the package.

`traced(tracer)` rebinds every module-level name that refers to a traced
function (``spectral.classify`` and ``jorgensen.classify`` are one function
bound twice, and both are wrapped), wraps the traced methods of ``QMatrix``,
counts calls of two ``Quaternion`` methods and of ``numpy.linalg``, and
restores every original binding on exit.  Scalar quaternion operations are
counted, not spanned: a span per scalar product would swamp the trace.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import sys
import time
from collections import Counter

import numpy as np

from qhspace.jorgensen import DEFAULT_ORBIT_STEPS
from qhspace.qmatrix import QMatrix
from qhspace.quaternion import Quaternion

#: Public functions spanned per module; a layer is named after its module.
SPANNED = {
    "qhspace.qmatrix": ("right_eigenvalues", "right_eigenpairs", "eigenspace_basis"),
    "qhspace.spn1": (
        "sample_elements", "make_normal_form", "is_member", "group_inverse",
        "identity_residuals",
    ),
    "qhspace.geometry": ("apply", "projectively_close"),
    "qhspace.crossratio": ("cross_ratio", "entry_identity_check", "corner_bound_slacks"),
    "qhspace.spectral": ("classify", "loxodromic_data", "spectral_report"),
    "qhspace.jorgensen": ("jorgensen_test", "conjugation_orbit", "fk_sequence"),
    "qhspace.jsonio": ("dumps", "load_file", "csv_text"),
    "qhspace.cli": ("main",),
}
SPANNED_METHODS = (
    ("qmatrix.matmul", QMatrix, "__matmul__"),
    ("qmatrix.from_blocks", QMatrix, "from_blocks"),
)
COUNTED_METHODS = (
    ("quaternion.mul", Quaternion, "__mul__"),
    ("quaternion.inverse", Quaternion, "inverse"),
)
LINALG = ("eig", "eigvals", "svd", "eigvalsh", "inv")

#: Every spanned layer name, in report order.
SPAN_NAMES = tuple(
    [name for name, _, _ in SPANNED_METHODS]
    + [f"{mod.rsplit('.', 1)[1]}.{fn}" for mod, fns in SPANNED.items() for fn in fns]
)


class Tracer:
    """Per-layer calls, self time and failures, plus plain counters.

    A span's self time is its duration minus the time its child spans
    cover.  While ``spans`` is a list, every closed span is appended to it as
    ``(id, parent_id, name, start, end, invocation, failed)``.
    """

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.failed = Counter()
        self.counts = Counter()
        self.spans = None
        self.invocation = 0
        self._stack = []
        self._ids = itertools.count(1)

    def start(self, name):
        frame = [name, next(self._ids), time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def end(self, frame, failed, counted=True):
        """Close the innermost span and return the name of its parent."""
        end = time.perf_counter()
        self._stack.pop()
        name, span_id, start, child_s = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if counted:
            self.calls[name] += 1
            self.self_s[name] += duration - child_s
            if failed:
                self.failed[name] += 1
            if self.spans is not None:
                self.spans.append(
                    (span_id, parent[1] if parent else None, name, start, end,
                     self.invocation, failed)
                )
        return parent[0] if parent else None

    def linalg_calls(self):
        return sum(self.counts[f"linalg.{fn}"] for fn in LINALG)


def _after_is_member(tracer, args, kwargs, result, exc, parent):
    # sample_elements catches a MembershipError from is_member and redraws.
    if exc is not None and parent == "spn1.sample_elements":
        tracer.counts["spn1.sampler_redraws"] += 1


def _after_loxodromic_data(tracer, args, kwargs, result, exc, parent):
    if exc is None:
        tracer.counts["spectral.conjugator_attempts"] += 1
        tracer.counts["spectral.conjugator_ok"] += result.conjugator is not None


def _after_conjugation_orbit(tracer, args, kwargs, result, exc, parent):
    steps = kwargs.get("steps", args[2] if len(args) > 2 else DEFAULT_ORBIT_STEPS)
    tracer.counts["jorgensen.orbit_rows_requested"] += steps + 1
    if exc is None:
        tracer.counts["jorgensen.orbit_rows_recorded"] += len(result.steps)


def _after_dumps(tracer, args, kwargs, result, exc, parent):
    if exc is None:
        tracer.counts["jsonio.dumps.bytes"] += len(result.encode("utf-8"))


HOOKS = {
    "spn1.is_member": _after_is_member,
    "spectral.loxodromic_data": _after_loxodromic_data,
    "jorgensen.conjugation_orbit": _after_conjugation_orbit,
    "jsonio.dumps": _after_dumps,
}


def _span(tracer, name, fn):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.start(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            parent = tracer.end(frame, isinstance(exc, Exception))
            if hook is not None:
                hook(tracer, args, kwargs, None, exc, parent)
            raise
        parent = tracer.end(frame, False)
        if hook is not None:
            hook(tracer, args, kwargs, result, None, parent)
        return result

    return wrapper


def _span_generator(tracer, name, fn):
    """One span per yielded item; the consumer's work between items is outside."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            frame = tracer.start(name)
            try:
                item = next(inner)
            except StopIteration:
                tracer.end(frame, False, counted=False)
                return
            except BaseException as exc:
                tracer.end(frame, isinstance(exc, Exception))
                raise
            tracer.end(frame, False)
            yield item

    return wrapper


def _count(tracer, name, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def traced(tracer):
    """Install the spans and counters for the duration of the block."""
    restore = []
    modules = [m for k, m in sys.modules.items() if k == "qhspace" or k.startswith("qhspace.")]

    def rebind(original, replacement):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    restore.append((mod, attr, original))

    try:
        for mod_name, fns in SPANNED.items():
            mod = sys.modules[mod_name]
            for fn_name in fns:
                original = getattr(mod, fn_name)
                name = f"{mod_name.rsplit('.', 1)[1]}.{fn_name}"
                make = _span_generator if inspect.isgeneratorfunction(original) else _span
                rebind(original, make(tracer, name, original))
        for name, cls, attr in SPANNED_METHODS + COUNTED_METHODS:
            raw = cls.__dict__[attr]
            make = _span if (name, cls, attr) in SPANNED_METHODS else _count
            if isinstance(raw, classmethod):
                replacement = classmethod(make(tracer, name, raw.__func__))
            else:
                replacement = make(tracer, name, raw)
            setattr(cls, attr, replacement)
            restore.append((cls, attr, raw))
        for fn_name in LINALG:
            original = getattr(np.linalg, fn_name)
            setattr(np.linalg, fn_name, _count(tracer, f"linalg.{fn_name}", original))
            restore.append((np.linalg, fn_name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
