"""Deterministic JSON and CSV emission.

Artifacts written by the command line are byte-stable for a fixed seed and
configuration: every float is rendered with 17 significant digits, enough to
round-trip IEEE doubles exactly.

:func:`dumps` writes a document in one recursive pass and produces the bytes
of ``json.dumps(obj, indent=2, sort_keys=True)`` except that floats go
through :func:`format_float`: strings are ASCII-escaped as ``json`` escapes
them, dict keys are sorted and must be strings, and ``NaN``/``Infinity`` use
the conventional json extension tokens.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii


def format_float(value) -> str:
    value = float(value)
    if math.isfinite(value):
        return format(value, ".17g")
    if math.isnan(value):
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def dumps(obj) -> str:
    """JSON text of ``obj``, indented by two spaces, with fixed-width floats."""
    out = []
    _emit(obj, out, "\n")
    return "".join(out)


def _emit(obj, out, newline):
    """Append the text of ``obj`` to ``out``; ``newline`` ends with its indent."""
    if isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple, dict)):
        keyed = isinstance(obj, dict)
        brackets = "{}" if keyed else "[]"
        if not obj:
            out.append(brackets)
            return
        inner = newline + "  "
        out.append(brackets[0])
        for k, item in enumerate(sorted(obj.items()) if keyed else obj):
            out.append("," + inner if k else inner)
            if keyed:
                key, item = item
                out.append(encode_basestring_ascii(key) + ": ")
            _emit(item, out, inner)
        out.append(newline + brackets[1])
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def load_file(path: str):
    """Parse a JSON file, naming the path and offset on failure."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"malformed JSON in {path} at offset {exc.start}: not UTF-8 text ({exc.reason})") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path} at offset {exc.pos}: {exc.msg}") from exc


def csv_text(header, rows) -> str:
    """Render a CSV document with the same float formatting as JSON output."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(c) if isinstance(c, float) else str(c) for c in row))
    return "\n".join(lines) + "\n"
