"""Deterministic JSON and CSV emission.

Artifacts written by the command line are byte-stable for a fixed seed and
configuration: every float is rendered with 17 significant digits, enough to
round-trip IEEE doubles exactly.

:func:`dumps` writes a document in one recursive pass and produces the bytes
of ``json.dumps(obj, indent=indent, sort_keys=True)`` except that floats go
through :func:`format_float`: strings are ASCII-escaped as ``json`` escapes
them, dict keys are sorted, and ``NaN``/``Infinity`` use the conventional
json extension tokens.
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


def dumps(obj, indent=2) -> str:
    """JSON text of ``obj`` with fixed-width float formatting.

    ``indent`` is a number of spaces or a string, as for ``json.dumps``;
    ``None`` gives the one-line form with ``", "`` between items.
    """
    if indent is None:
        sep, newline, indent = ", ", "", ""
    else:
        sep, newline = ",", "\n"
        if not isinstance(indent, str):
            indent = " " * indent
    out = []
    _emit(obj, out, newline, indent, sep)
    return "".join(out)


def _key(key) -> str:
    """A dict key as ``json`` writes it: non-string keys keep their json form."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _emit(obj, out, newline, indent, sep):
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
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + indent
        out.append("[")
        for k, value in enumerate(obj):
            out.append(sep + inner if k else inner)
            _emit(value, out, inner, indent, sep)
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + indent
        out.append("{")
        for k, (key, value) in enumerate(sorted(obj.items())):
            out.append(sep + inner if k else inner)
            out.append(encode_basestring_ascii(_key(key)) + ": ")
            _emit(value, out, inner, indent, sep)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def load_file(path: str):
    """Parse a JSON file, naming the path and offset on failure."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path} at offset {exc.pos}: {exc.msg}") from exc


def csv_text(header, rows) -> str:
    """Render a CSV document with the same float formatting as JSON output."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append(str(int(cell)))
            elif isinstance(cell, int):
                cells.append(str(cell))
            elif isinstance(cell, float):
                cells.append(format_float(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
