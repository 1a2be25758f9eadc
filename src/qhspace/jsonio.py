"""Deterministic JSON and CSV emission.

Artifacts written by the command line are byte-stable for a fixed seed and
configuration: every float is rendered with 17 significant digits, enough to
round-trip IEEE doubles exactly.
"""

from __future__ import annotations

import json
import math
import re


def format_float(value) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return format(value, ".17g")


_MARK = "@float:"
_MARK_RE = re.compile('"' + re.escape(_MARK) + '([^"]*)"')


def _tag_floats(obj):
    if isinstance(obj, float):
        return _MARK + format_float(obj)
    if isinstance(obj, dict):
        return {key: _tag_floats(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_tag_floats(val) for val in obj]
    return obj


def dumps(obj, indent=2) -> str:
    """json.dumps with fixed-width float formatting.

    Floats are temporarily encoded as marked strings and unquoted afterwards,
    so the emitted document contains plain JSON numbers (NaN/Infinity use the
    conventional json extension tokens).
    """
    text = json.dumps(_tag_floats(obj), indent=indent, sort_keys=True)
    return _MARK_RE.sub(lambda m: m.group(1), text)


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
