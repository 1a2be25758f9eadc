"""The tolerance policy: every threshold lives in ``qhspace.tolerances``."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import qhspace
import qhspace.tolerances as tolerances

PACKAGE = Path(qhspace.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"


def _threshold_names():
    return [name for name, value in vars(tolerances).items() if name.isupper() and isinstance(value, float)]


def _small_float_literals(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0.0 < node.value < 1e-3
    ]


def test_no_threshold_literal_outside_tolerances():
    found = {
        path.name: literals
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "tolerances.py" and (literals := _small_float_literals(path))
    }
    assert found == {}


def test_tolerances_imports_nothing_from_the_package():
    tree = ast.parse((PACKAGE / "tolerances.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert [name for name in imported if name.startswith(".") or name.split(".")[0] == "qhspace"] == []


@pytest.mark.parametrize(
    "module, name",
    [
        ("quaternion", "SCALAR_TOL"),
        ("qmatrix", "PAIRING_TOL"),
        ("spn1", "ADMISSION_TOL"),
        ("spn1", "CONSTRAINT_TOL"),
        ("geometry", "POSITION_TOL"),
        ("spectral", "UNIT_MODULUS_TOL"),
        ("spectral", "CLUSTER_TOL"),
        ("crossratio", "DEGENERACY_TOL"),
        ("jorgensen", "CORNER_ZERO_TOL"),
        ("jorgensen", "LOXODROMY_MARGIN"),
        ("jorgensen", "BOUND_SLACK"),
        ("jorgensen", "BOUND_FLOOR"),
    ],
)
def test_old_names_still_import_from_their_modules(module, name):
    assert getattr(importlib.import_module(f"qhspace.{module}"), name) is getattr(tolerances, name)


def test_readme_table_matches_the_module():
    rows = {}
    for match in re.finditer(r"^\| `(\w+)` \| `([^`]+)` \|", README.read_text(encoding="utf-8"), re.M):
        rows[match.group(1)] = match.group(2)
    for name in _threshold_names():
        assert float(rows[name]) == getattr(tolerances, name), name
    for name in ("compose_admission_tol", "frame_admission_tol", "orbit_admission_tol"):
        assert name in rows
