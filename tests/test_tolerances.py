"""The tolerance policy: every threshold lives in ``qhspace.tolerances``."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import qhspace
import qhspace.qmatrix as qmatrix
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


def _reads(node, names):
    return any(getattr(n, "id", getattr(n, "attr", None)) in names for n in ast.walk(node))


def _carriers(function, name):
    """``name``, the parameters of ``function`` that default to it and the
    locals assigned from any of them."""
    args = function.args
    positional = args.posonlyargs + args.args
    defaults = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    defaults += [(arg, d) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    carried = {name} | {arg.arg for arg, default in defaults if _reads(default, {name})}
    assigns = [node for node in ast.walk(function) if isinstance(node, ast.Assign)]
    while True:
        more = {
            target.id
            for node in assigns
            if _reads(node.value, carried)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        if more <= carried:
            return carried
        carried |= more


def _functions_comparing(name):
    """(file, enclosing function) of every comparison that reads ``name``,
    directly or through one of its carriers (:func:`_carriers`)."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            scope = node
            while scope in parents and not isinstance(scope, (ast.FunctionDef, ast.Lambda)):
                scope = parents[scope]
            if _reads(node, _carriers(scope, name) if isinstance(scope, ast.FunctionDef) else {name}):
                found.append((path.name, getattr(scope, "name", None)))
    return found


def test_degeneracy_tol_is_compared_in_one_function():
    assert _functions_comparing("DEGENERACY_TOL") == [("tolerances.py", "pairing_vanishes")]


def test_admission_tol_is_compared_in_one_function():
    assert set(_functions_comparing("ADMISSION_TOL")) == {("tolerances.py", "admission")}


def test_eigenpair_tol_is_compared_in_the_two_eigen_acceptance_checks():
    assert sorted(_functions_comparing("EIGENPAIR_TOL")) == [
        ("qmatrix.py", "_check_pairing"),
        ("qmatrix.py", "right_eigenpairs"),
    ]


def test_only_membership_sampling_and_point_comparison_take_a_tolerance():
    functions = [getattr(qhspace, name) for name in qhspace.__all__] + [qmatrix.eigenspace_basis]
    taking = {
        function.__name__
        for function in functions
        if inspect.isfunction(function) and any("tol" in name for name in inspect.signature(function).parameters)
    }
    assert taking == {"is_member", "sample_elements", "projectively_close"}


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
        ("spn1", "ADMISSION_TOL"),
        ("spn1", "CONSTRAINT_TOL"),
        ("geometry", "POSITION_TOL"),
        ("spectral", "UNIT_MODULUS_TOL"),
        ("spectral", "CLUSTER_TOL"),
        ("spectral", "LOXODROMY_MARGIN"),
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
    assert "admission" in rows
