import math
import os

import numpy as np
import pytest

from helpers import reference_dumps, small_perturbation

import qhspace.jsonio as jsonio
from qhspace.cli import main
from qhspace.quaternion import Quaternion
from qhspace.spn1 import make_loxodromic

EDGE_DOCUMENTS = [
    math.nan,
    math.inf,
    -math.inf,
    -0.0,
    0.0,
    5e-324,
    1e22,
    [math.nan, -math.inf, {"x": math.inf, "y": -0.0}],
    (1, 2.5, (3, ())),
    {"t": (0.1, (-0.0,)), "u": ((),)},
    [],
    {},
    (),
    [[], {}, [[]], {"e": {}}],
    [True, False, 1, 0, -7, 1.0, 0.0, 10**30],
    {"bool": True, "int": 1, "float": 1.0, "zero": 0, "false": False},
    None,
    [None, {"none": None}],
    "plain",
    "héllo ☃ \U0001d11e \"q\" \\ \n\t\x00",
    {"été": "中文", "b": "\x7f", "a": ["ü", {"☃": 1.5}]},
    {"b": 1, "a": 2, "B": 3, "_": 4, "10": 5, "9": 6},
    {"np": np.float64(0.1), "list": [np.float64(-0.0), np.float64("nan")]},
]


def test_dumps_matches_reference_on_edge_cases():
    for doc in EDGE_DOCUMENTS:
        assert jsonio.dumps(doc) == reference_dumps(doc), doc


def test_dumps_rejects_non_string_keys():
    for doc in ({1: 2.0, 3: 0.5}, {True: 1}, {None: 2}, {0.1: 1}, [{"a": {2: 1}}]):
        with pytest.raises(TypeError):
            jsonio.dumps(doc)


def test_dumps_rejects_what_the_reference_rejects():
    for doc in ({"x": object()}, [np.int64(3)], {(1, 2): 3}, {"s": {1, 2}}):
        with pytest.raises(TypeError):
            reference_dumps(doc)
        with pytest.raises(TypeError):
            jsonio.dumps(doc)


@pytest.fixture
def recorded(monkeypatch):
    """Every document the command line serializes, with the text it wrote."""
    calls = []
    emit = jsonio.dumps

    def recording(obj, *args, **kwargs):
        text = emit(obj, *args, **kwargs)
        calls.append((obj, text))
        return text

    monkeypatch.setattr(jsonio, "dumps", recording)
    return calls


def test_dumps_matches_reference_on_command_documents(tmp_path, capsys, recorded):
    g = make_loxodromic([Quaternion(1)], Quaternion(1.05))
    h = small_perturbation(2, np.random.default_rng(2), scale=0.25)
    paths = {}
    for name, element in (("g", g), ("h", h)):
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fh:
            fh.write(jsonio.dumps(element.to_json_dict()))
    out_dir = str(tmp_path / "elements")
    commands = [
        ["sample", "--n", "3", "--seed", "2", "--count", "3", "--word-length", "4"],
        ["sample", "--n", "1", "--seed", "4", "--count", "2", "--out", out_dir],
        ["classify", paths["g"]],
        ["classify", os.path.join(out_dir, "element_0000.json")],
        ["test", paths["g"], paths["h"]],
        ["iterate", paths["g"], paths["h"], "--steps", "6", "--format", "json"],
        ["fk", paths["g"], paths["h"], "--steps", "4", "--format", "json"],
        ["verify", "--n", "2", "--seed", "5", "--count", "4", "--word-length", "8"],
    ]
    for argv in commands:
        assert main(argv) in (0, 2), argv
    capsys.readouterr()
    assert len(recorded) == 2 + 1 + 2 + 2 + 4
    for obj, text in recorded:
        assert text == reference_dumps(obj)


def test_csv_text_cells():
    rows = [[0, 1.0, -0.0], [7, math.nan, math.inf], [10**20, -math.inf, 0.1]]
    text = jsonio.csv_text(["k", "a", "b"], rows)
    assert text == (
        "k,a,b\n"
        "0,1,-0\n"
        "7,NaN,Infinity\n"
        "100000000000000000000,-Infinity,0.10000000000000001\n"
    )
