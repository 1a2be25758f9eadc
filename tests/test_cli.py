import json
import os

import numpy as np
import pytest

from helpers import small_perturbation

import qhspace.cli as cli
import qhspace.jsonio as jsonio
from qhspace.cli import main
from qhspace.quaternion import Quaternion
from qhspace.spn1 import make_loxodromic


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_pair(tmp_path):
    g = make_loxodromic([Quaternion(1)], Quaternion(1.05))
    rng = np.random.default_rng(2)
    h = small_perturbation(2, rng, scale=0.25)
    g_path = os.path.join(tmp_path, "g.json")
    h_path = os.path.join(tmp_path, "h.json")
    with open(g_path, "w") as fh:
        fh.write(jsonio.dumps(g.to_json_dict()))
    with open(h_path, "w") as fh:
        fh.write(jsonio.dumps(h.to_json_dict()))
    return g_path, h_path


def test_sample_is_deterministic(tmp_path, capsys):
    args = ["sample", "--n", "2", "--seed", "7", "--count", "4"]
    code1, out1, _ = run(args, capsys)
    code2, out2, _ = run(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sample_writes_files_and_classify_round_trips(tmp_path, capsys):
    out_dir = str(tmp_path / "elements")
    code, _, _ = run(
        ["sample", "--n", "2", "--seed", "3", "--count", "2", "--out", out_dir], capsys
    )
    assert code == 0
    files = sorted(os.listdir(out_dir))
    assert files == ["element_0000.json", "element_0001.json"]
    code, out, _ = run(["classify", os.path.join(out_dir, files[0])], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["kind"] in {"Elliptic", "Parabolic", "Loxodromic", "Identity"}


def test_test_command(tmp_path, capsys):
    g_path, h_path = write_pair(str(tmp_path))
    code, out, _ = run(["test", g_path, h_path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "ConditionHolds_ElementaryOrNonDiscrete"
    assert doc["mg"] == pytest.approx(41.0 / 420.0)


def test_iterate_csv_decreases(tmp_path, capsys):
    g_path, h_path = write_pair(str(tmp_path))
    code, out, _ = run(["iterate", g_path, h_path, "--steps", "8"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0:4] == ["k", "pi", "sqrt_pi", "bound"]
    pis = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(pis) == 9
    assert all(b < a for a, b in zip(pis, pis[1:]))


def test_fk_json_report(tmp_path, capsys):
    g_path, h_path = write_pair(str(tmp_path))
    code, out, _ = run(["fk", g_path, h_path, "--steps", "4", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["distinct"] is True
    assert len(doc["steps"]) == 5


def test_verify_passes(capsys):
    code, out, _ = run(
        ["verify", "--n", "2", "--seed", "5", "--count", "25", "--word-length", "8"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["checks"]["membership_max"]["pass"] is True


def test_verify_fails_with_strict_tolerance(capsys):
    code, out, _ = run(
        [
            "verify",
            "--n", "2", "--seed", "5", "--count", "10",
            "--word-length", "8", "--tol", "1e-18",
        ],
        capsys,
    )
    assert code == 2
    assert json.loads(out)["pass"] is False


def test_sampler_exhaustion_exit_code(capsys):
    code, out, err = run(["sample", "--n", "2", "--count", "1", "--tol", "1e-20"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("qhspace: error: sampler admitted 0 of 1 elements")
    assert "residual" in err


@pytest.mark.parametrize(
    "exc", [OverflowError("math range error"), ZeroDivisionError("quaternion not invertible")]
)
def test_arithmetic_error_exit_code(monkeypatch, capsys, exc):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_classify", fail)
    code, _, err = run(["classify", "element.json"], capsys)
    assert code == 1
    assert err == f"qhspace: error: {exc}\n"


def test_usage_error_exit_code(capsys):
    assert main(["iterate", "--steps", "4"]) == 1


def test_malformed_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["classify", str(bad)], capsys)
    assert code == 1
    assert "offset" in err and "bad.json" in err


def test_non_loxodromic_test_input(tmp_path, capsys):
    g_path, h_path = write_pair(str(tmp_path))
    code, _, err = run(["test", h_path, g_path], capsys)
    assert code == 1
    assert "loxodromic" in err


def test_float_formatting_round_trips():
    values = [0.1, 41.0 / 420.0, 1e-300, -2.5e17, 3.0]
    text = jsonio.dumps(values)
    assert json.loads(text) == values
