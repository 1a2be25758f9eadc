import json
import math
import os
import pathlib
import shutil
import stat
import subprocess
import sys

import numpy as np
import pytest

from helpers import (
    count_linalg,
    reference_dumps,
    reference_element_dict,
    reference_factor_params,
    reference_parse_args,
    reference_sample_elements,
    reference_verify,
    small_perturbation,
)

import qhspace.cli as cli
import qhspace.jsonio as jsonio
import qhspace.spectral as spectral
from qhspace.cli import build_parser, main
from qhspace.errors import MembershipError, NumericError
from qhspace.qmatrix import QMatrix
from qhspace.quaternion import Quaternion
from qhspace.spectral import loxodromic_data
from qhspace.spn1 import ADMISSION_TOL, StabilizerKind, make_loxodromic, random_element, retract


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


def test_divergent_orbit_stops_with_a_typed_result(tmp_path, capsys):
    # mg = 1.5: the orbit grows like |h_k|^2 per step, and h_5 is too large
    # for membership to be decided.
    g = make_loxodromic([Quaternion(1)], Quaternion(2))
    h = random_element(n=2, seed=21, word_length=6)
    paths = []
    for name, element in (("g.json", g), ("h.json", h)):
        path = tmp_path / name
        path.write_text(jsonio.dumps(element.to_json_dict()))
        paths.append(str(path))
    code, out, err = run(["iterate", *paths], capsys)
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(5))
    assert all(math.isfinite(float(cell)) for row in rows for cell in row[1:3] + row[4:12])
    code, out, _ = run(["iterate", *paths, "--format", "json"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["diverged_at"] == 5 and doc["truncated_at"] is None
    assert len(doc["steps"]) == 5
    code, out, err = run(["fk", *paths], capsys)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "diverged" in lines[0]


#: Ways the diagonal frame's conjugator can fail: the patched name in
#: ``spectral``, its value, the typed error and what its line must say.
FRAME_FAILURES = {
    "span": ("FORM_POSITIVITY_TOL", 1e3, NumericError, r"could not span the unit eigenvalue class at \(1"),
    "admission": ("retract", lambda m: retract(m).scale_right(1.0 + 1e-3), MembershipError,
                  r"does not preserve the Hermitian form: residual \d\.\d{3}e-0\d exceeds limit"),
}


@pytest.mark.parametrize("failure", FRAME_FAILURES)
def test_a_frame_that_cannot_be_built_is_one_typed_error_line(tmp_path, capsys, monkeypatch, failure):
    # The README pair, with the frame's unit column refused by the
    # form-positivity cut, or its conjugator put off the group by 1e-3.
    name, value, error, message = FRAME_FAILURES[failure]
    g = make_loxodromic([Quaternion(1)], Quaternion(1.05))
    paths = []
    for file, element in (("g.json", g), ("h.json", random_element(n=2, seed=7, word_length=8))):
        paths.append(str(tmp_path / file))
        (tmp_path / file).write_text(jsonio.dumps(element.to_json_dict()))
    monkeypatch.setattr(spectral, name, value)
    with pytest.raises(error, match=message) as raised:
        loxodromic_data(g)
    for command in ("iterate", "fk"):
        code, out, err = run([command, *paths], capsys)
        assert (code, out, err) == (1, "", f"qhspace: error: {raised.value}\n")
    # The test reads the frame's corners without building it.
    assert run(["test", *paths], capsys)[0] == 0


def test_verify_takes_no_format(capsys):
    # verify writes JSON only, so it has no --format to choose it.
    code, out, err = run(["verify", "--format", "json"], capsys)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == "qhspace: error: unrecognized arguments: --format json"


def test_verify_passes(capsys):
    code, out, _ = run(
        ["verify", "--n", "2", "--seed", "5", "--count", "25", "--word-length", "8"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["checks"]["membership_max"]["pass"] is True


@pytest.mark.parametrize("count", [1, 3, 10])
def test_verify_matches_per_element_reference(count, capsys):
    for n, seed, word_length, tol in ((1, 0, 16, ADMISSION_TOL), (2, 3, 8, 1e-13), (3, 7, 16, 1e-18), (5, 1, 8, ADMISSION_TOL)):
        argv = ["verify", "--n", str(n), "--seed", str(seed), "--count", str(count),
                "--word-length", str(word_length), "--tol", repr(tol)]
        code, out, _ = run(argv, capsys)
        ref = reference_verify(n, seed, count, word_length, tol)
        assert out == jsonio.dumps(ref) + "\n"
        assert code == (0 if ref["pass"] else 2)


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


@pytest.mark.parametrize("tol", [ADMISSION_TOL, 1e-6])
@pytest.mark.parametrize("word_length", [40, 64])
def test_verify_passes_on_long_words(word_length, tol, capsys):
    # Their worst residuals exceed 1e-9, the absolute cut that failed them,
    # but each element is within its own limit.  A looser factor refuses no
    # element the default admits: whether membership is decided depends on
    # the scale alone.
    argv = ["verify", "--n", "2", "--count", "100", "--word-length", str(word_length), "--tol", str(tol)]
    code, out, _ = run(argv, capsys)
    doc = json.loads(out)
    assert code == 0 and doc["pass"] is True
    assert doc["checks"]["membership_max"]["value"] > ADMISSION_TOL
    assert out == jsonio.dumps(reference_verify(2, 0, 100, word_length, tol)) + "\n"


def test_a_looser_factor_admits_what_the_default_admits(tmp_path, capsys):
    # A length-64 word of scale about 560: --tol 1e-3 puts its limit above 1,
    # and whether membership is decided depends on the scale alone.
    out_dir = str(tmp_path / "elements")
    argv = ["sample", "--n", "2", "--count", "1", "--word-length", "64", "--out", out_dir]
    assert run(argv, capsys)[0] == 0
    path = os.path.join(out_dir, "element_0000.json")
    with open(path) as fh:
        assert QMatrix.from_json_dict(json.load(fh)).norm_max() > 1e-3 ** -0.5
    default = run(["classify", path], capsys)
    assert default[0] == 0
    assert run(["classify", path, "--tol", "1e-3"], capsys) == default


def test_sample_refuses_undecided_scales(capsys):
    code, out, err = run(["sample", "--n", "3", "--count", "100", "--word-length", "96"], capsys)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("qhspace: error: sampler admitted 1 of 100 elements")
    assert lines[0].endswith("is too large for membership to be decided")


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


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", [["classify", "h.json"], ["verify", "--count", "2"], ["sample", "--count", "1"]])
def test_tolerance_must_be_finite_and_not_negative(command, tol, capsys):
    # Each used to misbehave in its own way: nan refused every element,
    # read as a verification failure, and inf admitted everything.
    code, out, err = run([*command, "--tol", tol], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("usage: qhspace")
    assert err.splitlines()[-1].endswith(f"error: argument --tol: must be finite and at least 0, got '{tol}'")


@pytest.mark.parametrize("steps", ["0", "-1"])
@pytest.mark.parametrize("command", ["iterate", "fk"])
def test_steps_must_be_positive(command, steps, tmp_path, monkeypatch, capsys):
    # The count is refused before the diagonal frame is built.
    g_path, h_path = write_pair(str(tmp_path))
    calls = count_linalg(monkeypatch)
    code, out, err = run([command, g_path, h_path, "--steps", steps], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("usage: qhspace")
    assert err.splitlines()[-1].endswith(f"error: argument --steps: must be a positive integer, got '{steps}'")
    assert not calls


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("option", ["--n", "--count", "--word-length"])
@pytest.mark.parametrize("command", ["sample", "verify"])
def test_batch_counts_must_be_positive(command, option, value, monkeypatch, capsys):
    # Each used to pass the parser and fail in the sampler as a runtime error.
    sampled = []
    monkeypatch.setattr(cli, "sample_elements", lambda *args, **kwargs: sampled.append(args) or iter(()))
    code, out, err = run([command, option, value], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("usage: qhspace")
    assert err.splitlines()[-1].endswith(f"error: argument {option}: must be a positive integer, got '{value}'")
    assert not sampled


def test_refused_elements_name_their_file(tmp_path, capsys):
    # Both used to print only the reason, so a pair's error did not say
    # whether g or h was at fault.
    g_path, h_path = write_pair(str(tmp_path))
    doc = json.loads(pathlib.Path(h_path).read_text())
    doc["entries"][0][0] += 0.1
    off_group = tmp_path / "off_group.json"
    off_group.write_text(json.dumps(doc))
    not_square = tmp_path / "not_square.json"
    not_square.write_text(json.dumps({"rows": 2, "cols": 3, "entries": [[1, 0, 0, 0]] * 6}))
    for path, reason in ((off_group, "matrix does not preserve the Hermitian form"),
                         (not_square, "group elements must be square")):
        for argv in (["test", g_path, str(path)], ["classify", str(path)]):
            code, out, err = run(argv, capsys)
            assert (code, out) == (1, "")
            assert err.startswith(f"qhspace: error: element in {path} refused: {reason}")
            assert err.count("\n") == 1


def test_zero_tolerance_parses(capsys):
    assert build_parser().parse_args(["verify", "--tol", "0"]).tol == 0.0
    code, out, _ = run(["verify", "--n", "2", "--count", "2", "--tol", "0"], capsys)
    assert code in (0, 2) and json.loads(out)["tolerance"] == 0.0


def test_malformed_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["classify", str(bad)], capsys)
    assert code == 1
    assert "offset" in err and "bad.json" in err
    documents = {
        '{"rows": 3}': "'cols'",
        "[1, 2]": "JSON object",
        '{"rows": 2, "cols": 2, "entries": [[1,0,0,0]]}': "'entries'",
        '{"rows": -1, "cols": 2, "entries": [[1,0,0,0],[0,0,0,0],[0,0,0,0],[1,0,0,0]]}': "'rows'",
        '{"rows": "2", "cols": 2, "entries": []}': "'rows'",
    }
    for text, field in documents.items():
        bad.write_text(text)
        code, out, err = run(["classify", str(bad)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("qhspace: error: ") and err.count("\n") == 1
        assert "bad.json" in err and field in err
    # A file that is not UTF-8 text used to give the decoder's message alone.
    bad.write_bytes(b"\xff\xfe\x00\x01")
    code, out, err = run(["classify", str(bad)], capsys)
    assert (code, out) == (1, "")
    assert err == f"qhspace: error: malformed JSON in {bad} at offset 0: not UTF-8 text (invalid start byte)\n"


def test_non_number_entries_are_one_error_line(tmp_path, capsys):
    # Each used to pass: numpy read "0.5" and true as numbers, and boolean
    # rows and cols were reported as an 'entries' mismatch.
    good = json.loads(jsonio.dumps(make_loxodromic([Quaternion(1)], Quaternion(1.05)).to_json_dict()))
    bad = tmp_path / "bad.json"
    variants = []
    for value in ("0.5", True, None, [0.5]):
        doc = json.loads(json.dumps(good))
        doc["entries"][1][0] = value
        variants.append((doc, "'entries'"))
    for key in ("rows", "cols"):
        variants.append((dict(good, **{key: True}), f"'{key}'"))
    for doc, field in variants:
        bad.write_text(json.dumps(doc))
        code, out, err = run(["classify", str(bad)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("qhspace: error: ") and err.count("\n") == 1
        assert "bad.json" in err and field in err


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_are_malformed(value, tmp_path, capsys):
    # An infinity used to end in numpy's "invalid value encountered in
    # matmul", naming no file, and a NaN was refused as a matrix scale too
    # large for membership to be decided.
    g_path, h_path = write_pair(str(tmp_path))
    doc = json.loads(pathlib.Path(h_path).read_text())
    doc["entries"][1][2] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for argv in (["classify", str(bad)], ["test", g_path, str(bad)], ["iterate", str(bad), g_path]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"qhspace: error: malformed element in {bad}: field 'entries'")
        assert err.count("\n") == 1


def test_non_loxodromic_test_input(tmp_path, capsys):
    g_path, h_path = write_pair(str(tmp_path))
    code, _, err = run(["test", h_path, g_path], capsys)
    assert code == 1
    assert "loxodromic" in err


def test_pairs_of_different_n_are_one_error_line(tmp_path, capsys):
    paths = []
    for n in (2, 3):
        g = make_loxodromic([Quaternion(1)] * (n - 1), Quaternion(1.05))
        paths.append(str(tmp_path / f"g{n}.json"))
        with open(paths[-1], "w") as fh:
            fh.write(jsonio.dumps(g.to_json_dict()))
    for command in ("test", "iterate", "fk"):
        for pair in (paths, paths[::-1]):
            code, out, err = run([command, *pair], capsys)
            assert (code, out) == (1, "")
            assert len(err.splitlines()) == 1
            assert err.startswith("qhspace: error:") and "different spaces" in err


def test_fixed_points_pairing_at_the_cut_is_one_classification_error(tmp_path, monkeypatch, capsys):
    # Every relative pairing is at most 1, so with the cut at 1 no element is
    # loxodromic: classify sorts g by its eigenspaces, and test and iterate
    # refuse it with the one decision's error.
    monkeypatch.setattr(spectral, "LOXODROMY_MARGIN", 1.0)
    g_path, h_path = write_pair(str(tmp_path))
    code, out, _ = run(["classify", g_path], capsys)
    assert code == 0 and json.loads(out)["kind"] == "Parabolic"
    errors = set()
    for argv in (["test", g_path, h_path], ["iterate", g_path, h_path]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        errors.add(err)
    assert len(errors) == 1
    assert errors.pop().startswith(
        "qhspace: error: element is not loxodromic: its candidate fixed points pair to 1.000e+00 "
        "relative to their norms, at or below the cut 1e+00"
    )


def test_float_formatting_round_trips():
    values = [0.1, 41.0 / 420.0, 1e-300, -2.5e17, 3.0]
    text = jsonio.dumps(values)
    assert json.loads(text) == values


def test_parser_built_once_and_not_at_import(tmp_path, monkeypatch, capsys):
    script = "import qhspace.cli as c; print(c._shared_parser.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.stdout.strip() == "0"

    built = []

    def counting_build():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._shared_parser.cache_clear()
    g_path, h_path = write_pair(str(tmp_path))
    for argv in (["test", g_path, h_path], ["classify", h_path], ["test", g_path, h_path]):
        assert run(argv, capsys)[0] == 0
    assert len(built) == 1


def test_parser_reuse_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys):
    seen = []

    def record(args):
        seen.append(args)
        return 0

    monkeypatch.setattr(cli, "_cmd_classify", record)
    out = str(tmp_path / "report.json")
    assert main(["classify", "e.json", "--tol", "1e-3", "--out", out]) == 0
    assert main(["classify", "e.json"]) == 0
    assert (seen[0].tol, seen[0].out) == (1e-3, out)
    assert (seen[1].tol, seen[1].out) == (ADMISSION_TOL, None)
    assert seen[0] is not seen[1]


def test_usage_error_then_valid_call(tmp_path, capsys):
    g_path, h_path = write_pair(str(tmp_path))
    code, first, _ = run(["test", g_path, h_path], capsys)
    assert code == 0
    code, _, err = run(["test", g_path, "--steps", "4"], capsys)
    assert code == 1
    assert "error:" in err
    code, again, err = run(["test", g_path, h_path], capsys)
    assert (code, again, err) == (0, first, "")


@pytest.mark.parametrize("argv", [["--help"], ["test", "--help"], ["verify", "--help"]])
def test_help_matches_fresh_parser(argv, capsys):
    main(["classify", "--tol", "oops", "e.json"])
    capsys.readouterr()
    code, shared_text, _ = run(argv, capsys)
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert code == 0
    assert shared_text == capsys.readouterr().out
    assert shared_text.startswith("usage: qhspace")


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_sample_bytes_match_reference_pipeline(n, tmp_path, capsys):
    # Words of one factor show the factor shapes of the stream directly.
    rng = np.random.default_rng(6)
    params = [reference_factor_params(rng, n) for _ in range(24)]
    both = [abs(p.lam.modulus() - 1.0) for p in params if p.kind is StabilizerKind.STAB_BOTH]
    assert {p.kind for p in params} == set(StabilizerKind)
    assert min(both) < 1e-12 and max(both) > 1e-3  # with and without the stretch
    for seed, count, word_length in ((6, 24, 1), (0, 3, 8), (2, 2, 16)):
        ref = list(reference_sample_elements(n, seed, count, word_length))
        argv = ["sample", "--n", str(n), "--seed", str(seed), "--count", str(count),
                "--word-length", str(word_length)]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out == reference_dumps([reference_element_dict(g) for g in ref]) + "\n"
        out_dir = tmp_path / f"n{n}-seed{seed}"
        code, _, _ = run(argv + ["--out", str(out_dir)], capsys)
        assert code == 0
        assert sorted(os.listdir(out_dir)) == [f"element_{k:04d}.json" for k in range(count)]
        for k, g in enumerate(ref):
            text = (out_dir / f"element_{k:04d}.json").read_text(encoding="utf-8")
            assert text == reference_dumps(reference_element_dict(g))


def test_floating_point_failure_is_one_error_line(tmp_path):
    # Diagonal entries of 1e200 overflow the membership check.  Run in a
    # fresh interpreter: pytest records warnings instead of printing them.
    path = tmp_path / "huge.json"
    path.write_text(jsonio.dumps(QMatrix.diag([Quaternion(1e200)] * 3).to_json_dict()))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-m", "qhspace.cli", "classify", str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert lines[0].startswith("qhspace: error:")
    assert "overflow" in lines[0]
    assert ".py" not in lines[0]


def dispatch_table(g_path, h_path, out_path):
    """argv by the exit code they give: every command, help and usage errors."""
    return {
        0: [
            ["sample", "--n", "1", "--count", "2", "--seed", "3", "--word-length", "4"],
            ["sample", "--count", "1", "--out", out_path],
            ["classify", g_path],
            ["classify", "--to", "1e-6", h_path, "--out", out_path],
            ["test", g_path, h_path],
            ["test", "--tol", "1e-9", "--", g_path, h_path],
            ["iterate", g_path, h_path, "--steps", "4", "--format", "json"],
            ["fk", g_path, h_path, "--steps", "2"],
            ["verify", "--cou", "2"],
            ["verify", "--n", "1", "--count", "2", "--word-length", "4", "--out", out_path],
        ],
        "help": [
            ["-h"],
            ["--help"],
            ["--he"],
            ["classify", "-h"],
            ["test", g_path, h_path, "--help"],
            ["--help", "classify"],
        ],
        1: [
            [],
            ["bogus"],
            ["bogus", g_path],
            ["--tol", "1", "classify", g_path],
            ["classify"],
            ["iterate", g_path],
            ["classify", g_path, "extra"],
            ["test", g_path, h_path, "--steps", "4", "more"],
            ["verify", "--tol", "nan"],
            ["sample", "--count", "two"],
            ["fk", g_path, h_path, "--format", "xml"],
        ],
    }


def run_routed(argv, parse, monkeypatch, capsys, out_path):
    """Exit code, stdout, stderr and the output artifact of ``main(argv)``
    with ``parse`` as its argument parser."""
    monkeypatch.setattr(cli, "_parse_args", parse)
    out = pathlib.Path(out_path)
    if out.is_dir():
        shutil.rmtree(out)
    out.unlink(missing_ok=True)
    result = run(argv, capsys)
    if out.is_dir():
        artifact = {path.name: path.read_bytes() for path in out.iterdir()}
    else:
        artifact = out.read_bytes() if out.exists() else None
    return (*result, artifact)


def test_dispatch_matches_the_top_level_route(tmp_path, monkeypatch, capsys):
    g_path, h_path = write_pair(str(tmp_path))
    out_path = str(tmp_path / "out")
    table = dispatch_table(g_path, h_path, out_path)
    parse = cli._parse_args
    for argv in table[0]:
        got, want = parse(argv), reference_parse_args(argv)
        assert (got, repr(got)) == (want, repr(want)), argv
    for code, argvs in table.items():
        for argv in argvs:
            want = run_routed(argv, reference_parse_args, monkeypatch, capsys, out_path)
            got = run_routed(argv, parse, monkeypatch, capsys, out_path)
            assert got == want, argv
            assert want[0] == (0 if code == "help" else code), argv
            assert want[1].startswith("usage: qhspace") == (code == "help"), argv
    monkeypatch.setattr(cli.sys, "argv", ["qhspace", "classify", g_path])
    assert parse(None) == reference_parse_args(None)


def test_write_output_writes_the_utf8_bytes(tmp_path, monkeypatch):
    path = str(tmp_path / "report.json")
    text = '{"kind": "Loxodromic", "note": "\u00f8 \u2014 \U0001d53b"}\n' * 400
    with open(path, "w") as fh:
        fh.write(text * 3)
    # Short writes: every byte still goes out, in order.
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:1000]))
    cli._write_output(text, path)
    with open(path, "rb") as fh:
        assert fh.read() == text.encode("utf-8")


def test_write_output_creates_files_with_the_mode_open_gives(tmp_path):
    old = os.umask(0o002)
    try:
        cli._write_output("{}", str(tmp_path / "raw.json"))
        with open(tmp_path / "text.json", "w") as fh:
            fh.write("{}")
    finally:
        os.umask(old)
    modes = {stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("raw.json", "text.json")}
    assert modes == {0o666 & ~0o002}


def test_write_output_to_a_missing_directory_is_one_error_line(tmp_path, capsys):
    g_path, _ = write_pair(str(tmp_path))
    path = str(tmp_path / "missing" / "report.json")
    code, out, err = run(["classify", g_path, "--out", path], capsys)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("qhspace: error: ")
    assert path in err
