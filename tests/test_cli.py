"""Command-line interface: commands, formats, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rfsq.optimize

from rfsq.cli import main
from rfsq.io import read_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_hits_the_floor(capsys):
    code, out, _ = run(capsys, "report", "--n", "0.125", "--phi", "0.5pi",
                       "--delta", "0.25", "--omega", "0.6124")
    assert code == 0
    payload = json.loads(out)
    assert payload["s_pi4"] == pytest.approx(-0.25, abs=1e-6)
    assert payload["sigma"] == pytest.approx(1.0, abs=1e-6)
    assert payload["inputs"]["n_sq"] == 0.125


def test_steady_as_csv(capsys):
    code, out, _ = run(capsys, "steady", "--n", "0.125", "--omega", "0.43301",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# rfsq-csv v1"
    names = lines[1].split(",")
    values = dict(zip(names, (float(v) for v in lines[2].split(","))))
    assert values["sy"] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-5)
    assert values["sz"] == pytest.approx(-0.5, abs=1e-5)


def test_scan_to_file_with_metadata(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run(capsys, "scan", "--metric", "s_y",
                     "--axis1", "omega:0:1:11", "--n", "0.125", "--out",
                     str(out_path))
    assert code == 0
    columns = read_csv(out_path)
    assert list(columns) == ["omega", "s_y"]
    assert len(columns["omega"]) == 11
    meta = json.loads((tmp_path / "scan.csv.meta.json").read_text())
    assert meta["metric"] == "s_y"
    assert meta["axes"][0]["count"] == 11


def test_scan_angle_axis_to_stdout(capsys):
    code, out, _ = run(capsys, "scan", "--metric", "s_x",
                       "--axis1", "phi:0:pi:5", "--omega", "1.0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# rfsq-csv v1"
    assert lines[1] == "phi,s_x"
    assert len(lines) == 7
    assert float(lines[-1].split(",")[0]) == pytest.approx(math.pi, abs=1e-15)


@pytest.mark.filterwarnings("error")
def test_failed_scan_nodes_exit_two_on_stdout(capsys):
    # N (N + 1) overflows at the two upper nodes: the CSV still comes out,
    # with 0 at the failed nodes, then one error line and exit 2
    code, out, err = run(capsys, "scan", "--metric", "s_x",
                         "--axis1", "n_sq:0:1e200:3", "--omega", "1")
    assert code == 2
    lines = out.splitlines()
    assert lines[:2] == ["# rfsq-csv v1", "n_sq,s_x"]
    assert [float(line.split(",")[1]) for line in lines[3:]] == [0.0, 0.0]
    assert err == ("error: Numerical: 2 of 3 scan nodes failed to evaluate "
                   "(first at [1])\n")


@pytest.mark.filterwarnings("error")
def test_failed_scan_nodes_exit_two_with_out(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, out, err = run(capsys, "scan", "--metric", "s_x",
                         "--axis1", "n_sq:0:1e200:3", "--omega", "1",
                         "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert err == ("error: Numerical: 2 of 3 scan nodes failed to evaluate "
                   "(first at [1])\n")
    assert list(read_csv(out_path)["s_x"][1:]) == [0.0, 0.0]
    meta = json.loads((tmp_path / "scan.csv.meta.json").read_text())
    assert [index for index, _ in meta["errors"]] == [[1], [2]]


def test_scan_reproduces_figure_three(capsys, tmp_path):
    # one data path: the CLI scan of figure 3's grid writes the same bytes,
    # and the same sidecar apart from the keys each front end adds
    code, _, _ = run(capsys, "scan", "--metric", "s_x",
                     "--axis1", "omega:0:40:301", "--axis2", "delta:0:25:181",
                     "--n", "0.125", "--phi", "pi",
                     "--out", str(tmp_path / "scan.csv"))
    assert code == 0
    code, _, _ = run(capsys, "figure", "3", "--out", str(tmp_path / "fig3.csv"))
    assert code == 0
    assert ((tmp_path / "scan.csv").read_bytes()
            == (tmp_path / "fig3.csv").read_bytes())
    scan_meta = json.loads((tmp_path / "scan.csv.meta.json").read_text())
    figure_meta = json.loads((tmp_path / "fig3.csv.meta.json").read_text())
    for key in ("figure", "columns", "theta"):
        scan_meta.pop(key, None)
        figure_meta.pop(key, None)
    assert scan_meta == figure_meta


def test_figure_emission(capsys, tmp_path):
    out_path = tmp_path / "fig5.csv"
    code, out, _ = run(capsys, "figure", "5", "--out", str(out_path), "--script")
    assert code == 0
    assert out_path.exists()
    assert (tmp_path / "fig5.csv.meta.json").exists()
    assert (tmp_path / "fig5.gp").exists()
    columns = read_csv(out_path)
    gap = columns["s_ps"] - columns["s_sv"]
    sign_changes = np.flatnonzero(np.diff(np.sign(gap)) != 0.0)
    assert len(sign_changes) == 1


def test_optimize_command(capsys):
    code, out, _ = run(capsys, "optimize", "--n", "0.125", "--phi", "0.5pi",
                       "--box", "omega:0:3,delta:0:2")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(-0.25, abs=1e-8)
    assert payload["omega"] == pytest.approx(0.6124, abs=1e-3)
    assert payload["converged"]


def test_optimize_exits_two_on_the_iteration_cap(capsys, monkeypatch):
    monkeypatch.setattr(rfsq.optimize, "GOLDEN_MAX_ITER", 5)
    code, out, err = run(capsys, "optimize", "--n", "0.125", "--phi", "0.5pi",
                         "--box", "omega:0:3,delta:0:2")
    assert code == 2
    assert json.loads(out)["converged"] is False
    assert err.startswith("error: NoConvergence:")


def test_pure_closed_form_dispatch(capsys):
    code, out, _ = run(capsys, "pure", "--n", "0.125", "--phi", "0.5pi")
    assert code == 0
    payload = json.loads(out)
    assert payload["omega"] == pytest.approx(math.sqrt(6.0) / 4.0, abs=1e-12)
    assert payload["sigma_achieved"] == pytest.approx(1.0, abs=1e-9)


def test_pure_family_dispatch(capsys):
    code, out, _ = run(capsys, "pure", "--n", "0.125", "--phi", "0.3pi")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert payload["theta_0"] is not None


def test_pure_solver(capsys):
    code, out, _ = run(capsys, "pure", "--n", "0.125", "--phi", "0.5pi",
                       "--delta", "0.25", "--solve-omega")
    assert code == 0
    payload = json.loads(out)
    assert payload["omega"] == pytest.approx(math.sqrt(6.0) / 4.0, abs=1e-4)
    assert payload["pure"] is True


def test_pure_without_closed_form_suggests_solver(capsys):
    code, _, err = run(capsys, "pure", "--n", "0.3", "--phi", "0.3pi")
    assert code == 1
    assert err.startswith("error: Validation:")


def test_pure_solver_failure_is_numerical(capsys):
    code, _, err = run(capsys, "pure", "--n", "0.125", "--phi", "0",
                       "--delta", "5", "--solve-omega")
    assert code == 2
    assert err.startswith("error: NoPureState:")


def test_crossover_command(capsys):
    code, out, _ = run(capsys, "crossover")
    assert code == 0
    assert json.loads(out)["n_star"] == 0.5625


def test_validation_exit_codes(capsys):
    code, _, err = run(capsys, "steady", "--gamma", "0")
    assert code == 1 and err.startswith("error: Validation:")
    code, _, err = run(capsys, "steady", "--phi", "halfpi")
    assert code == 1
    code, _, err = run(capsys, "scan", "--metric", "s_q",
                       "--axis1", "omega:0:1:4")
    assert code == 1
    code, _, err = run(capsys, "scan", "--metric", "s_x", "--axis1", "omega:0:1")
    assert code == 1


@pytest.mark.parametrize("argv,message", [
    (("steady", "--phi=1.2.3pi"),
     "argument --phi: cannot parse angle '1.2.3pi'"),
    (("scan", "--metric", "s_x", "--axis1", "omega:0:1:1"),
     "argument --axis1: axis omega count must lie in [2, 4096]"),
    (("optimize", "--box", "omega:0:1,delta:0:x"),
     "argument --box: could not convert string to float: 'x'"),
])
def test_converter_errors_keep_their_message(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: Validation: " + message)
    assert err.count("\n") == 1
    assert "invalid" not in err and "parse_" not in err


def test_signed_pi_flags(capsys):
    code, out, _ = run(capsys, "steady", "--phi=-pi")
    assert code == 0
    assert json.loads(out)["inputs"]["phi"] == -math.pi
    code, out, _ = run(capsys, "scan", "--metric", "s_x",
                       "--axis1", "phi:-pi:+pi:3", "--omega", "1")
    assert code == 0
    rows = out.strip().splitlines()[2:]
    assert [float(row.split(",")[0]) for row in rows] == [-math.pi, 0.0, math.pi]


@pytest.mark.parametrize("flag,value,expected", [
    ("--delta", "-1e3", -1000.0),
    ("--delta", "-inf", None),
    ("--phi", "-pi", -math.pi),
    ("--phi", "-0.5pi", -0.5 * math.pi),
])
def test_negative_values_as_a_separate_word(capsys, flag, value, expected):
    two_words = run(capsys, "steady", "--omega", "1", flag, value)
    with_equals = run(capsys, "steady", "--omega", "1", f"{flag}={value}")
    assert two_words == with_equals
    code, out, err = two_words
    if expected is None:
        assert code == 1
        assert err == f"error: Validation: {flag[2:]} must be finite, got -inf\n"
    else:
        assert code == 0
        assert json.loads(out)["inputs"][flag[2:]] == expected


@pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
def test_seed_must_be_a_non_negative_integer(capsys, seed):
    code, out, err = run(capsys, "verify", "--fast", "--seed", seed)
    assert code == 1
    assert out == ""
    assert err == ("error: Validation: argument --seed: expected a "
                   f"non-negative integer, got {seed!r}\n")


@pytest.mark.parametrize("argv", [
    ("scan", "--metric", "s_x", "--axis1", "omega:0:1:4"),
    ("figure", "5"),
])
@pytest.mark.parametrize("where,kind", [
    ("file/x.csv", "FileExists"),
    ("dir", "IsADirectory"),
])
def test_unwritable_out_prints_one_line(capsys, tmp_path, argv, where, kind):
    (tmp_path / "file").write_text("kept\n")
    (tmp_path / "dir").mkdir()
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / where))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {kind}: ")
    assert err.count("\n") == 1
    assert (tmp_path / "file").read_text() == "kept\n"
    assert list((tmp_path / "dir").iterdir()) == []


def test_closed_stdout_exits_quietly():
    # the reader takes one line and closes the pipe, as `| head -1` does
    src = Path(rfsq.optimize.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "rfsq.cli", "scan", "--metric", "s_x",
         "--axis1", "omega:0:3:200", "--axis2", "delta:0:1:200"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"# rfsq-csv v1\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert "Traceback" not in err and err == ""


def test_commands_do_not_import_scipy():
    script = (
        "import sys\n"
        "from rfsq.cli import main\n"
        "runs = [['report', '--n', '0.2', '--omega', '1'],\n"
        "        ['optimize', '--n', '0.125', '--phi', '0.5pi',\n"
        "         '--box', 'omega:0:3,delta:0:2'],\n"
        "        ['pure', '--n', '0.125', '--phi', '0.5pi', '--delta', '0.25',\n"
        "         '--solve-omega'],\n"
        "        ['crossover'], ['verify', '--fast']]\n"
        "codes = [main(argv) for argv in runs]\n"
        "assert codes == [0] * len(runs), codes\n"
        "assert 'scipy' not in sys.modules\n"
    )
    src = Path(rfsq.optimize.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_overflowing_report_fails_cleanly(capsys):
    # N (N + 1) overflows: one error line, exit 2, no NaN anywhere
    code, out, err = run(capsys, "report", "--n", "1e200", "--omega", "1")
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1
    assert err.startswith("error: Numerical:")
    assert "Warning" not in err


def test_verify_fast(capsys):
    code, out, _ = run(capsys, "verify", "--fast")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("[")]
    assert len(lines) == 14
    assert all(line.startswith("[PASS]") for line in lines)
