"""Command-line interface: commands, formats, exit codes."""

import json
import math

import numpy as np
import pytest

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
    assert json.loads(out)["n_star"] == pytest.approx(0.5625, abs=1e-6)


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
