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
    assert meta["errors"] == [[[1], [2], "steady state failed to evaluate"]]


@pytest.mark.filterwarnings("error")
def test_axis_whose_span_overflows_is_exact(capsys):
    # stop - start overflows: the axis is still [-1e308, 0, 1e308], and the
    # kernel evaluates |delta| = 1e308 exactly
    code, out, err = run(capsys, "scan", "--metric", "s_opt",
                         "--axis1", "delta:-1e308:1e308:3", "--n", "0.1",
                         "--omega", "1")
    assert (code, err) == (0, "")
    rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[2:]]
    assert [row[0] for row in rows] == [-1e308, 0.0, 1e308]
    assert all(math.isfinite(row[1]) for row in rows)


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


@pytest.mark.parametrize("command, default", [
    ("figure", "(default: figN.csv in the working directory)"),
    ("scan", "(default: stdout)"),
    ("report", "(default: stdout)"),
])
def test_out_help_names_where_output_goes(capsys, command, default):
    # figure without --out writes figN.csv and its sidecar, never stdout
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert default in help_text
    assert ("stdout" in help_text) is (command != "figure")


def test_optimize_command(capsys):
    code, out, _ = run(capsys, "optimize", "--n", "0.125", "--phi", "0.5pi",
                       "--box", "omega:0:3,delta:0:2")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(-0.25, abs=1e-8)
    assert payload["omega"] == pytest.approx(0.6124, abs=1e-3)
    assert payload["converged"] is True
    assert "n_evals" not in payload


def test_optimize_finds_a_narrow_dip_in_a_wide_box(capsys):
    # a 64-node detuning grid steps over this dip and reports 0.8 at
    # delta = -300; `rfsq report` at the printed drive confirms the value
    code, out, _ = run(capsys, "optimize", "--n", "2", "--phi", "1",
                       "--box", "omega:0:30,delta:-300:300")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(-0.0924234614174767, abs=1e-12)
    code, out, _ = run(capsys, "report", "--n", "2", "--phi", "1",
                       "--omega", repr(payload["omega"]),
                       "--delta", repr(payload["delta"]))
    assert json.loads(out)["s_theta_o"] == pytest.approx(payload["value"], abs=1e-15)


@pytest.mark.parametrize("box,message", [
    ("omega:3:1,delta:0:2", "box omega bounds are reversed, got 'omega:3:1'"),
    ("omega:0:3,delta:2:-2", "box delta bounds are reversed, got 'delta:2:-2'"),
    ("omega:-1:3,delta:0:2", "box omega must not be negative, got 'omega:-1:3'"),
])
def test_bad_box_fails_at_parse_time(capsys, box, message):
    code, out, err = run(capsys, "optimize", "--n", "0.125", "--box", box)
    assert (code, out) == (1, "")
    assert err == f"error: Validation: argument --box: {message}\n"


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


def test_pure_closed_form_at_any_phase(capsys):
    for n_sq, phi in (("0.2", "0.3pi"), ("0.3", "0.3pi"), ("1e-6", "1.9pi"),
                      ("1e3", "0.999pi"), ("5", "-4")):
        code, out, _ = run(capsys, "pure", "--n", n_sq, "--phi", phi)
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] is True
        assert abs(payload["sigma_achieved"] - 1.0) <= 1e-12
        assert payload["theta_0"] == payload["alpha"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("phi", ["0", "0.5pi", "0.3pi"])
def test_pure_at_an_overflowing_photon_number_fails_cleanly(capsys, phi):
    # N (N + 1) overflows and the drive with it: one numerical error line,
    # no numpy warning before it, and no blame on an input never given
    code, out, err = run(capsys, "pure", "--n", "1e200", "--phi", phi)
    assert code == 2
    assert out == ""
    assert err == ("error: Numerical: the pure-state drive overflows at "
                   "n_sq = 1e+200 (omega = inf, delta = 0.0)\n")


@pytest.mark.filterwarnings("error")
def test_opposed_phase_drive_at_a_large_photon_number(capsys):
    # sqrt(N + 1) - sqrt(N) rounds to zero here, so the drive must not divide by it
    code, out, err = run(capsys, "pure", "--n", "1e16", "--phi", "pi",
                         "--delta", "1")
    assert (code, err) == (0, "")
    assert json.loads(out)["omega"] == pytest.approx(4e16, rel=1e-15)


@pytest.mark.parametrize("phi", ["0", "0.5pi", "0.3pi"])
def test_pure_rejects_a_non_ideal_reservoir(capsys, phi):
    code, out, err = run(capsys, "pure", "--n", "0.2", "--phi", phi,
                         "--eta", "0.9")
    assert code == 1
    assert out == ""
    assert err.startswith("error: Validation: no drive gives a pure state")
    assert err.count("\n") == 1


@pytest.mark.parametrize("phi,expected,extra", [
    ("2pi", 2.0 * math.pi, ()),
    ("-0.3pi", -0.3 * math.pi, ()),
    ("3pi", 3.0 * math.pi, ("--delta", "12.5")),
    ("-pi", -math.pi, ("--delta", "12.5")),
])
def test_pure_reduces_the_phase_modulo_two_pi(capsys, phi, expected, extra):
    code, out, _ = run(capsys, "pure", "--n", "0.125", "--phi", phi, *extra)
    assert code == 0
    payload = json.loads(out)
    assert payload["phi"] == expected
    # pi (mod 2 pi) takes the large-detuning condition, omega = sqrt(3) delta
    assert payload["exact"] is not bool(extra)
    if extra:
        assert payload["omega"] == pytest.approx(12.5 * math.sqrt(3.0), rel=1e-12)
        assert payload["sigma_achieved"] == pytest.approx(1.0, abs=2e-3)
    else:
        assert abs(payload["sigma_achieved"] - 1.0) <= 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    # the Phi = pi drive overflows, and the purest drive
    ("pure", "--n", "0.2", "--phi", "pi", "--delta", "1e308"),
    ("pure", "--n", "0.2", "--phi", "pi", "--delta", "1e308", "--solve-omega"),
    ("pure", "--n", "0.2", "--phi", "2", "--delta", "1e100", "--solve-omega"),
    # N (N + 1) overflows: the state, the drive, and the rates of every box
    # candidate
    ("steady", "--n", "1e200", "--omega", "1"),
    ("pure", "--n", "1e300", "--phi", "pi", "--delta", "1"),
    ("optimize", "--n", "1e200", "--phi", "1", "--box", "omega:0:3,delta:0:2"),
])
def test_overflowing_state_fails_cleanly(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_box_bound_at_the_top_of_the_float_range(capsys):
    # the cubic's scale 2^k overflowed for an omega bound >= 2^1023 (a
    # traceback); the optimum is the one of any box that holds it
    code, out, err = run(capsys, "optimize", "--n", "0.2", "--phi", "1",
                         "--box", "omega:0:1e308,delta:0:1")
    assert (code, err) == (0, "")
    code, small, _ = run(capsys, "optimize", "--n", "0.2", "--phi", "1",
                         "--box", "omega:0:30,delta:0:1")
    got, want = json.loads(out), json.loads(small)
    assert {k: got[k] for k in ("omega", "delta", "value")} == \
        {k: want[k] for k in ("omega", "delta", "value")}
    assert math.isfinite(got["value"])


@pytest.mark.filterwarnings("error")
def test_overflowing_detuning_scan(capsys):
    # undriven, every detuning gives the undriven state
    code, out, err = run(capsys, "scan", "--metric", "s_x", "--n", "0.2",
                         "--axis1", "delta:0:1e200:3")
    assert (code, err) == (0, "")
    assert [float(row.split(",")[1]) for row in out.splitlines()[2:]] == \
        [1.0 - 1.0 / 1.4] * 3
    # with omega^2 overflowing too, each node has its state (the two far
    # nodes failed as NaN); at delta = 0 it is the strong-drive limit
    code, out, err = run(capsys, "scan", "--metric", "s_x", "--n", "0.2",
                         "--omega", "1e200", "--axis1", "delta:0:1e200:3")
    assert (code, err) == (0, "")
    got = [float(row.split(",")[1]) for row in out.splitlines()[2:]]
    assert got[0] == 1.0
    for value, delta in zip(got[1:], (5e199, 1e200)):
        sx, _, sz = _fifty_digit_state(0.2, 0.0, 1e200, delta)
        assert value == pytest.approx(1.0 + sz - sx * sx, rel=2e-15)


def _fifty_digit_state(n_sq, phi, omega, delta):
    """Steady state (sx, sy, sz) at eta = 1 by a 50-digit closed form."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        n, phi, omega, delta = (mp.mpf(x) for x in (n_sq, phi, omega, delta))
        m = mp.sqrt(n * (n + 1))
        gx = n + 0.5 + m * mp.cos(phi)
        gy = n + 0.5 - m * mp.cos(phi)
        u, v = delta + m * mp.sin(phi), delta - m * mp.sin(phi)
        lorentz = gx * gy + u * v
        d = (2 * n + 1) * lorentz + omega ** 2 * gx
        return (float(-u * omega / d), float(omega * gx / d),
                float(-lorentz / d))


@pytest.mark.filterwarnings("error")
def test_squares_past_the_float_range_give_the_state(capsys):
    # delta^2 overflows from |delta| ~ 1.3e154; it exited 0 with
    # sz = -0.7142857142857143
    code, out, err = run(capsys, "steady", "--n", "0.2", "--phi", "pi",
                         "--delta", "1.4e154", "--omega", "1.3e154")
    assert (code, err) == (0, "")
    assert json.loads(out)["sz"] == -0.6324472954115011
    # with omega^2 overflowing too, it failed with NaN
    code, out, err = run(capsys, "steady", "--n", "0.2", "--phi", "pi",
                         "--delta", "1e200", "--omega", "2e200")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    want = _fifty_digit_state(0.2, math.pi, 2e200, 1e200)
    for key, value in zip(("sx", "sy", "sz"), want):
        assert payload[key] == pytest.approx(value, rel=2e-15)
    # the Phi = pi drive 2 delta sqrt(M) (sqrt(N + 1) + sqrt(N)) at 1e300
    code, out, err = run(capsys, "pure", "--n", "0.2", "--phi", "pi",
                         "--delta", "1e300")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    m = math.sqrt(0.2 * 1.2)
    assert payload["omega"] == pytest.approx(
        2e300 * math.sqrt(m) * (math.sqrt(1.2) + math.sqrt(0.2)), rel=1e-15)
    assert payload["sigma_achieved"] == pytest.approx(1.0, abs=1e-12)
    # a box far past the overflow: the least S_opt on the box's far edge
    code, out, err = run(capsys, "optimize", "--n", "0.2", "--box",
                         "omega:1e200:1e201,delta:1e200:1e201")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    sx, sy, sz = _fifty_digit_state(0.2, 0.0, payload["omega"],
                                    payload["delta"])
    assert payload["value"] == pytest.approx(1.0 + sz - sx * sx - sy * sy,
                                             rel=2e-15)


def test_overflowing_purest_drive_names_the_drive(capsys):
    # the slice is near pure, but the drive 2^e sqrt(w_pure / 4^e) overflows
    code, out, err = run(capsys, "pure", "--n", "0.2", "--phi", "pi",
                         "--delta", "1e308", "--solve-omega")
    assert (code, out) == (2, "")
    assert err == ("error: Numerical: the purest drive overflows at "
                   "delta = 1e+308 (omega = inf)\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta, omega", [
    ("1e160", 2.1594972822203686e160), ("1e300", 2.159497282220369e300)])
def test_purest_drive_past_its_square_overflow_is_printed(capsys, delta, omega):
    # w_pure = omega^2 overflows from |delta| ~ 1e154, the drive does not:
    # it exited 2 with "the purest drive overflows"
    code, out, err = run(capsys, "pure", "--n", "0.2", "--phi", "pi",
                         "--delta", delta, "--solve-omega")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["omega"] == omega
    assert payload["pure"] is True
    assert payload["sigma"] == 1.0000000000000002


def test_warning_is_one_line(capsys):
    code, out, err = run(capsys, "pure", "--n", "0.2", "--phi", "pi",
                         "--delta", "1")
    assert code == 0
    assert json.loads(out)["exact"] is False
    assert err == ("warning: AsymptoticCondition: delta = 1 is below "
                   "10 * (Gamma - gM) = 2.10102; the pure-state condition "
                   "is asymptotic in delta\n")


@pytest.mark.filterwarnings("error")
def test_far_detuned_purest_drive_is_no_pure_state(capsys):
    # past |delta| ~ 1e154 the drive overflows, and Sigma is the closed form's
    for delta in ("1e100", "1e160"):
        code, out, err = run(capsys, "pure", "--n", "0.2", "--phi", "2",
                             "--delta", delta, "--solve-omega")
        assert (code, out) == (2, "")
        assert err == ("error: NoPureState: no pure state on this slice; "
                       "best Sigma = 0.557492\n")


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
    code, _, err = run(capsys, "steady", "--eta", "2")
    assert code == 1 and err == "error: Validation: eta must lie in [0, 1], got 2.0\n"
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
    (("optimize", "--box", "omega:0:inf,delta:0:2"),
     "argument --box: box omega bounds must be finite, got 'omega:0:inf'"),
    (("optimize", "--box", "omega:0:3,delta:0:2,omega:1:2"),
     "argument --box: box side omega is given twice"),
    (("optimize", "--box", "delta:-1e400:2,omega:0:1"),
     "argument --box: box delta bounds must be finite, got 'delta:-1e400:2'"),
    (("report", "--n", "nan"), "n_sq must be finite, got nan"),
    (("report", "--delta", "1e400"), "delta must be finite, got inf"),
    (("scan", "--metric", "s_x", "--axis1", "omega:0:nan:3"),
     "argument --axis1: axis omega bounds must be finite"),
    (("scan", "--metric", "s_x", "--axis1", "omega:0:1e400:3"),
     "argument --axis1: axis omega bounds must be finite"),
    (("scan", "--metric", "s_x", "--axis1", "omega:1:0:3"),
     "argument --axis1: axis omega needs start < stop, got [1.0, 0.0]"),
    (("scan", "--metric", "s_x", "--axis1", "omega:0:1:3.5"),
     "argument --axis1: axis omega count must be an integer, got '3.5'"),
])
@pytest.mark.filterwarnings("error")
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


@pytest.mark.parametrize("argv,ignored", [
    (("figure", "5", "--omega", "3", "--seed", "7", "--format", "json"),
     "--omega 3 --seed 7 --format json"),
    (("scan", "--metric", "s_x", "--axis1", "omega:0:1:4", "--format", "json"),
     "--format json"),
    (("verify", "--n", "0.3", "--out", "x", "--format", "csv"),
     "--n 0.3 --out x --format csv"),
    (("crossover", "--omega", "5"), "--omega 5"),
    (("optimize", "--n", "0.125", "--box", "omega:0:3,delta:0:2",
      "--delta", "1", "--gamma", "2"), "--delta 1 --gamma 2"),
    (("pure", "--n", "0.125", "--phi", "0.5pi", "--omega", "1"), "--omega 1"),
    # gamma is the frequency unit, not an input
    (("steady", "--n", "0.1", "--gamma", "2"), "--gamma 2"),
    (("report", "--n", "0.1", "--gamma", "2"), "--gamma 2"),
    (("scan", "--metric", "s_x", "--axis1", "omega:0:1:4", "--gamma", "2"),
     "--gamma 2"),
])
def test_flags_a_command_does_not_read_are_rejected(capsys, tmp_path,
                                                    monkeypatch, argv, ignored):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: Validation: unrecognized arguments: {ignored}\n"
    assert list(tmp_path.iterdir()) == []


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


#: cold commands by whether they import numpy: the point commands, --help,
#: --version and a validation error do not; array work does
COLD_COMMANDS = [
    (["report", "--n", "0.2", "--omega", "1"], False),
    (["steady", "--n", "0.2", "--omega", "1"], False),
    (["pure", "--n", "0.125", "--phi", "0.5pi"], False),
    (["pure", "--n", "0.125", "--phi", "pi", "--delta", "1"], False),
    (["pure", "--n", "0.125", "--phi", "0.5pi", "--delta", "0.25", "--solve-omega"],
     False),
    (["crossover"], False),
    (["--help"], False),
    (["--version"], False),
    (["report", "--n", "nan"], False),
    (["optimize", "--n", "0.125", "--phi", "0.5pi", "--box", "omega:0:3,delta:0:2"],
     False),
    (["optimize", "--n", "0.125", "--phi", "pi", "--box",
      "omega:0:3e6,delta:1e6:1000010"], False),
    (["scan", "--metric", "s_x", "--axis1", "omega:0:3:4"], True),
    (["figure", "4"], True),
    (["verify", "--fast"], True),
    (["report", "--n", "0.2", "--omega", "1", "--format", "csv"], True),
]


def test_commands_do_not_import_scipy(tmp_path):
    # each a cold `python -m rfsq.cli` process, whose imports -X importtime lists
    src = Path(rfsq.optimize.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    for argv, loads_numpy in COLD_COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "rfsq.cli", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
        imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert proc.returncode == (1 if "nan" in argv else 0), (argv, proc.stderr)
        assert ("numpy" in imported) is loads_numpy, argv
        assert "scipy" not in imported, argv


def test_optimize_prints_the_pinned_bytes(capsys):
    # the benchmark's N = 1/8 draws and boxes from Omega <= 3 to 1e308; the
    # file holds each argv with its exit code, stdout and stderr
    golden = json.loads((Path(__file__).parent / "optimize_golden.json").read_text())
    assert len(golden) == 27
    for case in golden:
        code, out, err = run(capsys, *case["argv"])
        assert (code, out, err) == (case["code"], case["stdout"], case["stderr"]), \
            case["argv"]


def test_the_csv_codec_loads_only_for_csv(tmp_path):
    # import rfsq and a point command leave the codec and numpy unloaded; a
    # CSV read loads the reader and the encoder whose powers of ten it shares
    script = (
        "import sys\n"
        "import rfsq\n"
        "lazy = {'rfsq._encoder', 'rfsq._decoder', 'numpy'}\n"
        "assert not lazy & set(sys.modules)\n"
        "from rfsq.cli import main\n"
        "assert main(['report', '--n', '0.2', '--omega', '1']) == 0\n"
        "assert not lazy & set(sys.modules)\n"
        "from rfsq.io import read_csv\n"
        "read_csv(sys.argv[1])\n"
        "assert lazy <= set(sys.modules)\n"
    )
    path = tmp_path / "x.csv"
    path.write_text("# rfsq-csv v1\na\n1\n")
    src = Path(rfsq.optimize.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script, str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_no_python_3_11_names_needed(tmp_path):
    # operator.call and math.cbrt are new in Python 3.11, and the package
    # supports 3.10: without them a cold process still runs every kind of
    # command, numpy-free and numpy alike
    script = (
        "import contextlib, io, math, operator\n"
        "del operator.call, math.cbrt\n"
        "from rfsq.cli import main\n"
        "for argv in (['report', '--n', '0.2', '--omega', '1'],\n"
        "             ['optimize', '--n', '0.125', '--phi', '0.5pi',\n"
        "              '--box', 'omega:0:3,delta:0:2'],\n"
        "             ['scan', '--metric', 's_opt', '--axis1', 'omega:0:3:16',\n"
        "              '--axis2', 'phi:0:pi:16', '--n', '0.2'],\n"
        "             ['verify', '--fast']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
    )
    src = Path(rfsq.optimize.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
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
