"""Figure datasets, CSV round trips, and angle parsing."""

import json
import math

import numpy as np
import pytest

from rfsq import AtomFieldParams, build_figure, emit_figure, full_report
from rfsq.errors import ValidationError
from rfsq.io import format_float, parse_angle, read_csv, write_csv


class TestParseAngle:
    @pytest.mark.parametrize("text,expected", [
        ("0", 0.0),
        ("1.25", 1.25),
        ("-2.5e-1", -0.25),
        ("pi", math.pi),
        ("0.5pi", math.pi / 2.0),
        ("-0.25pi", -math.pi / 4.0),
        ("2pi", 2.0 * math.pi),
        ("-pi", -math.pi),
        ("+pi", math.pi),
    ])
    def test_accepted_forms(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("text", ["", "pi2", "abc", "1.2.3pi", "pipi", "-", "+-pi"])
    def test_rejected_forms(self, text):
        with pytest.raises(ValidationError):
            parse_angle(text)


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(47)
        columns = {
            "a": rng.standard_normal(50) * 1e-7,
            "b": rng.standard_normal(50) * 1e9,
        }
        path = write_csv(tmp_path / "t.csv", columns)
        back = read_csv(path)
        assert list(back) == ["a", "b"]
        assert np.array_equal(back["a"], columns["a"])
        assert np.array_equal(back["b"], columns["b"])

    def test_extreme_values_round_trip_bit_for_bit(self, tmp_path):
        values = np.array([-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                           1e-300, 1.7976931348623157e308,
                           -1.7976931348623157e308, 1.0 / 3.0])
        path = write_csv(tmp_path / "x.csv", {"v": values, "w": values[::-1]})
        back = read_csv(path)
        assert np.array_equal(back["v"].view(np.uint64), values.view(np.uint64))
        assert np.array_equal(back["w"].view(np.uint64),
                              values[::-1].view(np.uint64))

    def test_header_without_rows_is_empty(self, tmp_path, recwarn):
        path = write_csv(tmp_path / "x.csv", {"a": [], "b": []})
        back = read_csv(path)
        assert list(back) == ["a", "b"]
        assert back["a"].shape == (0,) and back["b"].shape == (0,)
        assert len(recwarn) == 0

    @pytest.mark.parametrize("body", ["1,2\n3\n", "1\n3\n", "1,x\n"])
    def test_malformed_rows_are_rejected(self, tmp_path, body):
        path = tmp_path / "x.csv"
        path.write_text("# rfsq-csv v1\na,b\n" + body)
        with pytest.raises(ValidationError):
            read_csv(path)

    def test_seventeen_digit_floats_round_trip(self):
        for v in (1.0 / 3.0, -0.25, 1e-300, math.pi):
            assert float(format_float(v)) == v

    def test_magic_line_is_checked(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValidationError):
            read_csv(path)


class TestFigureDatasets:
    def test_unknown_preset_is_rejected(self):
        with pytest.raises(ValidationError):
            build_figure(8)

    def test_emission_writes_csv_meta_and_script(self, tmp_path):
        paths = emit_figure(5, tmp_path / "fig5.csv", script=True)
        assert paths["csv"].exists()
        meta = json.loads(paths["meta"].read_text())
        assert meta["figure"] == 5
        assert meta["version"]
        assert meta["errors"] == []
        script = paths["script"].read_text()
        assert "plot" in script

    def test_emission_is_deterministic(self, tmp_path):
        first = emit_figure(6, tmp_path / "a.csv")["csv"].read_bytes()
        second = emit_figure(6, tmp_path / "b.csv")["csv"].read_bytes()
        assert first == second

    def test_input_output_comparison_crosses_once(self):
        columns, _ = build_figure(5)
        gap = columns["s_ps"] - columns["s_sv"]
        crossings = np.flatnonzero(np.diff(np.sign(gap)) != 0.0)
        assert len(crossings) == 1
        n_lo = columns["n_sq"][crossings[0]]
        n_hi = columns["n_sq"][crossings[0] + 1]
        assert n_lo < 0.5625 < n_hi

    def test_drive_sweep_panels(self):
        columns, meta = build_figure(4)
        omegas = columns["omega"]
        s = columns["s_x_N0.125"]
        sigma = columns["sigma_N0.125"]
        k = int(np.argmin(s))
        assert s[k] == pytest.approx(-0.25, abs=2e-3)
        assert abs(omegas[k] - 21.65) <= 0.1
        # the purity peak sits at the same drive strength
        assert abs(omegas[int(np.argmax(sigma))] - omegas[k]) <= 0.2
        # the other photon numbers dip less deeply
        assert columns["s_x_N0.05"].min() > s[k]
        assert columns["s_x_N0.5"].min() > s[k]
        assert meta["panels"] == [0.05, 0.125, 0.5]

    def test_quarter_quadrature_surface_minimum(self):
        columns, meta = build_figure(6)
        values = columns["s_pi4"]
        k = int(np.argmin(values))
        assert values[k] == pytest.approx(-0.25, abs=1e-4)
        assert abs(columns["omega"][k] - 0.612) <= 0.01
        assert abs(columns["delta"][k] - 0.25) <= 0.01

    def test_quarter_quadrature_panels(self):
        columns, _ = build_figure(7)
        omegas = columns["omega"]
        s = columns["s_pi4_N0.125"]
        k = int(np.argmin(s))
        assert abs(omegas[k] - 0.612) <= 0.005
        assert s[k] == pytest.approx(-0.25, abs=1e-3)
        assert columns["s_pi4_N0.05"].min() > s[k]
        assert columns["s_pi4_N0.5"].min() > s[k]

    def test_detuned_surface_valley_tracks_the_asymptote(self):
        columns, _ = build_figure(3)
        omegas = columns["omega"].reshape(301, 181)
        deltas = columns["delta"].reshape(301, 181)
        values = columns["s_x"].reshape(301, 181)
        for target in (10.0, 20.0):
            j = int(np.argmin(np.abs(deltas[0] - target)))
            i = int(np.argmin(values[:, j]))
            assert omegas[i, 0] == pytest.approx(
                math.sqrt(3.0) * deltas[0, j], rel=0.02)

    def test_rows_reproduce_point_reports(self, tmp_path):
        paths = emit_figure(2, tmp_path / "fig2.csv")
        columns = read_csv(paths["csv"])
        rng = np.random.default_rng(53)
        rows = rng.choice(len(columns["omega"]), size=len(columns["omega"]) // 100,
                          replace=False)
        for row in rows:
            report = full_report(AtomFieldParams(
                n_sq=0.1, delta=10.0,
                phi=float(columns["phi"][row]),
                omega=float(columns["omega"][row]),
            ))
            assert abs(report.s_x - columns["s_x"][row]) <= 1e-12
