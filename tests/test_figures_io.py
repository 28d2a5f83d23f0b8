"""Figure datasets, CSV round trips, and angle parsing."""

import io
import itertools
import json
import math

import numpy as np
import pytest

from rfsq import AtomFieldParams, build_figure, emit_figure, full_report
from rfsq.errors import ValidationError
from rfsq.io import (
    CSV_MAGIC,
    _repeated_strings,
    dump_csv,
    format_float,
    parse_angle,
    read_csv,
    write_csv,
)
from rfsq.scan import AxisSpec, ScanSpec, scan

#: values whose formatting has edge cases of its own
SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, math.inf, -math.inf,
                  math.nan, 1.7976931348623157e308, -1.7976931348623157e308]

#: NaNs that differ in sign and payload: distinct bit patterns, one string
NAN_PATTERNS = np.array([0xFFF8000000000000, 0x7FF0000000000001,
                         0x7FF8000000000123, 0xFFFFFFFFFFFFFFFF],
                        dtype=np.uint64).view(float)

LENGTHS = [0, 1, 2, 65_535, 65_536, 65_537, 200_000]


def row_at_a_time(columns: dict) -> str:
    """The CSV that dump_csv must write, formatted one value at a time."""
    lines = [CSV_MAGIC, ",".join(columns)]
    for row in zip(*(np.asarray(col, dtype=float).tolist()
                     for col in columns.values())):
        lines.append(",".join(format_float(v) for v in row))
    return "\n".join(lines) + "\n"


def assert_dumped_as_row_at_a_time(columns: dict) -> None:
    # names the first differing line: pytest's own diff of two texts of
    # several MB takes minutes
    buf = io.StringIO()
    dump_csv(buf, columns)
    got, expected = buf.getvalue(), row_at_a_time(columns)
    if got != expected:
        lines = itertools.zip_longest(got.split("\n"), expected.split("\n"))
        first = next((k, a, b) for k, (a, b) in enumerate(lines) if a != b)
        pytest.fail(f"line {first[0]}: got {first[1]!r}, expected {first[2]!r}")


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

    @pytest.mark.parametrize("ncols", [1, 2, 4])
    @pytest.mark.parametrize("length", [0, 1, 65_535, 65_536, 65_537, 200_000])
    def test_block_writer_matches_row_at_a_time(self, length, ncols):
        rng = np.random.default_rng(length + ncols)
        columns = {}
        for k in range(ncols):
            col = rng.standard_normal(length) * 10.0 ** rng.uniform(-20, 20, length)
            # the special values at the start and around each block boundary
            for start in (0, 65_530, 131_066):
                stop = min(start + len(SPECIAL_VALUES), length)
                if start < stop:
                    col[start:stop] = np.roll(SPECIAL_VALUES, k)[:stop - start]
            columns[f"c{k}"] = col
        assert_dumped_as_row_at_a_time(columns)

    @pytest.mark.parametrize("length", LENGTHS)
    def test_repeating_columns_match_row_at_a_time(self, length):
        special = np.concatenate((SPECIAL_VALUES, NAN_PATTERNS))
        reps = max(2, -(-length // len(special)))
        columns = {
            "repeat": np.repeat(special, reps)[:length],
            "resize": np.resize(special, length),
            "other": np.random.default_rng(length).standard_normal(length),
        }
        if length >= 2 * len(special):
            assert _repeated_strings(columns["repeat"]) is not None
            assert _repeated_strings(columns["resize"]) is not None
        assert_dumped_as_row_at_a_time(columns)

    @pytest.mark.parametrize("length", [100_000, 200_000])
    def test_column_repeating_in_its_first_block_only(self, length):
        rng = np.random.default_rng(length)
        col = rng.standard_normal(length)
        col[:65_536] = np.resize(SPECIAL_VALUES, 65_536)
        # over 200,000 rows most values are distinct, so the floats are
        # formatted as they come
        assert (_repeated_strings(col) is None) == (length == 200_000)
        columns = {"head": col, "other": rng.standard_normal(length)}
        assert_dumped_as_row_at_a_time(columns)

    def test_column_repeating_after_its_first_block_only(self):
        rng = np.random.default_rng(61)
        col = rng.standard_normal(200_000)
        col[65_536:] = np.resize(SPECIAL_VALUES, 200_000 - 65_536)
        assert _repeated_strings(col) is None
        assert_dumped_as_row_at_a_time({"tail": col})

    def test_scan_columns_match_row_at_a_time(self):
        result = scan(ScanSpec(
            axis1=AxisSpec("omega", 0.0, 30.0, 301),
            axis2=AxisSpec("phi", -math.pi, math.pi, 401),
            fixed=AtomFieldParams(n_sq=0.1, delta=10.0), metric="s_x"))
        columns = result.columns()
        assert _repeated_strings(columns["omega"]) is not None
        assert _repeated_strings(columns["phi"]) is not None
        assert _repeated_strings(columns["s_x"]) is None
        assert_dumped_as_row_at_a_time(columns)

    def test_unequal_lengths_leave_an_existing_file_alone(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", {"a": [1.0, 2.0]})
        before = path.read_bytes()
        with pytest.raises(ValidationError):
            write_csv(path, {"a": [1.0, 2.0], "b": [3.0]})
        assert path.read_bytes() == before
        with pytest.raises(ValidationError):
            write_csv(tmp_path / "new.csv", {"a": [1.0], "b": []})
        assert not (tmp_path / "new.csv").exists()

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
