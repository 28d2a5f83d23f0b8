"""Figure datasets, CSV round trips, and angle parsing."""

import decimal
import io
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import rfsq._decoder
import rfsq.io
from rfsq import AtomFieldParams, build_figure, emit_figure, full_report
from rfsq._decoder import decode
from rfsq._encoder import encode
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


def encoded_lines(values) -> list:
    """encode's text for each value."""
    fields = encode(np.asarray(values, dtype=float))
    rows = np.concatenate(
        (fields, np.full((len(fields), 1), ord("\n"), np.uint8)), axis=1)
    return rows.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def assert_encoded_as_format_float(values) -> None:
    values = np.asarray(values, dtype=float)
    got = encoded_lines(values)
    want = [format_float(v) for v in values.tolist()]
    if got != want:
        k = next(k for k, (a, b) in enumerate(zip(got, want)) if a != b)
        pytest.fail(f"{values[k]!r}: got {got[k]!r}, expected {want[k]!r}")


def exact_ties(rng, count: int) -> np.ndarray:
    """Values whose decimal expansion has exactly 18 significant digits,
    the last a 5: j / 2^m for odd j, with j 5^m of 18 digits, so that 17
    digits round half to even."""
    m = rng.integers(2, 26, count)
    lo = -(-10**17 // 5**m)
    j = rng.integers(lo, np.minimum(10**18 // 5**m, 2**53)) | 1
    keep = np.array([len(str(int(a) * 5**int(b))) == 18 for a, b in zip(j, m)])
    ties = np.ldexp(j[keep].astype(float), -m[keep])
    return np.where(rng.random(len(ties)) < 0.5, ties, -ties)


def powers_of_ten_and_neighbours() -> np.ndarray:
    """10^p for p in [-323, 308] and its three neighbours on each side."""
    powers = np.array([float(f"1e{p}") for p in range(-323, 309)])
    values = [powers]
    up, down = powers, powers
    for _ in range(3):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        values += [up, down]
    values = np.concatenate(values)
    return np.concatenate((values, -values))


def is_exact_tie(value: float) -> bool:
    """Whether the exact decimal expansion of value has 18 significant
    digits, the last a 5."""
    digits = "".join(map(str, decimal.Decimal(value).as_tuple().digits))
    digits = digits.strip("0")
    return len(digits) == 18 and digits[-1] == "5"


class TestEncoder:
    """encode writes format_float's bytes for whole arrays."""

    def test_random_bit_patterns(self):
        # every exponent, both signs, NaN payloads, infinities, subnormals
        bits = np.random.default_rng(83).integers(
            np.iinfo(np.int64).min, np.iinfo(np.int64).max, 1 << 20,
            dtype=np.int64, endpoint=True)
        assert_encoded_as_format_float(bits.view(float))

    def test_random_values_of_every_notation(self):
        rng = np.random.default_rng(89)
        mags = 10.0 ** rng.uniform(-30.0, 30.0, 200_000)
        # few significant digits: trailing zeros, integers, bare points
        short = rng.integers(1, 10**6, 200_000) * 10.0 ** rng.integers(
            -30, 30, 200_000)
        assert_encoded_as_format_float(rng.standard_normal(200_000) * mags)
        assert_encoded_as_format_float(np.concatenate((short, -short)))

    def test_powers_of_ten_and_their_neighbours(self):
        values = powers_of_ten_and_neighbours()
        assert {9.9999999999999991e-05, 1e-05, 1e-04} <= set(values.tolist())
        assert_encoded_as_format_float(values)

    @pytest.mark.parametrize("value,text", [
        # fixed notation from k = -4 to k = 16, scientific outside
        (1e-05, "1.0000000000000001e-05"),
        (9.9999999999999991e-05, "9.9999999999999991e-05"),
        (1e-04, "0.0001"),
        (-0.00012345, "-0.00012344999999999999"),
        (1e16, "10000000000000000"),
        (12345678901234568.0, "12345678901234568"),
        (99999999999999999.0, "1e+17"),
        (1.5e17, "1.5e+17"),
        (123.0, "123"),
        (0.5, "0.5"),
        (-2.5e-300, "-2.5e-300"),
        (1.7976931348623157e308, "1.7976931348623157e+308"),
    ])
    def test_switch_between_notations(self, value, text):
        assert format_float(value) == text
        assert encoded_lines([value]) == [text]

    def test_exact_ties_round_half_to_even(self):
        # 661702572039034.875 prints as ...034.88: its 7 rounds up to even
        hand_picked = [661702572039034.875, -661702572039034.875,
                       1234567890123456.25, 1234567890123456.75]
        assert format_float(661702572039034.875) == "661702572039034.88"
        ties = exact_ties(np.random.default_rng(97), 20_000)
        assert len(ties) > 10_000
        assert_encoded_as_format_float(np.concatenate((hand_picked, ties)))

    def test_special_values(self):
        subnormals = np.random.default_rng(101).integers(
            1, 2**52, 10_000, dtype=np.int64).view(float)
        values = np.concatenate((SPECIAL_VALUES, NAN_PATTERNS, subnormals,
                                 -subnormals))
        assert_encoded_as_format_float(values)

    def test_only_ties_and_the_extremes_take_the_fallback(self, monkeypatch):
        calls = []

        def counted(value):
            calls.append(value)
            return format_float(value)

        monkeypatch.setattr(rfsq.io, "format_float", counted)
        rng = np.random.default_rng(103)
        values = np.concatenate((
            rng.standard_normal(10_000), powers_of_ten_and_neighbours(),
            exact_ties(rng, 2_000), SPECIAL_VALUES, NAN_PATTERNS,
            [1e-289, -1e289, 2.5e-320]))
        encode(values)
        fallback = [v for v in values.tolist()
                    if not 1e-288 <= abs(v) <= 1e288 or is_exact_tie(v)]
        assert len(fallback) > 2_000
        assert np.array_equal(np.array(calls).view(np.int64),
                              np.array(fallback).view(np.int64))


def loadtxt_columns(path) -> tuple:
    """The names and rows of a CSV as np.loadtxt reads the lines after the
    magic line and the header (a ValueError where it rejects them, or they
    do not match the header)."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        names = fh.readline().rstrip("\n").split(",")
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(fh, delimiter=",", dtype=float, ndmin=2)
    if rows.size == 0:
        rows = np.empty((0, len(names)))
    if rows.shape[1] != len(names):
        raise ValueError(f"{rows.shape[1]} columns, {len(names)} names")
    return names, rows


def assert_read_as_loadtxt(path, fast: bool) -> None:
    """read_csv returns np.loadtxt's bits (or raises where it raises), and
    decodes the file itself exactly when fast."""
    assert (decode(path) is not None) is fast
    try:
        names, want = loadtxt_columns(path)
    except ValueError:
        with pytest.raises(ValidationError):
            read_csv(path)
        return
    got = read_csv(path)
    assert list(got) == names
    for k, name in enumerate(names):
        bad = np.flatnonzero(got[name].view(np.int64) != want[:, k].view(np.int64))
        if len(bad):
            i = bad[0]
            pytest.fail(f"{name}[{i}]: got {got[name][i]!r}, expected {want[i, k]!r}")


def one_column_file(tmp_path, body: str) -> Path:
    path = tmp_path / "x.csv"
    path.write_bytes(f"{CSV_MAGIC}\na\n{body}".encode())
    return path


class TestDecoder:
    """read_csv decodes rfsq's CSVs itself, with np.loadtxt's bits."""

    @pytest.mark.parametrize("length", LENGTHS)
    def test_lengths_across_chunks_and_blocks(self, tmp_path, length):
        rng = np.random.default_rng(107)
        values = rng.standard_normal(length) * 10.0 ** rng.uniform(-6, 6, length)
        columns = {"a": values, "b": np.round(values), "c": -values * 1e-5}
        path = write_csv(tmp_path / "x.csv", columns)
        assert_read_as_loadtxt(path, fast=True)

    @pytest.mark.parametrize("chunk", [25, 64, 1000])
    def test_rows_across_small_chunks(self, tmp_path, monkeypatch, chunk):
        # a row longer than a chunk (25 bytes) sends the file to np.loadtxt
        monkeypatch.setattr(rfsq._decoder, "DECODE_CHUNK", chunk)
        values = np.random.default_rng(109).standard_normal(500)
        path = write_csv(tmp_path / "x.csv", {"a": values, "b": values[::-1]})
        assert_read_as_loadtxt(path, fast=chunk > 25)
        assert np.array_equal(read_csv(path)["a"], values)

    def test_random_bit_patterns_and_powers(self, tmp_path):
        rng = np.random.default_rng(113)
        bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                            600_000, dtype=np.int64, endpoint=True).view(float)
        subnormals = rng.integers(1, 2**52, 10_000, dtype=np.int64).view(float)
        values = np.concatenate((
            bits[np.isfinite(bits)], powers_of_ten_and_neighbours(),
            subnormals, -subnormals, np.ldexp(1.0, np.arange(-1074, 1024))))
        values = np.resize(rng.permutation(values), (-(-len(values) // 4), 4))
        path = write_csv(tmp_path / "x.csv", dict(zip("abcd", values.T)))
        assert_read_as_loadtxt(path, fast=True)

    def test_special_values_take_the_fallback(self, tmp_path):
        special = np.concatenate((SPECIAL_VALUES, NAN_PATTERNS))
        path = write_csv(tmp_path / "x.csv", {"a": special, "b": special[::-1]})
        assert_read_as_loadtxt(path, fast=False)

    def test_codec_needs_no_numpy_2_functions(self, tmp_path, monkeypatch):
        # pyproject allows numpy 1.24: the functions numpy 2.0 added must
        # not be on the codec's path
        for name in ("bitwise_count", "concat", "astype", "isdtype", "vecdot",
                     "permute_dims", "matrix_transpose", "unique_values",
                     "unique_counts", "unique_inverse", "unique_all",
                     "cumulative_sum", "cumulative_prod", "strings"):
            monkeypatch.delattr(np, name, raising=False)
        values = np.array([0.5, -12.25, 1e-7, 3e21, -0.0, 7.0, 1 / 3, 2.5e-300])
        path = write_csv(tmp_path / "x.csv", {"a": values, "b": values[::-1]})
        assert_read_as_loadtxt(path, fast=True)

    @pytest.mark.parametrize("text", [
        "1.", ".5", "007", "-0", "0", "-.5", "5.5e-05", "1e+05", "-2.5e-300",
        "1.5e+100", "123456789012345678", "0.000000000000000000001",
        # exact ties between two doubles, rounded by float(): half to even
        # goes down for the first three, up for the last two
        "9007199254740993", "-18014398509481986", "4503599627370496.5",
        "9007199254740995", "-4503599627370497.5",
        # powers of ten outside 1e-290..1e290, rounded by float()
        "1e-290", "1e-291", "1e+291", "-1e+308", "0e+999",
        "2.2250738585072011e-308", "4.9406564584124654e-324",
    ])
    def test_fields_it_decodes(self, tmp_path, text):
        assert_read_as_loadtxt(one_column_file(tmp_path, f"{text}\n"), fast=True)

    @pytest.mark.parametrize("text", [
        "1E5", "+1", " 1", "1 ", "1e5", "1.e5", "1e+5", "Infinity", "inf",
        "-nan", "1234567890123456789", "0.0000000000000000000000001",
        # rejected by np.loadtxt too
        "1_0", "0x10", "--1", "1-2", "1.2.3", ".", "-", "e+05", ".e+05", "1e",
    ])
    def test_fields_it_leaves_to_loadtxt(self, tmp_path, text):
        assert_read_as_loadtxt(one_column_file(tmp_path, f"{text}\n"), fast=False)

    @pytest.mark.parametrize("data,fast", [
        (f"{CSV_MAGIC}\na,b\n", True),
        (f"{CSV_MAGIC}\na,b\n1,2\n-3,4.5\n", True),
        (f"{CSV_MAGIC}\r\na,b\r\n1,2\r\n", False),
        (f"{CSV_MAGIC}\na,b\n1,2\r\n", False),
        (f"{CSV_MAGIC}\na,b\n1,2\n3,4", False),
        (f"{CSV_MAGIC}\na,b", False),
        (f"{CSV_MAGIC}\na,b\n1,2\n\n3,4\n", False),
        (f"{CSV_MAGIC}\na,b\n1,2\n# note\n3,4\n", False),
        (f"{CSV_MAGIC}\na,b\n1,2,3\n", False),
        (f"{CSV_MAGIC}\na,b\n1\n2\n", False),
        (f"{CSV_MAGIC}\na,b\n1,2,3\n4\n", False),
        (f"{CSV_MAGIC}\na,b\n1,,2\n", False),
    ])
    def test_whole_files(self, tmp_path, data, fast):
        path = tmp_path / "x.csv"
        path.write_bytes(data.encode())
        assert_read_as_loadtxt(path, fast)

    def test_figure_files(self, tmp_path):
        for number in range(2, 8):
            path = emit_figure(number, tmp_path / f"fig{number}.csv")["csv"]
            assert_read_as_loadtxt(path, fast=True)


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
