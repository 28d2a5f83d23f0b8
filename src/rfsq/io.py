"""Flat-file serialisation: versioned CSV, JSON reports, angle parsing."""

from __future__ import annotations

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np

from .errors import ValidationError

CSV_MAGIC = "# rfsq-csv v1"

#: rows formatted per write by dump_csv
CSV_BLOCK_ROWS = 65536

_ANGLE_RE = re.compile(
    r"^\s*([+-]?)((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?\s*(pi)?\s*$")


def parse_angle(text: str) -> float:
    """Parse an angle given in radians or as a multiple of pi.

    Accepts plain floats ('0.785'), 'pi' with an optional sign, and
    scaled forms like '0.5pi' or '-2pi'.
    """
    match = _ANGLE_RE.match(str(text))
    if not match or (match.group(2) is None and match.group(3) is None):
        raise ValidationError(f"cannot parse angle {text!r}")
    sign, number, pi = match.groups()
    value = float(sign + (number or "1"))
    if pi:
        value *= math.pi
    return value


def format_float(value: float) -> str:
    """17 significant digits: exact round trip for 64-bit floats."""
    return format(float(value), ".17g")


def dump_csv(stream, columns: dict[str, np.ndarray]) -> None:
    """Write named columns as a versioned CSV (header magic, names, rows)."""
    _write_table(stream, *_csv_table(columns))


def write_csv(path, columns: dict[str, np.ndarray]) -> Path:
    """Write named columns to a versioned CSV file (see dump_csv)."""
    table = _csv_table(columns)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        _write_table(fh, *table)
    return path


def _csv_table(columns: dict[str, np.ndarray]) -> tuple[list, list]:
    """Column names and flat float columns, checked to have equal lengths."""
    names = list(columns)
    data = [np.asarray(columns[name], dtype=float).ravel() for name in names]
    if any(len(col) != len(data[0]) for col in data):
        raise ValidationError("all CSV columns must have equal length")
    return names, data


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct entries of a sorted array."""
    return np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))


def _repeated_strings(col: np.ndarray):
    """The sorted distinct bit patterns of a column and their strings, or
    None unless at most half the values of its first block, and of the
    whole column, are distinct (formatting mostly distinct values one
    call each is slower than a block's "%.17g")."""
    head = _distinct(np.sort(col[:CSV_BLOCK_ROWS].view(np.int64)))
    if 2 * len(head) > min(len(col), CSV_BLOCK_ROWS):
        return None
    keys = _distinct(np.sort(col.view(np.int64)))
    if 2 * len(keys) > len(col):
        return None
    strings = [format_float(v) for v in keys.view(float).tolist()]
    return keys, np.array(strings, dtype=object)


def _write_table(stream, names: list, data: list) -> None:
    stream.write(CSV_MAGIC + "\n")
    stream.write(",".join(names) + "\n")
    # one % call formats a whole block of rows; "%.17g" formats a float
    # exactly as format_float does. A column that repeats its values, as a
    # scan axis does, has each distinct bit pattern (so -0.0 apart from
    # 0.0) formatted once and fills a "%s" slot from those strings
    lookups = [_repeated_strings(col) for col in data]
    row = ",".join("%.17g" if lookup is None else "%s" for lookup in lookups) + "\n"
    ncols, length = len(data), len(data[0])
    for lo in range(0, length, CSV_BLOCK_ROWS):
        rows = min(CSV_BLOCK_ROWS, length - lo)
        values = [None] * (rows * ncols)
        for k, (col, lookup) in enumerate(zip(data, lookups)):
            part = col[lo:lo + rows]
            if lookup is not None:
                keys, strings = lookup
                part = strings[np.searchsorted(keys, part.view(np.int64))]
            values[k::ncols] = part.tolist()
        stream.write(row * rows % tuple(values))


def read_csv(path) -> dict[str, np.ndarray]:
    """Read a versioned CSV back into named columns."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        magic = fh.readline().rstrip("\n")
        if magic != CSV_MAGIC:
            raise ValidationError(f"{path} is not a {CSV_MAGIC!r} file")
        names = fh.readline().rstrip("\n").split(",")
        try:
            with warnings.catch_warnings():
                # a header without rows is a valid, empty dataset
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data", UserWarning)
                data = np.loadtxt(fh, delimiter=",", dtype=float, ndmin=2)
        except ValueError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    if data.size == 0:
        data = np.empty((0, len(names)))
    if data.shape[1] != len(names):
        raise ValidationError(
            f"{path}: rows have {data.shape[1]} columns, header has {len(names)}")
    return {name: data[:, k] for k, name in enumerate(names)}


def write_json(path, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)
