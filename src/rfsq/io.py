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
    names = list(columns)
    data = [np.asarray(columns[name], dtype=float).ravel() for name in names]
    length = len(data[0])
    if any(len(col) != length for col in data):
        raise ValidationError("all CSV columns must have equal length")
    stream.write(CSV_MAGIC + "\n")
    stream.write(",".join(names) + "\n")
    # "%.17g" formats a float exactly as format_float does; one % call
    # formats a whole block of rows
    row = ",".join(["%.17g"] * len(data)) + "\n"
    for lo in range(0, length, CSV_BLOCK_ROWS):
        block = np.column_stack([col[lo:lo + CSV_BLOCK_ROWS] for col in data])
        stream.write(row * len(block) % tuple(block.ravel().tolist()))


def write_csv(path, columns: dict[str, np.ndarray]) -> Path:
    """Write named columns to a versioned CSV file (see dump_csv)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        dump_csv(fh, columns)
    return path


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
