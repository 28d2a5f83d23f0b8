"""Flat-file serialisation: versioned CSV, JSON reports, angle parsing.

A CSV holds every value as format_float writes it, 17 significant digits
("%.17g"), so that it reads back bit for bit. The writer encodes blocks of
CSV_BLOCK_ROWS rows as numpy arrays (see _encoder): digits from an exact
double-double product, laid out in fixed-width NUL-padded fields whose
padding one bytes.translate deletes. A column that repeats its values,
as a scan axis does, has each distinct value encoded once.

The reader is the writer's inverse (_decoder.decode): it streams the file
in fixed-size chunks, turns each field's digits into an integer M and a
power of ten q, and rounds M 10^q through the same double-double powers;
a field within about 1e-6 ulp of a tie, or with q outside [-290, 290],
goes to float(). A file with any field or line it does not take (nan,
inf, 1E5, +1, spaces, "\r", blank lines, malformed rows) is read whole by
np.loadtxt instead, so the values, and the files and errors accepted, are
exactly np.loadtxt's.

numpy is imported by the CSV functions alone: parse_angle and the JSON
writers serve the point commands, which never load it.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from pathlib import Path

from .errors import ValidationError

CSV_MAGIC = "# rfsq-csv v1"

#: rows encoded per write by dump_csv; the temporaries of a block stay
#: small enough to be reused rather than paged in afresh
CSV_BLOCK_ROWS = 16384

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
    import numpy as np

    names = list(columns)
    data = [np.asarray(columns[name], dtype=float).ravel() for name in names]
    if any(len(col) != len(data[0]) for col in data):
        raise ValidationError("all CSV columns must have equal length")
    return names, data


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct entries of a sorted array."""
    import numpy as np

    return np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))


def _repeated_strings(col: np.ndarray):
    """The sorted distinct bit patterns of a column and their encoded
    fields (see _encoder.encode), cut to the longest text, or None unless
    at most half the values of its first block, and of the whole column,
    are distinct (then encoding each block as it comes costs less than
    sorting the column)."""
    import numpy as np

    from ._encoder import FIELD, encode

    head = _distinct(np.sort(col[:CSV_BLOCK_ROWS].view(np.int64)))
    if 2 * len(head) > min(len(col), CSV_BLOCK_ROWS):
        return None
    keys = _distinct(np.sort(col.view(np.int64)))
    if 2 * len(keys) > len(col):
        return None
    fields = np.empty((len(keys), FIELD), np.uint8)
    for lo in range(0, len(keys), CSV_BLOCK_ROWS):
        fields[lo:lo + CSV_BLOCK_ROWS] = encode(
            keys[lo:lo + CSV_BLOCK_ROWS].view(float))
    width = FIELD - int(np.argmax(fields.any(axis=0)[::-1]))
    return keys, fields[:, :width]


def _write_table(stream, names: list, data: list) -> None:
    import numpy as np

    from ._encoder import FIELD, encode

    stream.write(CSV_MAGIC + "\n")
    stream.write(",".join(names) + "\n")
    # a column that repeats its values, as a scan axis does, has each
    # distinct bit pattern (so -0.0 apart from 0.0) encoded once
    lookups = [_repeated_strings(col) for col in data]
    widths = [FIELD if lookup is None else lookup[1].shape[1]
              for lookup in lookups]
    # a row: each field, then its separator; the NUL padding is deleted
    ends = np.cumsum(np.add(widths, 1))
    length = len(data[0])
    for lo in range(0, length, CSV_BLOCK_ROWS):
        rows = min(CSV_BLOCK_ROWS, length - lo)
        block = np.empty((rows, ends[-1]), np.uint8)
        block[:, ends - 1] = ord(",")
        block[:, -1] = ord("\n")
        for col, lookup, end, width in zip(data, lookups, ends, widths):
            part = col[lo:lo + rows]
            if lookup is None:
                fields = encode(part)
            else:
                keys, encoded = lookup
                at = np.searchsorted(keys, part.view(np.int64))
                fields = encoded.take(at, axis=0)
            block[:, end - 1 - width:end - 1] = fields
        stream.write(block.tobytes().translate(None, b"\0").decode("ascii"))


def read_csv(path) -> dict[str, np.ndarray]:
    """Read a versioned CSV back into named columns."""
    from ._decoder import decode

    path = Path(path)
    names, data = decode(path) or _load_csv(path)
    return {name: data[:, k] for k, name in enumerate(names)}


def _load_csv(path: Path) -> tuple[list, np.ndarray]:
    """The names and values of a CSV file, read by np.loadtxt."""
    import numpy as np

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
    return names, data


def write_json(path, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)
