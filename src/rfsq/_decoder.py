"""The CSV reader: the inverse of _encoder, with np.loadtxt's bits.

decode reads the text that io.write_csv writes: each field, right-aligned
in FIELD bytes, gives a decimal mantissa M < 10^18 and an exponent q, and
M 10^q is rounded through the encoder's double-double powers of ten. A
file with any field it does not take goes back to io, whose np.loadtxt
reads it (see decode). io imports this module on its first CSV read; it
is apart from _encoder so that a process that only writes CSVs does not
compile it.
"""

from __future__ import annotations

import functools
import math
import mmap

import numpy as np

from . import io
from ._encoder import FIELD, _WORD, _pow10, _two_product


#: a field right-aligned in FIELD bytes: a stride-1 view of the read buffer
#: in this type gathers the frames of all fields in one step
_FRAME = np.dtype((np.void, FIELD))

#: ASCII "0" in every byte; XOR with it maps a digit to its value, and "."
#: to _POINT
_ZEROS = np.uint64(0x3030303030303030)
_POINT = ord(".") ^ ord("0")


def _keep_masks() -> np.ndarray:
    """Per length L, the words that keep the last L bytes of a frame."""
    keep = np.zeros((FIELD + 1, FIELD), np.uint8)
    for length in range(FIELD + 1):
        keep[length, FIELD - length:] = 255
    return keep.view(_WORD)


_KEEP = _keep_masks()

#: 10^f per number f of digits after the point, and, at index FIELD, a
#: power above every mantissa, for a field without a point
_SCALE = np.array([10 ** min(f, 19) for f in range(FIELD + 1)], _WORD)

#: multiplied by a word of 0/1 bytes, puts byte j's bit at bit 56 + j
_GATHER_BITS = np.uint64(0x0102040810204080)

#: the powers 10^q whose double-double products decode rounds: from 1e-290
#: the parts of 10^q are normal doubles, and M 10^q stays below 1e308
_Q_MIN, _Q_MAX = -290, 290

#: bytes read per step while counting the rows. Freeing a read this large
#: also raises glibc's mmap and trim thresholds, so the temporaries of a
#: decode step (about 12 times its size) stay on the heap from one step to
#: the next: counting into the decode buffer instead made a fresh process's
#: read of a 61 MB scan take 120,000 minor faults in place of 6,600 and
#: about 40% longer. The price is about 0.5 MiB of heap left resident.
_COUNT_BLOCK = 1 << 20

#: bytes of the file decoded per step. Measured on a 61 MB scan and the
#: 3 MB figure files: 96 KiB steps read as fast as 128 KiB ones and leave
#: less heap resident; 64 KiB steps took a fifth longer, and from 256 KiB
#: a process's first read paged the temporaries of a step (about 12 times
#: its size) in afresh on every step (130,000 minor faults)
DECODE_CHUNK = 96 << 10


def decode(path) -> tuple | None:
    """The names and (rows, columns) values of a CSV, with np.loadtxt's
    bits, or None for a file it does not take.

    It takes a file of the magic line, a header and rows of exactly one
    field per name, each "-"?, digits with at most one ".", and then
    perhaps a %g exponent "e", a sign and two or three digits, in at most
    FIELD bytes and 18 digits (the point counts as one); every line ends
    with one "\\n". For anything else (nan, inf, 1E5, +1, spaces, "\\r",
    blank lines, malformed rows) it returns None, and io reads the whole
    file with np.loadtxt, so acceptance, bits and errors are np.loadtxt's.
    """
    with open(path, "rb") as fh:
        if fh.readline() != (io.CSV_MAGIC + "\n").encode():
            return None
        header = fh.readline()
        if not header.endswith(b"\n") or b"\r" in header:
            return None
        try:
            names = header[:-1].decode("utf-8").split(",")
        except UnicodeDecodeError:
            return None
        # one row per line: count them, so that the values go straight
        # into an array of their size
        start = fh.tell()
        rows = sum(block.count(b"\n") for block in iter(
            functools.partial(fh.read, _COUNT_BLOCK), b""))
        fh.seek(start)
        data = _mapped((rows, len(names)))
        if _decode_body(fh, len(names), data.reshape(-1)) != data.size:
            return None
    return names, data


def _mapped(shape: tuple) -> np.ndarray:
    """An uninitialised float array in memory mapped for it alone. From
    malloc, a freed array of a few MiB raises glibc's thresholds so that
    later arrays of up to that size stay resident after they are freed:
    in one rfsqbench dataset-io run that added 23 MiB to the peak RSS."""
    size = math.prod(shape) * 8
    if not size:
        return np.empty(shape)
    return np.frombuffer(mmap.mmap(-1, size), float).reshape(shape)


def _decode_body(fh, ncols: int, out: np.ndarray) -> int | None:
    """Decode the rows of fh into out, DECODE_CHUNK bytes at a time; the
    number of values, or None."""
    buf = bytearray(FIELD + DECODE_CHUNK)
    view = memoryview(buf)
    text = np.frombuffer(buf, np.uint8)
    # frames[p] holds the FIELD bytes in front of text[FIELD + p]; the
    # first FIELD bytes of buf are a margin for the first fields
    frames = np.ndarray((len(buf) - FIELD + 1,), _FRAME, buffer=buf,
                        strides=(1,))
    row = np.array([ord(",")] * (ncols - 1) + [ord("\n")], np.uint8)
    count = kept = 0
    while got := fh.readinto(view[FIELD + kept:]):
        filled = FIELD + kept + got
        stop = buf.rfind(b"\n", FIELD, filled) + 1
        if not stop:
            if filled == len(buf):
                return None  # a row longer than a chunk
            kept += got
            continue
        fields = _decode_rows(text[FIELD:stop], frames, row, out[count:])
        if fields is None:
            return None
        count += fields
        # the partial row at the end moves to the front
        kept = filled - stop
        buf[FIELD:FIELD + kept] = buf[stop:filled]
    return None if kept else count


def _decode_rows(body, frames, row, out):
    """Decode whole rows of text into out; the number of values, or None."""
    # the field ends: "," and "\n", and every other byte below "-" but "+"
    # (an exponent's sign), which fails the row check
    ends = np.flatnonzero(body < ord("-"))
    kind = body[ends]
    plus = kind == ord("+")
    if plus.any():
        ends, kind = ends[~plus], kind[~plus]
    n = len(ends)
    if (n % len(row) or n > len(out)
            or not (kind.reshape(-1, len(row)) == row).all()):
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    negative = body[starts] == ord("-")
    length = ends - starts - negative
    if length.max() > FIELD:
        return None
    words = frames[ends].view(_WORD).reshape(n, 3)
    stripped = _strip_exponent(words, length)
    if stripped is None:
        return None
    found = _mantissas(words, length)
    if found is None:
        return None
    mant, after = found
    q = -after.astype(np.int64)
    rows, exponents = stripped
    q[rows] += exponents
    value = out[:n]
    hard = _round(mant, q, value)
    np.negative(value, out=value, where=negative)
    for i in np.flatnonzero(hard).tolist():
        value[i] = float(body[starts[i]:ends[i]].tobytes())
    return n


def _strip_exponent(words, length):
    """Shift a %g exponent ("e", a sign, two or three digits) out of the
    frames that end in one, and shorten their lengths. The fields that had
    one and their exponents, or None for a malformed exponent."""
    frame = words.view(np.uint8)
    two = frame[:, -4] == ord("e")
    three = frame[:, -5] == ord("e")
    rows = np.flatnonzero(two | three)
    # an "e" in front of the field (or its sign) is not its exponent
    rows = rows[length[rows] >= np.where(two[rows], 5, 6)]
    if not len(rows):
        return rows, 0
    width = np.where(two[rows], 4, 5)
    tail = frame[rows, -4:]
    sign = np.where(width == 4, tail[:, 1], tail[:, 0])
    digits = tail[:, 1:] ^ ord("0")
    digits[width == 4, 0] = 0
    if (digits > 9).any() or not ((sign == ord("+")) | (sign == ord("-"))).all():
        return None
    magnitude = digits.astype(np.int64) @ np.array([100, 10, 1])
    # the mantissa moves up by the exponent's bytes, across the three words
    up = (8 * width).astype(_WORD)
    down = np.uint64(64) - up
    w = words[rows]
    words[rows] = np.stack([w[:, 0] << up,
                            (w[:, 1] << up) | (w[:, 0] >> down),
                            (w[:, 2] << up) | (w[:, 1] >> down)], axis=1)
    length[rows] -= width
    return rows, np.where(sign == ord("-"), -magnitude, magnitude)


def _mantissas(words, length):
    """The integer M of each frame's last length bytes, digits with at most
    one point, and the number f of digits after the point; or None."""
    # digits to their values, the bytes in front of the field (and its
    # sign) to 0, and the point to 0, its position kept
    words ^= _ZEROS
    words &= _KEEP.take(length, axis=0)
    digits = words.view(np.uint8)
    marks = (digits == _POINT).view(_WORD)
    words ^= marks * np.uint64(_POINT)
    if digits.max() > 9:
        return None
    bits = (marks * _GATHER_BITS) >> np.uint64(56)
    bits = bits[:, 0] | (bits[:, 1] << np.uint64(8)) | (bits[:, 2] << np.uint64(16))
    has_point = bits != 0
    if (bits & (bits - np.uint64(1))).any() or (length <= has_point).any():
        return None  # two points, or no digit
    # f: the frame bytes above the point's byte j, where bits = 2^j
    after = np.where(has_point, FIELD - np.frexp(bits.astype(float))[1], 0)

    # 8 digits per word (the encoder's layout in reverse): pairs, then
    # groups of four and eight
    part = words >> np.uint64(8)
    words *= np.uint64(10)
    words += part
    part = (words >> np.uint64(16)) & np.uint64(0x000000FF000000FF)
    part *= np.uint64(1 + (10000 << 32))
    words &= np.uint64(0x000000FF000000FF)
    words *= np.uint64(100 + (1000000 << 32))
    words += part
    words >>= np.uint64(32)
    if (words[:, 0] >= 100).any():
        return None  # 19 digits or more
    # V counts the point as a digit 0: M = (V - V mod 10^f) / 10 + V mod 10^f
    mant = words[:, 0] * np.uint64(10 ** 16)
    mant += words[:, 1] * np.uint64(10 ** 8)
    mant += words[:, 2]
    low = mant % _SCALE.take(np.where(has_point, after, FIELD))
    mant -= low
    mant //= np.uint64(10)
    mant += low
    return mant, after


def _round(mant, q, out):
    """Write M 10^q, correctly rounded, to out; True where that needs
    float(): within about 1e-6 ulp of a tie, or q outside the range."""
    within = np.clip(q, _Q_MIN, _Q_MAX)
    # M as the exact sum m_hi + m_lo
    m_hi = mant.astype(float)
    m_lo = (mant - m_hi.astype(_WORD)).view(np.int64).astype(float)
    hi, lo, hh, hl = _pow10(within)
    prod, err = _two_product(m_hi, hi, lo, hh, hl)
    err += m_lo * hi
    # the sum rounds the same with the residual moved by 2^-72 prod either
    # way unless it is that near a tie
    nudge = prod * 2.0 ** -72
    np.add(prod, err - nudge, out=out)
    hard = out != prod + (err + nudge)
    hard |= q != within
    return hard
