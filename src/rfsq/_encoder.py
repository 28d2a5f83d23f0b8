"""format_float for a whole array: the CSV writer's encoder.

encode writes the bytes of io.format_float(v) for an array of values. For
|x| = d.ddd... 10^k it finds the 17-digit integer N = round(|x| 10^(16-k))
in [10^16, 10^17) from an exact product, and lays out its digits by %g's
rules: fixed notation for -4 <= k <= 16, d.ddde+XX otherwise, trailing
zeros dropped, and no bare trailing point. Each value takes a field of
FIELD bytes, NUL-padded; the writer deletes the NULs. A value it cannot
settle exactly goes to format_float (see encode). The double-double
powers of ten and the two-product serve the reader too (_decoder). io
imports this module on its first CSV write or read, so commands that do
neither do not load it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import io

#: bytes of one field: format_float's longest output, such as
#: "-2.2250738585072014e-308", has 24 characters
FIELD = 24

#: the encoder builds a field as three little-endian 8-byte words, so that
#: a shift by 8 bits moves the text by one byte
_WORD = np.dtype("<u8")

#: |x| the encoder handles; outside, 10^(16-k) or its split leaves the
#: normal range of doubles
_TINY, _HUGE = 1e-288, 1e288

#: table rows for the decimal exponents k of the encoder's range
_K_OFFSET, _K_ROWS = 300, 600

#: table rows for the powers 10^p, p from -300 to 305, that encoder and
#: decoder use
_P_OFFSET, _P_ROWS = 300, 606

#: Dekker's splitter 2^27 + 1: a double into two halves of 26 bits
_SPLITTER = 134217729.0


def _pow10_parts(p: int) -> tuple:
    """10^p as the double-double hi + lo (hi correctly rounded, lo the
    rounded residual), and hi split into 26-bit halves hh + hl. Python's
    int true division rounds correctly and float.as_integer_ratio is
    exact, so the residual is exact before its one rounding."""
    if p >= 0:
        exact = 10 ** p
        hi = float(exact)
        lo = float(exact - int(hi))
    else:
        scale = 10 ** -p
        hi = 1 / scale
        num, den = hi.as_integer_ratio()
        lo = (den - num * scale) / (den * scale)
    mant, exp = math.frexp(hi)
    hh = math.ldexp(math.floor(mant * 2 ** 26), exp - 26)
    return hi, lo, hh, hi - hh


#: a cache of _pow10_parts(p) as columns hi, lo, hh, hl, filled as the
#: exponents p come up (NaN until then)
_POW10 = np.full((4, _P_ROWS), np.nan)


def _pow10(p: np.ndarray) -> tuple:
    """Arrays hi, lo, hh, hl of _pow10_parts(p) for each exponent p."""
    row = p + _P_OFFSET
    missing = np.isnan(_POW10[0].take(row))
    if missing.any():
        for r in np.flatnonzero(np.bincount(row[missing])).tolist():
            _POW10[:, r] = _pow10_parts(r - _P_OFFSET)
    return tuple(part.take(row) for part in _POW10)


def _two_product(x: np.ndarray, hi, lo, hh, hl) -> tuple:
    """x times the double-double hi + lo as the unevaluated sum prod + err:
    Dekker's exact product of x and hi (hi split into hh + hl), plus x lo."""
    prod = x * hi
    xh = _SPLITTER * x
    xh -= xh - x
    xl = x - xh
    err = (((xh * hh - prod) + xh * hl + xl * hh) + xl * hl) + x * lo
    return prod, err


def _scaled(x: np.ndarray, k: np.ndarray) -> tuple:
    """Integer part and fraction of x 10^(16-k), for x in [_TINY, _HUGE].

    The error of the two-product's sum is about 1e-15 for a product below
    10^17."""
    prod, err = _two_product(x, *_pow10(16 - k))
    whole = np.floor(prod)
    frac = (prod - whole) + err
    carry = np.floor(frac)
    return whole.astype(np.int64) + carry.astype(np.int64), frac - carry


#: classes of layout: 0..20 fixed notation with k = class - 4, 21
#: scientific; a form is a class, plus _CLASSES for a negative value
_CLASSES = 22


@functools.lru_cache(maxsize=None)
def _layout_tables() -> tuple:
    """Lookup tables of the encoder, built on first use."""
    n = np.arange(10_000)
    # the four digits of n as ASCII in the low bytes of a word, and the
    # number of trailing zeros among them (4 for n = 0)
    four = np.zeros((10_000, 8), np.uint8)
    four[:, :4] = np.stack((n // 1000, n // 100 % 10, n // 10 % 10, n % 10),
                           axis=1) + ord("0")
    four = four.view(_WORD)[:, 0]
    zeros = np.select([n % 10 != 0, n % 100 != 0, n % 1000 != 0, n != 0],
                      [0, 1, 2, 3], 4)

    def words(table):
        """Rows of FIELD bytes as three arrays, one per word."""
        w = np.ascontiguousarray(table, dtype=np.uint8).view(_WORD)
        return tuple(np.ascontiguousarray(w[:, i]) for i in range(3))

    # per form: the digit j the point follows (17: none), and the bytes m
    # of sign and "0.000" in front of the digits
    cls = np.tile(np.arange(_CLASSES), 2)
    neg = np.repeat([0, 1], _CLASSES)
    fixed_k = cls - 4
    j = np.where(cls == 21, 0, np.where(fixed_k >= 0, fixed_k, 17))
    m = neg + np.where((cls < 21) & (fixed_k < 0), 1 - fixed_k, 0)
    # digits at bytes 0..16: a point after digit j keeps bytes 0..j, puts
    # "." at byte j + 1 and the digits shifted by one byte after it
    pos = np.arange(FIELD)
    jj = j[:, None]
    low = words(np.where(pos <= jj, 255, 0))
    high = words(np.where(pos >= jj + 2, 255, 0))
    point = words(np.where(pos == jj + 1, ord("."), 0))
    # the text is then shifted right by m bytes, behind the sign and "0."
    lead = np.where(pos < neg[:, None], ord("-"),
                    np.where(pos == neg[:, None] + 1, ord("."), ord("0")))
    # per form and count s of significant digits: keep the m lead bytes
    # and the digits and point up to the last significant digit
    s = np.arange(18)
    text = np.where(jj == 17, s, np.where(s > jj + 1, s + 1, jj + 1))
    keep_len = (m[:, None] + text).ravel()
    keep = words(np.where(pos < keep_len[:, None], 255, 0))
    prefix = words(np.repeat(np.where(pos < m[:, None], lead, 0), len(s),
                             axis=0))
    # "e+XX" or "e-XXX" behind 18 bytes of a positive value's text, for
    # each k of scientific notation
    k = np.arange(_K_ROWS) - _K_OFFSET
    mag = np.abs(k)
    exp = np.zeros((_K_ROWS, FIELD), np.uint8)
    exp[:, 18] = ord("e")
    exp[:, 19] = np.where(k < 0, ord("-"), ord("+"))
    exp[:, 20:23] = np.stack((mag // 100, mag // 10 % 10, mag % 10),
                             axis=1) + ord("0")
    two = mag < 100
    exp[two, 20:22] = exp[two, 21:23]
    exp[two, 22] = 0
    exp[(k >= -4) & (k <= 16)] = 0
    return (four, zeros, low, high, point, (8 * m).astype(_WORD), keep,
            prefix, words(exp)[2])


def encode(values: np.ndarray) -> np.ndarray:
    """The bytes of io.format_float(v) for each value, as (n, FIELD) uint8
    rows, left-aligned and padded with NUL bytes.

    Non-finite values, |x| outside [_TINY, _HUGE], and values whose 17th
    digit rounds within 1e-6 of a tie (an exact tie, or too close to call)
    go to io.format_float one at a time.
    """
    four, zeros, low, high, point, shift, keep, prefix, exp = _layout_tables()
    v = np.asarray(values, dtype=float)
    x = np.abs(v)
    fast = (x >= _TINY) & (x <= _HUGE)
    x[~fast] = 1.0
    # k = floor(log10 x), off by one at most near a power of ten
    k = np.floor(np.log10(x)).astype(np.int64)
    digits, frac = _scaled(x, k)
    off = (digits < 10 ** 16) | (digits >= 10 ** 17)
    if off.any():
        k[off] += np.where(digits[off] >= 10 ** 17, 1, -1)
        digits[off], frac[off] = _scaled(x[off], k[off])
    # the 17th digit rounds half up, so a tie or a near-tie is format_float's
    slow = ~fast | (np.abs(frac - 0.5) < 1e-6)
    digits += frac > 0.5
    # rounding up to 10^17 is 10^16 at the next power of ten
    over = digits == 10 ** 17
    digits[over] = 10 ** 16
    k += over

    # N = d 10^16 + (a b) 10^8 + (c e), with four-digit groups a, b, c, e
    first = digits // 10 ** 16
    rest = digits - first * 10 ** 16
    upper = rest // 10 ** 8
    lower = rest - upper * 10 ** 8
    a = upper // 10 ** 4
    b = upper - a * 10 ** 4
    c = lower // 10 ** 4
    e = lower - c * 10 ** 4
    trailing = np.where(e, zeros[e], 4 + np.where(
        c, zeros[c], 4 + np.where(b, zeros[b], 4 + zeros[a])))
    # the 17 digit characters in bytes 0..16 of three words
    ab = four[a] | (four[b] << 32)
    ce = four[c] | (four[e] << 32)
    d0 = (first.astype(_WORD) + ord("0")) | (ab << 8)
    d1 = (ab >> 56) | (ce << 8)
    d2 = ce >> 56
    # the layout: fixed or scientific notation, and the sign
    neg = np.signbit(v)
    form = np.where((k >= -4) & (k <= 16), k + 4, 21) + _CLASSES * neg
    t0 = (d0 & low[0][form]) | ((d0 << 8) & high[0][form]) | point[0][form]
    t1 = ((d1 & low[1][form]) | (((d1 << 8) | (d0 >> 56)) & high[1][form])
          | point[1][form])
    t2 = ((d2 & low[2][form]) | (((d2 << 8) | (d1 >> 56)) & high[2][form])
          | point[2][form])
    # shift the text right by m bytes, m < 8 (two steps: a shift by 64
    # is not defined)
    up = shift[form]
    down = np.uint64(63) - up
    t2 = (t2 << up) | ((t1 >> np.uint64(1)) >> down)
    t1 = (t1 << up) | ((t0 >> np.uint64(1)) >> down)
    t0 <<= up
    # drop the trailing zeros (and a bare point), put the sign and "0." in
    # front, and the exponent 18 bytes (19 with a sign) behind
    at = form * 18 + (17 - trailing)
    out = np.empty((len(v), 3), _WORD)
    out[:, 0] = (t0 & keep[0][at]) | prefix[0][at]
    out[:, 1] = (t1 & keep[1][at]) | prefix[1][at]
    out[:, 2] = ((t2 & keep[2][at]) | prefix[2][at]
                 | (exp[k + _K_OFFSET] << (neg * 8).astype(_WORD)))
    out = out.view(np.uint8)
    for i in np.flatnonzero(slow).tolist():
        text = io.format_float(v[i]).encode("ascii")
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out
