"""Array namespaces for the closed forms: numpy for arrays, math for floats.

Each closed form is written once over a namespace ``xp``. ``carrier``
picks numpy when any input is not a plain float or int, and otherwise
SCALAR, a shim over math that gives numpy's IEEE result where Python
floats raise on valid inputs: ldexp overflows to +-inf, and a division
by zero (``divide``, where a denominator can be zero) gives +-inf or
NaN. The shared source writes ``x * x``, never ``x ** 2``, which raises
on overflow for Python floats. The shim's sin, cos, sqrt and copysign
are libm's, and numpy's give the same bits; numpy's own arccos, arctan2
and power do not always, so the closed forms take those from ``libm`` on
either namespace. tests/test_properties.py holds every shared closed form to
that. So a one-point command gets the array path's numbers without
importing numpy.
"""

from __future__ import annotations

import functools
import math
from contextlib import nullcontext


def carrier(*values):
    """numpy if any value is not a plain float or int, else SCALAR."""
    for value in values:
        if type(value) is not float and type(value) is not int:
            import numpy

            return numpy
    return SCALAR


def libm(xp, fn, nin=1):
    """The math function ``fn`` of ``nin`` arguments on the namespace xp.

    numpy's arccos and arctan2 differ from libm's in the last place on a
    few percent of inputs (and its cbrt on half), and its power may take a
    vectorised path of its own, so arrays call libm too, one element at a
    time.
    """
    return fn if xp is SCALAR else _elementwise(fn, nin)


@functools.cache
def _elementwise(fn, nin):
    import numpy as np

    ufunc = np.frompyfunc(fn, nin, 1)
    return lambda *args: np.asarray(ufunc(*args), dtype=float)


class Scalar:
    """The numpy functions the closed forms use, for Python floats."""

    inf = math.inf
    sin = staticmethod(math.sin)
    cos = staticmethod(math.cos)
    sqrt = staticmethod(math.sqrt)
    copysign = staticmethod(math.copysign)
    abs = staticmethod(abs)
    frexp = staticmethod(math.frexp)
    isnan = staticmethod(math.isnan)
    isfinite = staticmethod(math.isfinite)

    @staticmethod
    def where(condition, x, y):
        return x if condition else y

    @staticmethod
    def any(condition):
        return bool(condition)

    @staticmethod
    def clip(x, lo, hi):
        # numpy's order: NaN stays NaN, and a bound equal to x returns x
        return min(max(x, lo), hi)

    @staticmethod
    def ldexp(x, exp):
        try:
            return math.ldexp(x, exp)
        except OverflowError:
            return math.copysign(math.inf, x)

    @staticmethod
    def divide(x, y):
        try:
            return x / y
        except ZeroDivisionError:
            if x == 0.0 or x != x:
                return math.nan
            return math.copysign(math.inf, x) * math.copysign(1.0, y)

    @staticmethod
    def errstate(**_):
        return nullcontext()


SCALAR = Scalar()
