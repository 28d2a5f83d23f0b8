"""Array namespaces for the closed forms: numpy for arrays, math for floats.

Each closed form is written once over a namespace ``xp``. ``carrier``
picks numpy when any input is not a plain float or int, and otherwise
SCALAR, a shim over math that gives numpy's IEEE result where Python
floats raise on valid inputs: ldexp overflows to +-inf, and a division
by zero (``divide``, where a denominator can be zero) gives +-inf or
NaN. The shared source writes ``x * x``, never ``x ** 2``, which raises
on overflow for Python floats. The shim's sin, cos and sqrt are libm's;
numpy's give the same bits, and tests/test_properties.py holds every
shared closed form to that. So a one-point command gets the array
path's numbers without importing numpy.
"""

from __future__ import annotations

import math
from contextlib import nullcontext


def carrier(*values):
    """numpy if any value is not a plain float or int, else SCALAR."""
    for value in values:
        if type(value) is not float and type(value) is not int:
            import numpy

            return numpy
    return SCALAR


class Scalar:
    """The numpy functions the closed forms use, for Python floats."""

    sin = staticmethod(math.sin)
    cos = staticmethod(math.cos)
    sqrt = staticmethod(math.sqrt)
    abs = staticmethod(abs)
    frexp = staticmethod(math.frexp)

    @staticmethod
    def where(condition, x, y):
        return x if condition else y

    @staticmethod
    def any(condition):
        return bool(condition)

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
