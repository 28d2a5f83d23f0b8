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

A closed form that a scan evaluates block by block writes each operation
as ``put(fn, *args)``, with put from ``writer(work, *inputs)``. Without a
workspace that is operator.call, so floats and arrays get fn(*args); a
``Workspace`` writes each result that fills the block into a buffer it
owns, so the scan allocates nothing per block. ``true_divide`` is the
plain ``/``, for denominators that cannot be zero.
"""

from __future__ import annotations

import functools
import math
import operator
from contextlib import nullcontext
from sys import getrefcount


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
    add = staticmethod(operator.add)
    subtract = staticmethod(operator.sub)
    multiply = staticmethod(operator.mul)
    true_divide = staticmethod(operator.truediv)
    negative = staticmethod(operator.neg)
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



def writer(work, *inputs):
    """(put, last) for a closed form of ``inputs``: ``put(fn, *args)`` is
    fn(*args), written into a free buffer of ``work`` where the result
    fills its block, and ``last`` writes such a result into the block's
    output instead. Without a workspace, or with inputs that do not fill
    its block (then nothing derived from them can), both are
    operator.call.
    """
    if work is None or not work.fills(*inputs):
        return _NEW
    return work.put, work.output


_NEW = (operator.call, operator.call)


class Workspace:
    """Block-shaped buffers that one scan reuses for every block, and the
    previous block's per-axis results (see ``put``).

    ``put`` chooses a buffer for a result that fills the bound block from
    reference counts (``sys.getrefcount``), as numpy elides temporaries:
    an argument that only the call holds (the result of a nested ``put``)
    is overwritten in place, else a buffer that nothing outside the pool
    holds is taken. A value that a caller still holds, by a name or on its
    stack, counts higher, so it is never overwritten. Both counts are read
    once, by the code that ``_target`` runs, so they hold on any CPython.
    The closed forms hold at most FLOATS block values at once, which are
    one allocation; past twice that a result is a new array. ``output``
    writes into the block's slice of the scan's output, and ``flag`` is a
    bool buffer.
    """

    FLOATS = 6

    def __init__(self, nodes):
        import numpy as np

        self._np = np
        self._broadcast = np.broadcast
        self._bases = list(np.empty((self.FLOATS, nodes)))
        self._flag = np.empty(nodes, dtype=bool)
        self.shape = self.flag = self._out = None
        self._kept = {}
        # what _target reads for a buffer that only the pool holds, and for
        # one passed the way a nested put passes its result
        self._pool = [np.empty(0)]
        self._idle = self._free_count()
        count = self._argument_count  # bound, as the closed forms hold put
        self._temporary = count(self._pool[0])

    def block(self, out):
        """Bind the next block: its output slice ``out`` sets the shape."""
        if out.shape != self.shape:
            size = out.size
            self.shape = out.shape
            self._pool = [b[:size].reshape(out.shape) for b in self._bases]
            self._ids = set(map(id, self._pool))
            self.flag = self._flag[:size].reshape(out.shape)
        self._out = out
        self._last, self._kept = self._kept, {}

    def fills(self, *args):
        """Whether the arguments broadcast to the block's shape."""
        return self._broadcast(*args).shape == self.shape

    def put(self, fn, *args):
        """fn(*args), into a workspace buffer (numpy's out=) where the
        result fills the block. A result that depends on fewer axes is a
        new, smaller array, or the previous block's result where fn and
        the arguments are the same objects: axis2, the constants and what
        derives from them alone are then evaluated once per scan."""
        if self._broadcast(*args).shape == self.shape:
            return fn(*args, out=self._target(args))
        # what is kept holds its arguments, so an equal key is the same
        # objects
        key = (fn, *map(id, args))
        kept = self._last.get(key)
        if kept is None:
            kept = (args, fn(*args))
        self._kept[key] = kept
        return kept[1]

    def output(self, fn, *args):
        """fn(*args), into the block's output slice where it fills it."""
        if self._broadcast(*args).shape != self.shape:
            return fn(*args)
        return fn(*args, out=self._out)

    def _free_count(self):
        for buf in self._pool:
            return getrefcount(buf)

    def _argument_count(self, *args):
        for arg in args:
            return getrefcount(arg)

    def _target(self, args):
        for arg in args:
            if getrefcount(arg) == self._temporary and id(arg) in self._ids:
                return arg
        for buf in self._pool:
            if getrefcount(buf) == self._idle:
                return buf
        if len(self._pool) == 2 * self.FLOATS:
            return None
        base = self._np.empty(self._flag.size)
        self._bases.append(base)
        self._pool.append(base[:self._out.size].reshape(self.shape))
        self._ids.add(id(self._pool[-1]))
        return self._pool[-1]
