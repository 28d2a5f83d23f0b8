"""Grid scans of squeezing metrics over one or two parameter axes.

A scan evaluates one metric of the steady state on a uniform grid, axis1
outer and axis2 inner (row-major), through the closed-form kernel, in
blocks of at most ``BLOCK_NODES`` = 2^15 nodes. A scan of more than one
block makes one ``Replay``, which records the kernel and the metric once
and replays them into buffers planned by liveness: six float64 ones (and
a bool one where a guard varies) on every scan of the benchmark's
cycles. So a block allocates nothing, and a scan's speed does not rest
on glibc keeping freed temporaries on the heap: under a fixed 128 KiB
``mmap_threshold``, blocks evaluated without the replay took 2.8-3.1
times as long as replayed ones. A scan of one block (every 1-D scan
among them) calls the forms directly: recording and planning some 45
ufunc calls in Python cost more than a single pass saves (a warm 64 x 64
drive scan took 370 us replayed and 100 us direct).

Six buffers of 2^15 nodes are 1.5 MiB, within one core's 2 MiB L2 cache
on the machine measured. On warm 2048 x 2048 scans, with the same six
buffers chosen before the replay, 2^13 and 2^14 were slower, 2^16 was
6-8% faster on drive grids only, with twice the buffers, and 2^17 won on
neither. Nodes are independent, so results do not depend on the blocks.

numpy's ufunc iterator copies each operand that broadcasts across a
block's rows (a column of axis1 against a row of axis2) through buffers
of ``np.getbufsize()`` elements, 8192 by default, on every call. So a
2-D scan whose rows hold ``ROW_BUFFER_NODES`` = 64 nodes or more sets
the buffer to the row length for its duration, rounded down to a
multiple of 16, the only sizes numpy takes (``np.setbufsize(8)``
raises). On a 16 x 2048 block, a column x row multiply into ``out``
went from 34-35 us to 8-10 us, and block x column from 28-29 to 9-12 us
(block x block, which needs no buffer, takes 16-18 us either way).
Narrower rows, and 1-D scans, keep the caller's size: on 4096-row
grids a row-sized buffer made rows of 16 30-60% slower and rows of 32
7-23% slower, was within 5% at 48, and won from 64 on (2-10% at 64,
18-20% at 128). The scan restores the size in ``finally``: leaving
``errstate`` restores it too on numpy 2, but numpy 1.x saves only the
error modes there (measured on numpy 2.4.6 only). The buffer changes no
bits: elementwise ufuncs compute each node from the same operands.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .bloch import s_opt_xyz, sigma_xyz, steady_state_grid
from .errors import ValidationError
from .metrics import variance_theta_xyz
from .params import AtomFieldParams

#: parameter names that may serve as a scan axis
AXIS_NAMES = ("omega", "delta", "phi", "n_sq", "theta")

#: metrics computable at a grid node
METRICS = ("s_theta", "s_x", "s_y", "s_pi4", "s_opt", "sigma", "sz")

#: per-axis node cap (desk scale)
MAX_AXIS_COUNT = 4096

#: nodes evaluated per kernel call (see the module docstring)
BLOCK_NODES = 1 << 15

#: 2-D scans whose rows hold this many nodes or more run with numpy's ufunc
#: buffer at the row length (see the module docstring)
ROW_BUFFER_NODES = 64

_FIXED_THETAS = {"s_x": 0.0, "s_y": math.pi / 2.0, "s_pi4": math.pi / 4.0}


@dataclass(frozen=True)
class AxisSpec:
    """Uniformly spaced inclusive axis over one parameter."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValidationError(
                f"unknown axis {self.name!r}; expected one of {AXIS_NAMES}"
            )
        if not (np.isfinite(self.start) and np.isfinite(self.stop)):
            raise ValidationError(f"axis {self.name} bounds must be finite")
        if self.start >= self.stop:
            raise ValidationError(
                f"axis {self.name} needs start < stop, got [{self.start}, {self.stop}]"
            )
        if not 2 <= self.count <= MAX_AXIS_COUNT:
            raise ValidationError(
                f"axis {self.name} count must lie in [2, {MAX_AXIS_COUNT}], "
                f"got {self.count}"
            )
        if self.name in ("omega", "n_sq") and self.start < 0.0:
            raise ValidationError(f"axis {self.name} must stay non-negative")

    @property
    def values(self) -> np.ndarray:
        if math.isfinite(self.stop - self.start):
            return np.linspace(self.start, self.stop, self.count)
        # the span overflows: halved, both ends and the step are exact
        return 2.0 * np.linspace(self.start / 2.0, self.stop / 2.0, self.count)


@dataclass(frozen=True)
class ScanSpec:
    """What to scan: one or two axes, the remaining fixed parameters, a metric."""

    axis1: AxisSpec
    axis2: AxisSpec | None = None
    fixed: AtomFieldParams = field(default_factory=AtomFieldParams)
    metric: str = "s_opt"
    theta: float = 0.0

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValidationError(
                f"unknown metric {self.metric!r}; expected one of {METRICS}"
            )
        names = [self.axis1.name] + ([self.axis2.name] if self.axis2 else [])
        if len(set(names)) != len(names):
            raise ValidationError(f"axis names must be distinct, got {names}")
        if "theta" in names and self.metric != "s_theta":
            raise ValidationError("a theta axis requires the s_theta metric")

    @property
    def axes(self) -> list[AxisSpec]:
        return [self.axis1] + ([self.axis2] if self.axis2 else [])

    @property
    def shape(self) -> tuple[int, ...]:
        if self.axis2 is None:
            return (self.axis1.count,)
        return (self.axis1.count, self.axis2.count)


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Metric values on the grid (axis1 outer, axis2 inner) plus metadata.

    Nodes that failed to evaluate hold 0.0 in ``values``; NaN is never
    emitted. ``errors`` records them as (first, last, message), one entry
    per row-major run of consecutive failed nodes, with first and last the
    index tuples of its ends.
    """

    spec: ScanSpec
    values: np.ndarray
    errors: list = field(default_factory=list)

    def columns(self) -> dict[str, np.ndarray]:
        """Long-form columns: one row per node, axis1 outer, metric last."""
        spec = self.spec
        if spec.axis2 is None:
            return {spec.axis1.name: spec.axis1.values, spec.metric: self.values}
        return {
            spec.axis1.name: np.repeat(spec.axis1.values, spec.axis2.count),
            spec.axis2.name: np.tile(spec.axis2.values, spec.axis1.count),
            spec.metric: self.values.ravel(),
        }

    def failed_nodes(self) -> int:
        """How many nodes failed to evaluate."""
        shape = self.values.shape
        return sum(int(np.ravel_multi_index(last, shape))
                   - int(np.ravel_multi_index(first, shape)) + 1
                   for first, last, _ in self.errors)

    def metadata(self) -> dict:
        """Sidecar fields that make the scan reproducible (see scan_metadata)."""
        return scan_metadata(self.spec.metric, self.spec.axes, self.spec.fixed,
                             self.errors)


def scan_metadata(metric, axes, fixed: AtomFieldParams, errors) -> dict:
    """Artifact version, metric, axes, fixed inputs and failed-node runs."""
    return {
        "version": __version__,
        "metric": metric,
        "axes": [
            {"name": a.name, "start": a.start, "stop": a.stop, "count": a.count}
            for a in axes
        ],
        "fixed": fixed.inputs(),
        "errors": [list(e) for e in errors],
    }


class Replay:
    """A scan's closed forms, each recorded once and replayed block by block.

    ``replay(form, *args, out=None)`` is form(*args) on one block of the
    given shape; an argument varies when it is an array with the block's
    dimensions. The first call of a form records it on a one-row slice of
    the varying arguments: what depends on none of them is evaluated then,
    once per scan, and the rest is a straight line of ufunc calls. Each
    varying value has a buffer from its step to its last use, or to the
    end if returned (the value returned with ``out`` is written there), and
    the lines share the buffers no returned value holds. Each call replays
    the line with ``out=``. ``xp.any`` is a guard, checked where the form
    calls it: a block where one holds is evaluated directly, as form(*args),
    like a form none of whose arguments varies (once). A scan calls each
    form once per block, in one order, with the same fixed arguments; what
    a call returns is valid until the next block.
    """

    def __init__(self, shape):
        self.shape = shape
        self.buffers = {}  # dtype -> arrays of the block's size
        self.held = set()  # (dtype, index) of the buffers returned values hold
        self._lines = {}

    def __call__(self, form, *args, out=None):
        line = self._lines.get(form)
        if line is None:
            line = self._lines[form] = _Line(self, form, args, out)
        return line.run(args, out)


class _Line:
    """One form of a Replay: its record, buffer plan and bound calls."""

    def __init__(self, replay, form, args, out):
        self.form, self.buffers, self.rows = form, replay.buffers, None
        ndim = len(replay.shape)
        self.varying = [k for k, a in enumerate(args)
                        if isinstance(a, np.ndarray) and a.ndim == ndim]
        self.fixed = [(k, a) for k, a in enumerate(args) if k not in self.varying]
        if not self.varying:
            self.result = form(*args)
            return
        self.steps = []  # (ufunc, operands, result), or (None, (condition,), None)
        result = form(*(_Value(self, a[:1], arg=k) if k in self.varying
                        else _Value(self, a) if isinstance(a, (np.ndarray, np.generic))
                        else a for k, a in enumerate(args)))
        self.tuple = isinstance(result, tuple)
        self.outputs = result if self.tuple else (result,)
        into = (out is not None and isinstance(result, _Value) and result.varies
                and result.arg is None and result.value.dtype == out.dtype
                and result.value.shape[1:] == out.shape[1:])
        self._plan(replay, result if into else None)

    def call(self, ufunc, operands):
        """Record a ufunc call, or evaluate it where nothing in it varies."""
        value = ufunc(*(x.value if isinstance(x, _Value) else x for x in operands))
        if not any(isinstance(x, _Value) and x.varies for x in operands):
            return _Value(self, value)
        result = _Value(self, value, varies=True)
        self.steps.append((ufunc, operands, result))
        return result

    def guard(self, condition):
        """``xp.any(condition)``: False, so that the common path is recorded."""
        self.steps.append((None, (condition,), None))
        return False

    def _plan(self, replay, target):
        """A buffer (dtype, index) for each varying step result but target."""
        last = {id(x): i for i, (_, operands, _) in enumerate(self.steps)
                for x in operands}
        last.update((id(x), len(self.steps)) for x in self.outputs)
        buffers, held = replay.buffers, replay.held
        count = {dtype: len(b) for dtype, b in buffers.items()}
        free = {dtype: [(dtype, i) for i in range(n) if (dtype, i) not in held]
                for dtype, n in count.items()}
        self.slots = {}
        for i, (_, operands, result) in enumerate(self.steps):
            if result is not None and result is not target:
                dtype = result.value.dtype
                pool = free.setdefault(dtype, [])
                if not pool:
                    count[dtype] = count.get(dtype, 0) + 1
                    pool.append((dtype, count[dtype] - 1))
                self.slots[id(result)] = pool.pop()
            for key in {id(x) for x in (*operands, result)}:
                slot = self.slots.get(key)
                if slot and last.get(key, i) == i:
                    free[slot[0]].append(slot)
        size = math.prod(replay.shape)
        for dtype, n in count.items():  # one allocation per line and dtype
            have = buffers.setdefault(dtype, [])
            have.extend(np.empty((n - len(have), size), dtype))
        held.update(self.slots[id(x)] for x in self.outputs if id(x) in self.slots)

    def _bind(self, rows):
        """The calls for ``rows`` rows, and the places each call fills."""
        self.rows, views = rows, {}
        self.patches = []  # (list, position, argument index or None for out)
        for _, _, result in self.steps:
            if id(result) in self.slots:
                dtype, i = self.slots[id(result)]
                shape = (rows,) + result.value.shape[1:]
                views[id(result)] = self.buffers[dtype][i][:math.prod(shape)].reshape(shape)

        def fill(values):
            filled = []
            for x in values:
                if isinstance(x, _Value):
                    if x.varies and id(x) not in views:  # an argument, or out
                        self.patches.append((filled, len(filled), x.arg))
                    x = views.get(id(x), x.value)
                filled.append(x)
            return filled

        self.calls = [(fn, fill(operands + ((result,) if fn else ())))
                      for fn, operands, result in self.steps]
        self.returns = fill(self.outputs)

    def run(self, args, out):
        if not self.varying:
            return self.result
        if any(args[k] is not a for k, a in self.fixed):
            raise ValueError(f"a fixed argument of {self.form.__name__} changed")
        rows = len(args[self.varying[0]])
        if rows != self.rows:
            self._bind(rows)
        for filled, pos, k in self.patches:
            filled[pos] = out if k is None else args[k]
        for fn, filled in self.calls:
            if fn is not None:
                fn(*filled)
            elif filled[0].any():
                return self.form(*args)
        return tuple(self.returns) if self.tuple else self.returns[0]


class _Value(np.lib.mixins.NDArrayOperatorsMixin):
    """A value of a form being recorded: a constant, or a varying value as
    numpy gives it on the one-row slice (``arg``: the argument it is). A
    ufunc call records itself, ``np.any`` is a guard, and any other numpy
    function or a truth test raises TypeError: nothing escapes the record.
    """

    def __init__(self, line, value, varies=False, arg=None):
        # weak, so that the line and its record are not a reference cycle
        self.line, self.value, self.arg = weakref.proxy(line), value, arg
        self.varies = varies or arg is not None

    def __array_ufunc__(self, ufunc, method, *operands, **kwargs):
        if method != "__call__" or kwargs or ufunc.nout != 1:
            return NotImplemented
        return self.line.call(ufunc, operands)

    def __array_function__(self, func, types, args, kwargs):
        if func is np.any and len(args) == 1 and not kwargs:
            return self.line.guard(args[0])
        return NotImplemented

    def __bool__(self):
        raise TypeError("a recorded value has no truth value; branch on xp.any")


def _metric_from_states(metric, sx, sy, sz, theta, work, out):
    if metric == "sz":
        return sz
    if metric in ("sigma", "s_opt"):
        form = sigma_xyz if metric == "sigma" else s_opt_xyz
        return work(form, sx, sy, sz, out=out)
    theta = _FIXED_THETAS.get(metric, theta)
    return work(variance_theta_xyz, sx, sy, sz, theta, out=out)


def _direct(form, *args, out=None):
    """form(*args), for a scan of one block: a Replay would record its line
    for a single replay."""
    return form(*args)


def scan(spec: ScanSpec) -> ScanResult:
    """Evaluate the metric at every grid node of the spec.

    Axis1 enters the kernel as a column and axis2 as a row, so the grid is
    formed by broadcasting. A scan of more than one block computes what
    depends on axis2 and the constants alone once (see Replay), and the
    metric's last operation writes into the output; a scan of one block
    calls the forms directly. The finiteness test writes into a bool
    buffer. Rows of ``ROW_BUFFER_NODES`` or more set numpy's ufunc buffer
    to the row length until the scan returns or raises.
    """
    inputs = spec.fixed.inputs()
    # start and stop are the extremes of each axis, so checking the
    # parameter invariants there covers every node
    for axis in spec.axes:
        if axis.name != "theta":
            AtomFieldParams(**{**inputs, axis.name: axis.start})
            AtomFieldParams(**{**inputs, axis.name: axis.stop})

    # 0-d arrays made once, so that each block passes the same constants
    node = {**{k: np.asarray(v, dtype=float) for k, v in inputs.items()},
            "theta": spec.theta}
    ax1 = spec.axis1.values
    values = np.empty(spec.shape)
    inner = 1
    if spec.axis2 is not None:
        node[spec.axis2.name] = spec.axis2.values
        inner = spec.axis2.count
    rows = max(BLOCK_NODES // inner, 1)
    flag = np.empty(values[:rows].shape, dtype=bool)
    work = Replay(flag.shape) if rows < spec.axis1.count else _direct
    bad = []
    # numpy takes only multiples of 16; restored by hand, since leaving
    # errstate restores the size on numpy 2 but not on 1.x
    old = np.setbufsize(inner // 16 * 16 if inner >= ROW_BUFFER_NODES
                        else np.getbufsize())
    try:
        with np.errstate(all="ignore"):
            for lo in range(0, spec.axis1.count, rows):
                block = ax1[lo:lo + rows]
                node[spec.axis1.name] = block if spec.axis2 is None else block[:, None]
                out = values[lo:lo + rows]
                value = _metric_from_states(
                    spec.metric,
                    *steady_state_grid(*(node[k] for k in inputs), work=work),
                    node["theta"], work, out)
                if value is not out:  # sz, direct, or constant over the block
                    out[...] = value
                finite = np.isfinite(out, out=flag[:len(out)])
                if not finite.all():
                    lost = np.flatnonzero(~finite)
                    out.flat[lost] = 0.0
                    bad.append(lost + lo * inner)
    finally:
        np.setbufsize(old)

    bad = np.concatenate(bad) if bad else np.empty(0, dtype=np.intp)
    return ScanResult(spec=spec, values=values, errors=_runs(bad, spec.shape))


def _runs(flat, shape):
    """(first, last, message) per run of consecutive flat indices."""
    if not flat.size:
        return []
    cut = np.flatnonzero(np.diff(flat) > 1)
    firsts = np.unravel_index(flat[np.r_[0, cut + 1]], shape)
    lasts = np.unravel_index(flat[np.r_[cut, -1]], shape)
    return [(tuple(map(int, first)), tuple(map(int, last)),
             "steady state failed to evaluate")
            for first, last in zip(zip(*firsts), zip(*lasts))]
