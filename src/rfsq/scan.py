"""Grid scans of squeezing metrics over one or two parameter axes.

A scan evaluates one metric of the steady state on a uniform grid, axis1
outer and axis2 inner (row-major), through the closed-form kernel.
The kernel sees the grid in blocks of at most ``BLOCK_NODES`` = 2^15
nodes, so each float64 temporary of the kernel and the metric is 256 KiB.
Once the first one is freed, glibc's dynamic mmap threshold serves them
from the heap, without fresh pages, and they fit in a core's L2 cache.
Blocks of 2^20 nodes (8 MiB temporaries) made a warm 2048 x 2048 scan
1.3-1.6 times slower and doubled its peak memory. Nodes are independent, so
results are deterministic regardless of how the grid is split into
blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .bloch import BlochState, steady_state_grid
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


def _metric_from_states(metric, sx, sy, sz, theta):
    if metric == "sigma":
        return BlochState(sx, sy, sz).sigma
    if metric == "sz":
        return sz
    if metric == "s_opt":
        return BlochState(sx, sy, sz).s_opt
    if metric == "s_theta":
        return variance_theta_xyz(sx, sy, sz, theta)
    return variance_theta_xyz(sx, sy, sz, _FIXED_THETAS[metric])


def scan(spec: ScanSpec) -> ScanResult:
    """Evaluate the metric at every grid node of the spec.

    Axis1 enters the kernel as a column and axis2 as a row, so the grid is
    formed by broadcasting: whatever depends on one axis alone is computed
    once per block, and constant inputs stay scalars.
    """
    inputs = spec.fixed.inputs()
    # start and stop are the extremes of each axis, so checking the
    # parameter invariants there covers every node
    for axis in spec.axes:
        if axis.name != "theta":
            AtomFieldParams(**{**inputs, axis.name: axis.start})
            AtomFieldParams(**{**inputs, axis.name: axis.stop})

    node = {**inputs, "theta": spec.theta}
    ax1 = spec.axis1.values
    values = np.empty(spec.shape)
    inner = 1
    if spec.axis2 is not None:
        node[spec.axis2.name] = spec.axis2.values
        inner = spec.axis2.count
    rows = max(BLOCK_NODES // inner, 1)
    with np.errstate(all="ignore"):
        for lo in range(0, spec.axis1.count, rows):
            block = ax1[lo:lo + rows]
            node[spec.axis1.name] = block if spec.axis2 is None else block[:, None]
            sx, sy, sz = steady_state_grid(*(node[k] for k in inputs))
            values[lo:lo + rows] = _metric_from_states(spec.metric, sx, sy, sz,
                                                       node["theta"])

    bad = np.flatnonzero(~np.isfinite(values))
    values.flat[bad] = 0.0
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
