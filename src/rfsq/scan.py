"""Grid scans of squeezing metrics over one or two parameter axes.

A scan evaluates one metric of the steady state on a uniform grid, axis1
outer and axis2 inner (row-major), through the closed-form kernel, in
blocks of at most ``BLOCK_NODES`` = 2^15 nodes. One ``_carrier.Workspace``
per scan holds the block-sized buffers: the kernel and the metric write
every intermediate that fills the block into them (ufunc ``out=``), the
metric's last operation writes into the output itself, and the
finiteness test into a bool buffer. So a block allocates only what
depends on axis1 (what depends on axis2 alone is kept from the first
block), and a scan's speed no longer rests on glibc keeping freed
temporaries on the heap: under a fixed ``mmap_threshold`` scans whose
blocks allocated ran 2.6-3.2 times slower.

The block stays at 2^15 nodes: the workspace's six float64 buffers are
then 1.5 MiB, which fits one core's 2 MiB L2 cache on the machine it was
measured on. Re-measured with the workspace on warm 2048 x 2048 scans of
the benchmark's drive and reservoir (N, phi) grids, two rounds: 2^13 and
2^14 were slower on both, 2^16 was 6-8% faster on drive grids but
within 2% either way on reservoir grids, with twice the workspace, and
2^17 won neither family in both rounds. Nodes are independent, so
results are deterministic regardless of how the grid is split into
blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._carrier import Workspace
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


def _metric_from_states(metric, sx, sy, sz, theta, work):
    if metric == "sigma":
        return sigma_xyz(sx, sy, sz, work)
    if metric == "sz":
        return sz
    if metric == "s_opt":
        return s_opt_xyz(sx, sy, sz, work)
    if metric == "s_theta":
        return variance_theta_xyz(sx, sy, sz, theta, work)
    return variance_theta_xyz(sx, sy, sz, _FIXED_THETAS[metric], work)


def scan(spec: ScanSpec) -> ScanResult:
    """Evaluate the metric at every grid node of the spec.

    Axis1 enters the kernel as a column and axis2 as a row, so the grid is
    formed by broadcasting: whatever depends on axis1 alone is computed
    once per block, what depends on axis2 and the constants alone once per
    scan, and constant inputs stay scalars. The kernel, the metric and the
    finiteness test write into one Workspace, made once per scan, and the
    metric's last operation into the output itself.
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
    work = Workspace(min(rows, spec.axis1.count) * inner)
    bad = []
    with np.errstate(all="ignore"):
        for lo in range(0, spec.axis1.count, rows):
            block = ax1[lo:lo + rows]
            node[spec.axis1.name] = block if spec.axis2 is None else block[:, None]
            out = values[lo:lo + rows]
            work.block(out)
            value = _metric_from_states(
                spec.metric, *steady_state_grid(*(node[k] for k in inputs), work=work),
                node["theta"], work)
            if value is not out:  # sz, or a metric constant over the block
                out[...] = value
            finite = np.isfinite(out, out=work.flag)
            if not finite.all():
                lost = np.flatnonzero(~finite)
                out.flat[lost] = 0.0
                bad.append(lost + lo * inner)

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
