"""Grid scans of squeezing metrics over one or two parameter axes.

A scan evaluates one metric of the steady state on a uniform grid, axis1
outer and axis2 inner (row-major), through the closed-form kernel.
Grids are processed in blocks so even the largest allowed scans stay
within a modest memory footprint. Nodes are independent, so results are
deterministic regardless of how the grid is split into blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bloch import steady_state_grid
from .errors import ValidationError
from .metrics import variance_theta_xyz
from .params import AtomFieldParams

#: parameter names that may serve as a scan axis
AXIS_NAMES = ("omega", "delta", "phi", "n_sq", "theta")

#: metrics computable at a grid node
METRICS = ("s_theta", "s_x", "s_y", "s_pi4", "s_opt", "sigma", "sz")

#: per-axis node cap (desk scale)
MAX_AXIS_COUNT = 4096

#: nodes evaluated per kernel call
BLOCK_NODES = 1 << 20

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
        return np.linspace(self.start, self.stop, self.count)


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
    def shape(self) -> tuple[int, ...]:
        if self.axis2 is None:
            return (self.axis1.count,)
        return (self.axis1.count, self.axis2.count)


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Metric values on the grid (axis1 outer, axis2 inner) plus metadata.

    Nodes that failed to evaluate are recorded in ``errors`` as
    (indices, message) and hold 0.0 in ``values``; NaN is never emitted.
    """

    spec: ScanSpec
    values: np.ndarray
    errors: list = field(default_factory=list)

    @property
    def axis1_values(self) -> np.ndarray:
        return self.spec.axis1.values

    @property
    def axis2_values(self) -> np.ndarray | None:
        return None if self.spec.axis2 is None else self.spec.axis2.values


def _metric_from_states(metric, sx, sy, sz, theta):
    if metric == "sigma":
        return sx * sx + sy * sy + sz * sz
    if metric == "sz":
        return sz
    if metric == "s_opt":
        return 1.0 + sz - sx * sx - sy * sy
    if metric == "s_theta":
        return variance_theta_xyz(sx, sy, sz, theta)
    return variance_theta_xyz(sx, sy, sz, _FIXED_THETAS[metric])


def scan(spec: ScanSpec) -> ScanResult:
    """Evaluate the metric at every grid node of the spec."""
    fixed = spec.fixed
    node_fields = {
        "gamma": fixed.gamma,
        "n_sq": fixed.n_sq,
        "eta": fixed.eta,
        "phi": fixed.phi,
        "omega": fixed.omega,
        "delta": fixed.delta,
        "theta": spec.theta,
    }
    ax1 = spec.axis1.values
    shape = spec.shape
    n_nodes = int(np.prod(shape))
    flat = np.empty(n_nodes)

    if spec.axis2 is None:
        grids = {spec.axis1.name: ax1}
        inner = 1
    else:
        ax2 = spec.axis2.values
        g1, g2 = np.meshgrid(ax1, ax2, indexing="ij")
        grids = {spec.axis1.name: g1.ravel(), spec.axis2.name: g2.ravel()}
        inner = spec.axis2.count

    # validate grid values against the parameter invariants once, via the
    # most restrictive node of each varying field
    for name, values in grids.items():
        if name == "theta":
            continue
        probe = {**{k: v for k, v in node_fields.items() if k != "theta"}}
        probe[name] = float(np.min(values))
        AtomFieldParams(**probe)
        probe[name] = float(np.max(values))
        AtomFieldParams(**probe)

    errors = []
    block = max(BLOCK_NODES // max(inner, 1), 1) * max(inner, 1)
    for lo in range(0, n_nodes, block):
        hi = min(lo + block, n_nodes)
        sl = slice(lo, hi)
        vals = {}
        for name in ("gamma", "n_sq", "eta", "phi", "omega", "delta", "theta"):
            vals[name] = grids[name][sl] if name in grids else node_fields[name]
        sx, sy, sz = steady_state_grid(
            vals["gamma"], vals["n_sq"], vals["eta"],
            vals["phi"], vals["omega"], vals["delta"],
        )
        out = _metric_from_states(spec.metric, sx, sy, sz, vals["theta"])
        out = np.broadcast_to(out, (hi - lo,)).astype(float, copy=True)
        bad = ~np.isfinite(out)
        if bad.any():
            for k in np.flatnonzero(bad):
                idx = np.unravel_index(lo + int(k), shape)
                errors.append((tuple(int(i) for i in idx),
                               "steady state failed to evaluate"))
            out[bad] = 0.0
        flat[sl] = out

    return ScanResult(spec=spec, values=flat.reshape(shape), errors=errors)
