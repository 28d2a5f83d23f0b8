"""Squeezing in the resonance fluorescence of a driven atom in a squeezed vacuum.

Library surface: physical parameters, steady states of the modified
optical Bloch equations (the closed form, and relaxation under the RK4
map as a time-domain oracle), quadrature-variance metrics, pure-state
drive conditions, grid scans, optimum finding and figure-dataset
emission. The `rfsq` CLI wraps the same operations.
"""

from ._version import __version__
from .params import AtomFieldParams
from .bloch import (
    BlochState,
    BlochSystem,
    relax_to_steady,
    spectral_abscissa,
    steady_state,
    steady_state_grid,
)
from .metrics import (
    SqueezingReport,
    full_report,
    input_vacuum_variance,
    optimal_phase_analytic,
    optimal_variance,
    pure_state_variance,
    sphere_angles,
    variance_theta,
)
from .pure import (
    PureStateSolution,
    condition_phi_pi,
    find_pure_curve,
    pure_state,
)
from .scan import AxisSpec, ScanResult, ScanSpec, scan
from .optimize import (
    OptimumReport,
    certify_n_eighth,
    find_crossover,
    minimize_variance,
    minimize_variance_batch,
)
from .figures import build_figure, emit_figure
from . import backends, errors

__all__ = [
    "__version__",
    "AtomFieldParams",
    "BlochState", "BlochSystem", "steady_state", "steady_state_grid",
    "relax_to_steady", "spectral_abscissa",
    "SqueezingReport", "full_report", "variance_theta", "optimal_variance",
    "optimal_phase_analytic", "sphere_angles",
    "pure_state_variance", "input_vacuum_variance",
    "PureStateSolution", "pure_state", "condition_phi_pi",
    "find_pure_curve",
    "AxisSpec", "ScanSpec", "ScanResult", "scan",
    "OptimumReport", "minimize_variance", "minimize_variance_batch",
    "find_crossover",
    "certify_n_eighth",
    "build_figure", "emit_figure",
    "backends", "errors",
]
