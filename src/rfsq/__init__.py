"""Squeezing in the resonance fluorescence of a driven atom in a squeezed vacuum.

Library surface: physical parameters and derived rates, steady states of
the modified optical Bloch equations (closed form plus a time-domain
oracle), quadrature-variance metrics, pure-state drive conditions, grid
scans, optimum finding and figure-dataset emission. The `rfsq` CLI wraps
the same operations.
"""

from ._version import __version__
from .params import AtomFieldParams, DerivedRates, derive_rates
from .bloch import (
    BlochState,
    BlochSystem,
    build_system,
    evolve,
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
    optimal_phase_numeric,
    optimal_variance,
    pure_state_variance,
    sphere_angles,
    variance_theta,
)
from .pure import (
    PureStateSolution,
    condition_phi0,
    condition_phi_half_pi,
    condition_phi_pi,
    find_pure_curve,
    maximal_family,
    sz_plus_half,
)
from .scan import AxisSpec, ScanResult, ScanSpec, scan
from .optimize import (
    OptimumReport,
    certify_n_eighth,
    find_crossover,
    golden_section_max,
    minimize_variance,
)
from .figures import build_figure, emit_figure
from . import backends, errors

__all__ = [
    "__version__",
    "AtomFieldParams", "DerivedRates", "derive_rates",
    "BlochState", "BlochSystem", "build_system", "steady_state",
    "steady_state_grid", "evolve", "relax_to_steady", "spectral_abscissa",
    "SqueezingReport", "full_report", "variance_theta", "optimal_variance",
    "optimal_phase_analytic", "optimal_phase_numeric", "sphere_angles",
    "pure_state_variance", "input_vacuum_variance",
    "PureStateSolution", "condition_phi0", "condition_phi_half_pi",
    "condition_phi_pi", "maximal_family", "sz_plus_half", "find_pure_curve",
    "AxisSpec", "ScanSpec", "ScanResult", "scan",
    "OptimumReport", "minimize_variance", "find_crossover",
    "certify_n_eighth", "golden_section_max",
    "build_figure", "emit_figure",
    "backends", "errors",
]
