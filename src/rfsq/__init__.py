"""Squeezing in the resonance fluorescence of a driven atom in a squeezed vacuum.

Library surface: physical parameters, steady states of the modified
optical Bloch equations (the closed form, and relaxation under the RK4
map as a time-domain oracle), quadrature-variance metrics, pure-state
drive conditions, grid scans, optimum finding and figure-dataset
emission. The `rfsq` CLI wraps the same operations.

The public names load lazily (PEP 562): ``import rfsq`` loads only
``rfsq._version``, and ``rfsq.full_report`` imports ``rfsq.metrics`` on first
use. numpy loads only with what works on arrays (scan, figures, verify,
the CSV reader and writer, ``minimize_variance_batch`` and the RK4
oracle), so one-point calls such as ``full_report`` and ``pure_state``
run on Python floats without it. ``rfsq.scan`` stays the function; the
submodule of that name is ``sys.modules["rfsq.scan"]``.
"""

import importlib
import sys
import types

from ._version import __version__

#: each public name by the submodule that defines it
_SOURCES = {
    "params": ("AtomFieldParams",),
    "bloch": ("BlochState", "BlochSystem", "relax_to_steady", "spectral_abscissa",
              "steady_state", "steady_state_grid"),
    "metrics": ("SqueezingReport", "full_report", "input_vacuum_variance",
                "optimal_phase_analytic", "optimal_variance", "pure_state_variance",
                "sphere_angles", "variance_theta"),
    "pure": ("PureStateSolution", "condition_phi_pi", "find_pure_curve", "pure_state"),
    "scan": ("AxisSpec", "ScanResult", "ScanSpec", "scan"),
    "optimize": ("OptimumReport", "certify_n_eighth", "find_crossover",
                 "minimize_variance", "minimize_variance_batch"),
    "figures": ("build_figure", "emit_figure"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

#: submodules that are public names themselves
_SUBMODULES = ("backends", "errors")

__all__ = ["__version__", *_MODULE_OF, *_SUBMODULES]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # importing rfsq.scan binds the submodule here; rfsq.scan stays the function
        if name == "scan" and isinstance(value, types.ModuleType):
            value = value.scan
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
