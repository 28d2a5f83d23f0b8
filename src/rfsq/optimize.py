"""Locating squeezing optima: box minimisation and crossover finding.

The objective everywhere is the optimal-quadrature variance of the
steady state, a smooth function of the drive (omega, delta). Minima are
located by a coarse grid seed followed by Nelder-Mead refinement with
the standard simplex coefficients (reflection 1, expansion 2,
contraction 0.5, shrink 0.5). All routines work in gamma = 1 units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import bisect, minimize

from .bloch import steady_state_grid
from .errors import CertificationFailedError, NoRootError, ValidationError
from .metrics import (
    input_vacuum_variance,
    optimal_phase_analytic,
    pure_state_variance,
)
from .params import AtomFieldParams

#: hard floor of the variance in this normalisation
VARIANCE_BOUND = -0.25


@dataclass(frozen=True)
class OptimumReport:
    """A located variance minimum with convergence metadata."""

    omega: float
    delta: float
    theta: float
    value: float
    n_evals: int
    converged: bool

    @property
    def location(self) -> tuple[float, float, float]:
        return (self.omega, self.delta, self.theta)

    @property
    def gap_to_bound(self) -> float:
        return self.value - VARIANCE_BOUND

    def as_dict(self) -> dict:
        return {
            "omega": self.omega,
            "delta": self.delta,
            "theta": self.theta,
            "value": self.value,
            "n_evals": self.n_evals,
            "converged": self.converged,
            "gap_to_bound": self.gap_to_bound,
        }


def golden_section_max(f, lo: float, hi: float, xtol: float = 1e-10,
                       max_iter: int = 200) -> tuple[float, float]:
    """Maximise a unimodal function on [lo, hi]; returns (x, f(x)).

    Interval form of golden-section search, robust when the maximum sits
    on a boundary of the bracket.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= xtol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _optimal_variance_grid(n_sq, phi, omega, delta, eta=1.0):
    sx, sy, sz = steady_state_grid(1.0, n_sq, eta, phi, omega, delta)
    return 1.0 + sz - sx * sx - sy * sy


def minimize_variance(
    n_sq: float,
    phi: float,
    bounds: tuple[tuple[float, float], tuple[float, float]],
    eta: float = 1.0,
    coarse: int = 64,
    max_evals: int = 10_000,
) -> OptimumReport:
    """Minimise the optimal-quadrature variance over an (omega, delta) box.

    Seeds Nelder-Mead from the best node of a coarse x coarse grid (ties
    broken toward low delta, then low omega). A box side of zero width
    freezes that coordinate. The reported theta is the analytic optimal
    phase at the located minimum.
    """
    (w_lo, w_hi), (d_lo, d_hi) = bounds
    if w_lo > w_hi or d_lo > d_hi or w_lo < 0.0:
        raise ValidationError(f"invalid search box {bounds!r}")

    ws = np.linspace(w_lo, w_hi, 1 if w_lo == w_hi else coarse)
    ds = np.linspace(d_lo, d_hi, 1 if d_lo == d_hi else coarse)
    # delta as the outer axis so argmin's first hit breaks ties as documented
    vals = _optimal_variance_grid(n_sq, phi, ws[None, :], ds[:, None], eta)
    i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
    n_evals = vals.size
    x0 = np.array([ws[j], ds[i]])

    free = [k for k, (lo, hi) in enumerate(((w_lo, w_hi), (d_lo, d_hi))) if lo < hi]

    def objective(x_free):
        point = x0.copy()
        for slot, value in zip(free, x_free):
            point[slot] = value
        return float(_optimal_variance_grid(n_sq, phi, point[0], point[1], eta))

    if free:
        box = [((w_lo, w_hi), (d_lo, d_hi))[k] for k in free]
        result = minimize(
            objective,
            x0[free],
            method="Nelder-Mead",
            bounds=box,
            options={
                "xatol": 1e-8,
                "fatol": 1e-12,
                "maxfev": max_evals,
                "adaptive": False,
            },
        )
        n_evals += result.nfev
        best = x0.copy()
        for slot, value in zip(free, result.x):
            best[slot] = value
        value = float(result.fun)
        converged = bool(result.success)
    else:
        best = x0
        value = float(vals[i, j])
        converged = True

    params = AtomFieldParams(n_sq=n_sq, eta=eta, phi=phi,
                             omega=float(best[0]), delta=float(best[1]))
    return OptimumReport(
        omega=float(best[0]),
        delta=float(best[1]),
        theta=optimal_phase_analytic(params),
        value=value,
        n_evals=int(n_evals),
        converged=converged,
    )


def find_crossover(eta: float = 1.0) -> float:
    """Photon number where fluorescence squeezing stops beating the input.

    Root of pure_state_variance(N) - input_vacuum_variance(N) on
    [0.1, 1.5], located by bisection; the analytic root solves
    N + M = 3/2, i.e. N* = 9/16.
    """
    if eta != 1.0:
        raise ValidationError("crossover is defined for the ideal reservoir (eta = 1)")

    def gap(n):
        return pure_state_variance(n, eta) - input_vacuum_variance(n, eta)

    lo, hi = 0.1, 1.5
    if gap(lo) * gap(hi) > 0.0:
        raise NoRootError(f"no sign change of the squeezing gap on [{lo}, {hi}]")
    n_star = bisect(gap, lo, hi, xtol=1e-14, maxiter=200)
    if abs(gap(n_star)) > 1e-12:
        raise NoRootError(f"bisection stalled with |gap| = {abs(gap(n_star)):.3e}")
    return float(n_star)


@dataclass(frozen=True)
class CertifyReport:
    """Outcome of the photon-number certification sweep."""

    n_values: tuple[float, ...]
    minima: tuple[float, ...]
    argmin_n: float
    min_value: float
    sigmas: tuple[float, ...]


#: squeezing phases probed per photon number during certification
CERTIFY_PHASES = (math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0)

#: search box for the drive during certification
CERTIFY_BOX = ((0.0, 3.0), (0.0, 2.0))


def certify_n_eighth(
    tolerance: float = 1e-6,
    phases: tuple[float, ...] = CERTIFY_PHASES,
    coarse: int = 64,
) -> CertifyReport:
    """Certify that only N = 1/8 reaches the -0.25 variance floor.

    Minimises the variance over (omega, delta, theta) for each photon
    number on {0.02, 0.04, ..., 0.5} plus the exact 0.125, across the
    given squeezing phases. Passes when the global minimum sits within
    one grid step of 0.125 at -0.25 +- tolerance while every N further
    than 0.02 from 0.125 stays above -0.25 + 1e-4.
    """
    if not 0.0 < tolerance <= 1e-2:
        raise ValidationError(f"tolerance must lie in (0, 1e-2], got {tolerance}")
    grid = [round(0.02 * k, 10) for k in range(1, 26)]
    if 0.125 not in grid:
        grid.append(0.125)
    grid.sort()

    minima = []
    sigmas = []
    for n in grid:
        best = None
        best_phi = phases[0]
        for phi in phases:
            report = minimize_variance(n, phi, CERTIFY_BOX, coarse=coarse)
            if best is None or report.value < best.value:
                best = report
                best_phi = phi
        minima.append(best.value)
        sx, sy, sz = steady_state_grid(1.0, n, 1.0, best_phi,
                                       best.omega, best.delta)
        sigmas.append(float(sx * sx + sy * sy + sz * sz))

    k_min = int(np.argmin(minima))
    offenders = []
    if abs(grid[k_min] - 0.125) > 0.02:
        offenders.append((grid[k_min], "global minimum away from 0.125"))
    if abs(minima[k_min] - VARIANCE_BOUND) > tolerance:
        offenders.append((grid[k_min], f"global minimum {minima[k_min]!r} misses -0.25"))
    for n, value in zip(grid, minima):
        if abs(n - 0.125) >= 0.02 and value <= VARIANCE_BOUND + 1e-4:
            offenders.append((n, f"minimum {value!r} too deep away from 0.125"))
    if offenders:
        raise CertificationFailedError(
            f"certification failed at {len(offenders)} grid point(s)",
            offenders=offenders,
        )
    return CertifyReport(
        n_values=tuple(grid),
        minima=tuple(minima),
        argmin_n=grid[k_min],
        min_value=minima[k_min],
        sigmas=tuple(sigmas),
    )
