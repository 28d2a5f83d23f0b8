"""Locating squeezing optima: box minimisation, the crossover and certification.

The objective is the optimal-quadrature variance S_opt of the steady
state over the drive (omega, delta). At fixed delta its optimum over
omega, and that of the purity Sigma, are closed forms (``drive_optima``),
so a box minimisation is a one-dimensional search over delta: a coarse
grid of detunings refined by golden-section search. The amplification
crossover is analytic. All routines work in gamma = 1 units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import steady_state_grid
from .errors import CertificationFailedError, ValidationError
from .metrics import optimal_phase_analytic
from .params import AtomFieldParams, decay_rates

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


def drive_optima(n_sq, eta, phi, delta):
    """Closed-form optima over the drive strength at fixed delta (gamma = 1).

    With L = q + delta^2, R = (delta + M sin Phi)^2 + gamma_x^2 and
    D = gamma_z L + omega^2 gamma_x, the steady state has
    Sigma = (omega^2 R + L^2)/D^2 and S_opt = 1 - L/D - omega^2 R/D^2;
    the derivative of either in w = omega^2 has a numerator linear in w,
    so each has one extremum. Returns (w_min, s_min, w_pure, sigma_max):
    S_opt is least at w_min and Sigma greatest at w_pure. A negative w
    puts the optimum at omega = 0, where the values do not apply.
    Polymorphic over scalars and broadcastable arrays. Past |delta| ~ 1e154
    L and R overflow and the results are NaN.
    """
    m, q, gx, _, gz = decay_rates(1.0, n_sq, eta, phi)
    with np.errstate(over="ignore", invalid="ignore"):
        lorentz = q + delta * delta
        u = delta + m * np.sin(phi)
        r = u * u + gx * gx
        gl = gx * lorentz
        w_min = gz * lorentz * (r - gl) / (gx * (gl + r))
        s_min = 1.0 - (gl + r) ** 2 / (4.0 * gl * gz * r)
        w_pure = lorentz * (gz * r - 2.0 * gl) / (gx * r)
        sigma_max = r * r / (4.0 * gl * (gz * r - gl))
    return w_min, s_min, w_pure, sigma_max


#: iteration cap of the golden-section refinement over delta
GOLDEN_MAX_ITER = 200


def minimize_variance(
    n_sq: float,
    phi: float,
    bounds: tuple[tuple[float, float], tuple[float, float]],
    eta: float = 1.0,
    coarse: int = 64,
) -> OptimumReport:
    """Minimise the optimal-quadrature variance over an (omega, delta) box.

    At each delta the drive is the optimum of ``drive_optima`` clipped
    into the box, so only delta is searched: the best of ``coarse`` nodes
    (ties broken toward low delta) is refined by golden-section search
    between its neighbours, and kept if the refinement finds nothing
    lower. A box side of zero width freezes that coordinate. ``n_evals``
    counts objective evaluations; ``converged`` is False when the
    refinement stops on its iteration cap. The reported theta is the
    analytic optimal phase at the located minimum.
    """
    (w_lo, w_hi), (d_lo, d_hi) = bounds
    if w_lo > w_hi or d_lo > d_hi or w_lo < 0.0:
        raise ValidationError(f"invalid search box {bounds!r}")
    n_evals = 0

    def profile(delta):
        nonlocal n_evals
        n_evals += np.size(delta)
        w_min = drive_optima(n_sq, eta, phi, delta)[0]
        # fmax maps an overflowed (NaN) optimum to omega = w_lo
        omega = np.clip(np.sqrt(np.fmax(w_min, 0.0)), w_lo, w_hi)
        sx, sy, sz = steady_state_grid(1.0, n_sq, eta, phi, omega, delta)
        return omega, 1.0 + sz - sx * sx - sy * sy

    ds = np.linspace(d_lo, d_hi, 1 if d_lo == d_hi else coarse)
    omegas, vals = profile(ds)
    i = int(np.argmin(vals))
    omega, delta, value = float(omegas[i]), float(ds[i]), float(vals[i])
    converged = True
    if ds.size > 1:
        # relative to the box's scale, so that a bracket far from zero can
        # still narrow to the tolerance in floating point
        xtol = 1e-10 * max(1.0, abs(d_lo), abs(d_hi))
        x, neg = golden_section_max(
            lambda d: -float(profile(d)[1]), ds[max(i - 1, 0)],
            ds[min(i + 1, ds.size - 1)], xtol=xtol, max_iter=GOLDEN_MAX_ITER)
        # golden section evaluates twice to start, once per iteration and
        # once at the end
        converged = n_evals - ds.size < GOLDEN_MAX_ITER + 3
        if -neg < value:
            delta, value = x, -neg
            omega = float(profile(x)[0])

    params = AtomFieldParams(n_sq=n_sq, eta=eta, phi=phi, omega=omega, delta=delta)
    return OptimumReport(
        omega=omega,
        delta=delta,
        theta=optimal_phase_analytic(params),
        value=value,
        n_evals=n_evals,
        converged=converged,
    )


def find_crossover(eta: float = 1.0) -> float:
    """Photon number where fluorescence squeezing stops beating the input.

    The root of pure_state_variance(N) - input_vacuum_variance(N). For
    the ideal reservoir the equation reduces to N + M = 3/2, with
    M = sqrt(N(N+1)), whose root is N* = 9/16.
    """
    if eta != 1.0:
        raise ValidationError("crossover is defined for the ideal reservoir (eta = 1)")
    return 9.0 / 16.0


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
