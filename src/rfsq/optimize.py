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

from .bloch import BlochState, steady_state_grid
from .errors import CertificationFailedError, NumericalError, ValidationError
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


def golden_section_max(f, lo, hi, xtol=1e-10, max_iter: int = 200):
    """Maximise unimodal functions on brackets [lo, hi]; returns (x, f(x), steps).

    Interval form of golden-section search, robust when a maximum sits on
    a boundary of its bracket. lo, hi and xtol are scalars or broadcastable
    arrays of independent problems, and f maps an array of points, one per
    problem, to their values. Each problem narrows its own bracket until it
    is at most its xtol wide or max_iter iterations have passed; ``steps``
    counts its iterations, so f is evaluated for it at steps + 3 points.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b, xtol = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                       for x in (lo, hi, xtol)))
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    steps = np.zeros(a.shape, dtype=np.int64)
    for _ in range(max_iter):
        active = ~(b - a <= xtol)
        if not active.any():
            break
        # a finished problem keeps its bracket; its inner points no longer matter
        left = fc > fd  # the maximum lies in [a, d]: d becomes b, c becomes d
        a = np.where(active & ~left, c, a)
        b = np.where(active & left, d, b)
        span = invphi * (b - a)
        x = np.where(left, b - span, a + span)
        fx = f(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
        steps += active
    x = 0.5 * (a + b)
    return x, f(x), steps


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


def minimize_variance_batch(n_sq, phi, bounds, eta: float = 1.0,
                            coarse: int = 64):
    """Minimise the optimal-quadrature variance of many problems over one box.

    The box is ((omega_lo, omega_hi), (delta_lo, delta_hi)); n_sq and phi
    are broadcastable 1-D arrays, one entry per problem. At each delta the
    drive is the optimum of ``drive_optima`` clipped into the box, so only
    delta is searched: one kernel call evaluates every problem on
    ``coarse`` nodes, and the best node of each (ties broken toward low
    delta) is refined by one array golden-section search between its
    neighbours, and kept if the refinement finds nothing lower. A box side of zero width freezes that coordinate. Returns the
    arrays (omega, delta, value, n_evals, converged): ``n_evals`` counts
    each problem's objective evaluations, and ``converged`` is False where
    the refinement stopped on its iteration cap. A node whose steady state
    overflows counts as inf, so ``value`` is inf only where every node did.
    """
    (w_lo, w_hi), (d_lo, d_hi) = bounds
    if w_lo > w_hi or d_lo > d_hi or w_lo < 0.0:
        raise ValidationError(f"invalid search box {bounds!r}")
    n_sq, phi = (x[:, None] for x in np.broadcast_arrays(
        np.asarray(n_sq, dtype=float), np.asarray(phi, dtype=float)))
    rows = np.arange(len(n_sq))

    def profile(delta):
        # one row per problem; delta is (nodes,) or a (P, 1) column
        w_min = drive_optima(n_sq, eta, phi, delta)[0]
        # fmax maps an overflowed (NaN) optimum to omega = w_lo
        omega = np.clip(np.sqrt(np.fmax(w_min, 0.0)), w_lo, w_hi)
        with np.errstate(all="ignore"):
            s_opt = BlochState(*steady_state_grid(1.0, n_sq, eta, phi, omega,
                                                  delta)).s_opt
        # a node whose state overflowed (NaN) ranks below every finite one
        return omega, np.where(np.isnan(s_opt), np.inf, s_opt)

    ds = np.linspace(d_lo, d_hi, 1 if d_lo == d_hi else coarse)
    omegas, vals = profile(ds)
    i = np.argmin(vals, axis=1)
    omega, delta, value = omegas[rows, i], ds[i], vals[rows, i]
    n_evals = np.full(len(rows), ds.size)
    converged = np.ones(len(rows), dtype=bool)
    if ds.size > 1:
        # relative to the box's scale, so that a bracket far from zero can
        # still narrow to the tolerance in floating point
        xtol = 1e-10 * max(1.0, abs(d_lo), abs(d_hi))
        x, neg, steps = golden_section_max(
            lambda d: -profile(d[:, None])[1][:, 0], ds[np.maximum(i - 1, 0)],
            ds[np.minimum(i + 1, ds.size - 1)], xtol=xtol,
            max_iter=GOLDEN_MAX_ITER)
        converged = steps < GOLDEN_MAX_ITER
        better = -neg < value
        # golden section evaluates twice to start, once per iteration and
        # once at the end; a better point is evaluated again for its drive
        n_evals += 3 + steps + better
        omega = np.where(better, profile(x[:, None])[0][:, 0], omega)
        delta = np.where(better, x, delta)
        value = np.where(better, -neg, value)
    return omega, delta, value, n_evals, converged


def minimize_variance(
    n_sq: float,
    phi: float,
    bounds: tuple[tuple[float, float], tuple[float, float]],
    eta: float = 1.0,
    coarse: int = 64,
) -> OptimumReport:
    """Minimise the optimal-quadrature variance over an (omega, delta) box.

    ``minimize_variance_batch`` for one problem. The reported theta is
    the analytic optimal phase at the located minimum. Raises
    NumericalError when the steady state overflows at every node searched.
    """
    omega, delta, value, n_evals, converged = (
        x[0] for x in minimize_variance_batch([n_sq], [phi], bounds, eta, coarse))
    if not math.isfinite(value):
        raise NumericalError(
            f"the steady state overflows throughout the search box {bounds!r}")
    params = AtomFieldParams(n_sq=n_sq, eta=eta, phi=phi, omega=float(omega),
                             delta=float(delta))
    return OptimumReport(
        omega=float(omega),
        delta=float(delta),
        theta=optimal_phase_analytic(params),
        value=float(value),
        n_evals=int(n_evals),
        converged=bool(converged),
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
    given squeezing phases, in one ``minimize_variance_batch`` call.
    Passes when the global minimum sits within one grid step of 0.125 at
    -0.25 +- tolerance while every N further than 0.02 from 0.125 stays
    above -0.25 + 1e-4.
    """
    if not 0.0 < tolerance <= 1e-2:
        raise ValidationError(f"tolerance must lie in (0, 1e-2], got {tolerance}")
    grid = [round(0.02 * k, 10) for k in range(1, 26)]
    if 0.125 not in grid:
        grid.append(0.125)
    grid.sort()

    # one problem per (N, phase), the phase varying fastest
    n_sq = np.repeat(grid, len(phases))
    phi = np.tile(np.asarray(phases, dtype=float), len(grid))
    omega, delta, value, _, _ = minimize_variance_batch(n_sq, phi, CERTIFY_BOX,
                                                        coarse=coarse)
    # the first phase wins a tie, as in a loop that keeps strictly lower values
    best = (np.arange(len(grid)) * len(phases)
            + np.argmin(value.reshape(len(grid), -1), axis=1))
    minima = value[best].tolist()
    sigmas = BlochState(*steady_state_grid(1.0, n_sq[best], 1.0, phi[best],
                                           omega[best], delta[best])).sigma.tolist()

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
