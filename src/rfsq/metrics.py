"""Quadrature-variance metrics of the fluorescent field.

The total normally-ordered variance of the theta-phase quadrature is

    S_theta = 1 + <sz> - (<sx> cos(theta) - <sy> sin(theta))^2,

normalised so that S_theta = -0.25 is maximal squeezing and S_theta = 0
the shot-noise limit. Over theta the variance is pi-periodic and reaches
its minimum S = 1 + <sz> - <sx>^2 - <sy>^2 = <sz>(1+<sz>) + 1 - Sigma at
the optimal phase theta_o = atan2(gamma_x, delta + M sinPhi), which for
a pure (fully polarised) atom coincides with its Bloch-sphere longitude
modulo pi.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from ._carrier import SCALAR, carrier, libm
from .bloch import BlochState, steady_state
from .errors import NumericalError
from .params import AtomFieldParams, _rates, decay_rates

#: coherence below this is treated as zero and every phase ties
COHERENCE_FLOOR = 1e-20

#: purity threshold for the report flag
PURE_FLAG_TOL = 1e-6


@dataclass(frozen=True)
class SqueezingReport:
    """Steady-state squeezing summary at one parameter point.

    theta_o : optimal quadrature phase in [0, pi)
    s_theta_o : minimal variance, in [-0.25, 2]
    s_x, s_y, s_pi4 : variances of the 0, pi/2 and pi/4 quadratures
    sigma : squared Bloch-vector length
    alpha, beta : Bloch-sphere longitude and colatitude angles
    is_pure : sigma within 1e-6 of one
    degree_percent : squeezing degree of the optimal quadrature,
        100 * s_theta_o / (-0.25)
    phase_degenerate : coherence is zero, so theta_o is conventional
    """

    theta_o: float
    s_theta_o: float
    s_x: float
    s_y: float
    s_pi4: float
    sigma: float
    alpha: float
    beta: float
    is_pure: bool
    degree_percent: float
    phase_degenerate: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


def variance_theta_xyz(sx, sy, sz, theta):
    """S_theta from raw Bloch components; polymorphic over arrays."""
    xp = carrier(sx, sy, sz, theta)
    coherence = sx * xp.cos(theta) - sy * xp.sin(theta)
    return 1.0 + sz - coherence * coherence


def variance_theta(state: BlochState, theta: float) -> float:
    """Normally-ordered variance of the theta-phase quadrature."""
    return float(variance_theta_xyz(state.sx, state.sy, state.sz, theta))


def optimal_variance(state: BlochState) -> float:
    """Minimal variance over the quadrature phase, ``state.s_opt``, checked.

    Raises NumericalError where s_opt departs from the equivalent form
    <sz>(1 + <sz>) + 1 - Sigma. Polymorphic: a state whose components are
    arrays gives an array, and the check must then hold at every point.
    """
    xp = carrier(state.sx, state.sy, state.sz)
    value = state.s_opt
    alt = state.sz * (1.0 + state.sz) + 1.0 - state.sigma
    err = abs(value - alt)
    # err > 1e-14 max(1, |value|)
    violated = (err > 1e-14) & (err > 1e-14 * abs(value))
    if xp.any(violated):
        first = (value, alt)
        if xp is not SCALAR:
            k = xp.argmax(violated)
            first = (xp.ravel(value)[k], xp.ravel(alt)[k])
        raise NumericalError(
            f"variance identity violated: {float(first[0])!r} vs {float(first[1])!r}")
    return value


def _longitude(n_sq, eta, phi, delta):
    """(alpha, M): the optimal quadrature phase before reduction, and M."""
    xp = carrier(n_sq, eta, phi, delta)
    m, _, gamma_x, _ = _rates(xp, n_sq, eta, phi)
    # gamma_x > 0 always, so alpha lands in (0, pi), at pi/2 for a zero
    # second argument
    u = delta + m * xp.sin(phi)
    # libm's atan2 is nearly always the closer to the exact angle where
    # numpy's differs from it (about 7% of the Bloch-sweep points)
    return libm(xp, math.atan2, 2)(gamma_x, u), m


def optimal_phase_grid(n_sq, eta, phi, delta):
    """Optimal quadrature phase in [0, pi) over scalars or broadcastable arrays."""
    return _longitude(n_sq, eta, phi, delta)[0] % math.pi


def optimal_phase_analytic(params: AtomFieldParams) -> float:
    """Optimal quadrature phase from the closed form, reduced into [0, pi)."""
    return float(optimal_phase_grid(params.n_sq, params.eta, params.phi, params.delta))


def sphere_angles(params: AtomFieldParams) -> tuple[float, float]:
    """Bloch-sphere angles (alpha, beta) of the pure-state target.

    alpha equals the optimal quadrature phase before reduction into
    [0, pi); beta is the colatitude fixed by the reservoir, with the
    undriven N = 0 corner mapped to the south pole (beta = pi).
    """
    alpha, m = _longitude(*(float(x) for x in (
        params.n_sq, params.eta, params.phi, params.delta)))
    n = params.n_sq
    if m + n == 0.0:
        return alpha, math.pi
    return alpha, math.acos(-(m - n) / (m + n))


def _variance_laws(n_sq, eta):
    """((N - M) / 2, (N - M) / (N + M + 1/2)) over scalars or broadcastable arrays.

    N - M = N ((1 - eta^2) N - eta^2) / (N + M), which is -N / (N + M) at
    eta = 1: the plain difference cancels as N grows (7e-14 relative at
    N = 1e3, 2.5e-9 at 1e8). At N = 0 the numerator is 0 and the
    denominator is taken as 1. Past N ~ 1.3e154 N(N+1), and with it M,
    overflows; there r = M/N = eta sqrt(1 + 1/N) gives N - M =
    ((1 - eta^2) N - eta^2) / (1 + r), and since 1/2 is below the last
    place of N, (N - M) / (N + M + 1/2) = ((1 - eta^2) - eta^2 / N) / (1 + r)^2.
    """
    xp = carrier(n_sq, eta)
    with xp.errstate(all="ignore"):
        m = decay_rates(n_sq, eta, 0.0)[0]
        total = n_sq + m
        excess = n_sq * ((1.0 - eta) * (1.0 + eta) * n_sq - eta * eta)
        n_m = excess / xp.where(total > 0.0, total, 1.0)
        pure = n_m / (total + 0.5)
        huge = n_sq * (n_sq + 1.0) == xp.inf
        if xp.any(huge):
            one_r = 1.0 + eta * xp.sqrt(1.0 + 1.0 / n_sq)
            low = (1.0 - eta) * (1.0 + eta)
            n_m = xp.where(huge, (low * n_sq - eta * eta) / one_r, n_m)
            pure = xp.where(huge, (low - eta * eta / n_sq) / (one_r * one_r), pure)
    return n_m / 2.0, pure


def pure_state_variance(n_sq, eta=1.0):
    """Optimal-quadrature variance radiated from the pure steady state.

    Equals (N - M) / (N + M + 1/2); for an ideal reservoir this is also
    <sz>(1 + <sz>) with <sz> = (N - M)/(N + M). Polymorphic over scalars
    and broadcastable arrays.
    """
    return _variance_laws(n_sq, eta)[1]


def input_vacuum_variance(n_sq, eta=1.0):
    """Normally-ordered quadrature variance of the squeezed-vacuum input.

    (N - M) / 2 in the same normalisation, approaching -0.25 as N grows.
    Polymorphic over scalars and broadcastable arrays.
    """
    return _variance_laws(n_sq, eta)[0]


def full_report(params: AtomFieldParams) -> SqueezingReport:
    """Steady state plus every squeezing figure of merit at one point."""
    state = steady_state(params)
    alpha, beta = sphere_angles(params)
    degenerate = state.sx**2 + state.sy**2 <= COHERENCE_FLOOR
    s_opt = optimal_variance(state)
    sigma = state.sigma
    return SqueezingReport(
        theta_o=alpha % math.pi,
        s_theta_o=s_opt,
        s_x=variance_theta(state, 0.0),
        s_y=variance_theta(state, math.pi / 2.0),
        s_pi4=variance_theta(state, math.pi / 4.0),
        sigma=sigma,
        alpha=alpha,
        beta=beta,
        is_pure=sigma > 1.0 - PURE_FLAG_TOL,
        degree_percent=100.0 * s_opt / -0.25,
        phase_degenerate=bool(degenerate),
    )
