"""Drive settings that relax the atom into a pure steady state.

For an ideal reservoir (eta = 1) and any squeezing phase Phi
that is not pi (mod 2 pi), one drive makes the damped, driven atom fully
polarised (Sigma = 1):

    delta = tan(Phi/2) / (4 (N + 1/2 + M)),
    omega = sqrt(M) / (|cos(Phi/2)| (sqrt(N + 1) + sqrt(N))).

At N = 1/8 the same drive gives <sz> = -1/2, the combination that
saturates the -0.25 variance floor. At Phi = pi the drive diverges, and
purity is only approached at large detuning (an asymptotic condition).
For eta < 1 no drive is pure; the drive strength that maximises Sigma
at a fixed detuning is a closed form at any eta
(``optimize.drive_optima``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

from . import backends
from ._carrier import SCALAR, Scalar
from .bloch import BlochState, _steady_state
from .errors import (
    AsymptoticConditionWarning,
    NoPureStateError,
    NumericalError,
    ValidationError,
)
from .metrics import sphere_angles
from .optimize import _scaled_optima
from .params import TWO_PI, AtomFieldParams, _rates, decay_rates

#: phases this close to pi (mod 2 pi) take the large-detuning condition
OPPOSED_PHASE_TOL = 1e-12

#: sin(k pi/2) for k = 0, 1, 2, 3
_QUARTER_TURNS = (0.0, 1.0, 0.0, -1.0)


class _RightAngles(Scalar):
    """The scalar namespace with sin and cos taken at the multiple of pi/2
    nearest their argument. For a phase Phi equal to pi (mod 2 pi) within
    OPPOSED_PHASE_TOL, this makes cos(Phi/2) and sin Phi exactly 0: at
    fl(pi), the term 2 M cos^2(Phi/2) ~ 3.7e-33 M of gamma_x would outgrow
    its exact part 1/(8N) from N ~ 4e15."""

    @staticmethod
    def sin(x):
        return _QUARTER_TURNS[round(x / (0.5 * math.pi)) % 4]

    @staticmethod
    def cos(x):
        return _QUARTER_TURNS[(round(x / (0.5 * math.pi)) + 1) % 4]


#: the namespace of the opposed phase Phi = pi (mod 2 pi)
OPPOSED = _RightAngles()


@dataclass(frozen=True)
class PureStateSolution:
    """Parameters of a pure-state working point and the purity achieved.

    ``exact`` is True for the closed form; the large-detuning condition
    is asymptotic and reports the purity actually reached. ``theta_0``
    is the squeezed quadrature phase of the exact pure state (its
    longitude alpha); the asymptotic condition leaves it None.
    """

    phi: float
    n_sq: float
    delta: float
    omega: float
    alpha: float
    beta: float
    sigma_achieved: float
    exact: bool
    theta_0: float | None = None

    def as_dict(self) -> dict:
        return asdict(self)


def _require_photons(n_sq: float):
    if n_sq <= 0.0:
        raise ValidationError(f"n_sq must be positive, got {n_sq}")


def _solution(exact: bool, **inputs) -> PureStateSolution:
    """A computed drive with its sphere angles and the purity it reaches.

    The exact state's alpha is also theta_0; the asymptotic one has alpha = 0,
    and its purity is that of the state at Phi = pi exactly (see OPPOSED).
    Raises NumericalError where the drive or the state overflows.
    """
    if not (math.isfinite(inputs["omega"]) and math.isfinite(inputs["delta"])):
        raise NumericalError(
            f"the pure-state drive overflows at n_sq = {inputs['n_sq']!r} "
            f"(omega = {inputs['omega']!r}, delta = {inputs['delta']!r})")
    params = AtomFieldParams(**inputs)
    alpha, beta = sphere_angles(params)
    alpha = alpha if exact else 0.0
    return PureStateSolution(
        phi=params.phi, n_sq=params.n_sq, delta=params.delta,
        omega=params.omega, alpha=alpha, beta=beta,
        sigma_achieved=_steady_state(SCALAR if exact else OPPOSED, params).sigma,
        exact=exact,
        theta_0=alpha if exact else None,
    )


def is_opposed_phase(phi: float) -> bool:
    """Phi equals pi modulo 2 pi, within OPPOSED_PHASE_TOL."""
    return abs(math.remainder(phi - math.pi, TWO_PI)) < OPPOSED_PHASE_TOL


def pure_state(n_sq: float, phi: float, eta: float = 1.0) -> PureStateSolution:
    """The drive that makes the steady state pure, at any Phi != pi (mod 2 pi).

    delta = tan(Phi/2) / (4 (N + 1/2 + M)) and omega = sqrt(M) /
    (|cos(Phi/2)| (sqrt(N+1) + sqrt(N))). alpha and beta come from
    ``metrics.sphere_angles``, and theta_0 = alpha. Raises ValidationError
    for eta != 1, where no drive is pure, and at Phi = pi, where the drive
    diverges (see ``condition_phi_pi``); NumericalError where it overflows.
    """
    _require_photons(n_sq)
    if eta != 1.0:
        raise ValidationError(
            f"no drive gives a pure state for eta < 1; the closed form "
            f"needs eta = 1, got {eta}"
        )
    if is_opposed_phase(phi):
        raise ValidationError(
            "the pure drive diverges at phi = pi (mod 2 pi); use the "
            "large-detuning condition, which needs a detuning"
        )
    m = decay_rates(n_sq, 1.0, 0.0)[0]  # inf, not a warning, on overflow
    half = 0.5 * phi
    return _solution(
        True, n_sq=n_sq, eta=eta, phi=phi,
        omega=math.sqrt(m) / (abs(math.cos(half))
                              * (math.sqrt(n_sq + 1.0) + math.sqrt(n_sq))),
        delta=math.tan(half) / (4.0 * (n_sq + 0.5 + m)),
    )


def condition_phi_pi(n_sq: float, delta: float, eta: float = 1.0,
                     phi: float = math.pi) -> PureStateSolution:
    """Asymptotic pure state at Phi = pi for large detuning.

    omega = 2 delta sqrt(M) (sqrt(N+1) + sqrt(N)), which is 2 delta sqrt(M)
    / (sqrt(N+1) - sqrt(N)) without the cancelling difference; purity
    improves as delta grows past Gamma - gM. Warns when delta is below ten
    times that margin, and raises NumericalError where the drive overflows.
    alpha = 0 is the asymptotic longitude. ``phi`` may be any phase equal
    to pi modulo 2 pi; the solution reports it, and its purity is that at
    Phi = pi exactly.
    """
    _require_photons(n_sq)
    if delta <= 0.0:
        raise ValidationError(f"delta must be positive, got {delta}")
    if not is_opposed_phase(phi):
        raise ValidationError(f"phi must equal pi modulo 2 pi, got {phi}")
    # Gamma - gM is gamma_x at Phi = pi; an overflowed M is caught with the drive
    m, _, margin, _, _ = _rates(OPPOSED, n_sq, eta, phi)
    if delta < 10.0 * margin:
        warnings.warn(
            f"delta = {delta:g} is below 10 * (Gamma - gM) = {10.0 * margin:g}; "
            "the pure-state condition is asymptotic in delta",
            AsymptoticConditionWarning,
            stacklevel=2,
        )
    omega = 2.0 * delta * math.sqrt(m) * (math.sqrt(n_sq + 1.0) + math.sqrt(n_sq))
    return _solution(False, n_sq=n_sq, eta=eta, phi=phi, omega=omega, delta=delta)


def sz_plus_half_grid(n_sq, phi, omega, delta):
    """Closed form for <sz> + 1/2 at eta = 1, over scalars or arrays.

    [(N + 1/2 + M cosPhi) omega^2 + (2N - 1)(delta^2 + 1/4)] /
    [2 ((N + 1/2 + M cosPhi) omega^2 + (delta^2 + 1/4)(2N + 1))]

    Vanishing at the maximal-squeezing drive, where <sz> = -1/2.
    """
    gamma_x = decay_rates(n_sq, 1.0, phi)[2]
    drive = gamma_x * (omega * omega)  # N + 1/2 + M cosPhi = gamma_x
    lorentz = delta * delta + 0.25
    num = drive + (2.0 * n_sq - 1.0) * lorentz
    den = 2.0 * (drive + lorentz * (2.0 * n_sq + 1.0))
    return num / den


def find_pure_curve(
    phi: float,
    n_sq: float,
    delta: float,
    eta: float = 1.0,
) -> tuple[float, float]:
    """Drive strength maximising purity on a fixed (phi, N, delta) slice.

    omega = sqrt(w_pure) from the closed form of ``drive_optima``, or 0
    when w_pure is negative; it is taken as 2^e sqrt(w_pure / 4^e), so it
    stays finite where w_pure = omega^2 overflows (past |delta| ~ 1e154).
    Sigma is evaluated there with the steady-state kernel, or, where omega
    overflows too (past |delta| ~ 8e307), it is the closed form's finite
    sigma_max. Returns (omega, sigma_max); raises NoPureStateError when
    the slice never comes within 1e-4 of purity, and NumericalError when
    the steady state, or the drive omega of a near-pure slice, overflows.
    Points with sigma_max >= 1 - 1e-7 count as pure.
    """
    _require_photons(n_sq)
    n_sq, eta, phi, delta = (float(x) for x in (n_sq, eta, phi, delta))
    e, _, _, w_pure, sigma = _scaled_optima(SCALAR, n_sq, eta, phi, delta)
    # also 0 when NaN
    omega = SCALAR.ldexp(math.sqrt(w_pure), e) if w_pure > 0.0 else 0.0
    if omega < math.inf:
        sigma = BlochState(*backends._steady(
            SCALAR, n_sq, eta, phi, omega, delta)).sigma
    if sigma < 1.0 - 1e-4:
        raise NoPureStateError(
            f"no pure state on this slice; best Sigma = {sigma:.6f}",
            sigma_max=sigma,
        )
    if omega == math.inf:
        raise NumericalError(
            f"the purest drive overflows at delta = {delta!r} (omega = inf)")
    if not math.isfinite(sigma):
        raise NumericalError(
            f"the steady state overflows at delta = {delta!r}, omega = {omega!r}")
    return omega, sigma


def is_pure_point(sigma: float) -> bool:
    """Purity label used by the curve finder and the CLI."""
    return sigma >= 1.0 - 1e-7
