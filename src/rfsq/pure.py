"""Drive settings that relax the atom into a pure steady state.

For a given squeezing phase there is a drive (omega, delta) under which
the damped, driven atom becomes fully polarised (Sigma = 1). Closed
forms exist for Phi = 0, pi/2 and (asymptotically) pi, and a full
analytic family at N = 1/8 realises Sigma = 1 together with <sz> = -1/2,
the combination that saturates the -0.25 variance floor. Away from the
closed forms, the drive strength that maximises Sigma at a fixed detuning
is itself a closed form (``optimize.drive_optima``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

from .bloch import steady_state, steady_state_grid
from .errors import (
    AsymptoticConditionWarning,
    NoPureStateError,
    PhaseOutOfRangeError,
    UnitMismatchError,
    ValidationError,
)
from .metrics import sphere_angles
from .optimize import drive_optima
from .params import AtomFieldParams, decay_rates, derive_rates

#: photon number of the maximal-squeezing family
N_MAXIMAL = 0.125


@dataclass(frozen=True)
class PureStateSolution:
    """Parameters of a pure-state working point and the purity achieved.

    ``exact`` is True for the analytic conditions; the large-detuning
    condition is asymptotic and reports the purity actually reached.
    ``theta_0`` carries the optimal quadrature phase for the
    maximal-squeezing family.
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


def _solution(phi, n_sq, eta, omega, delta, alpha, exact=True, theta_0=None):
    """A working point with its sphere colatitude and the purity it reaches."""
    params = AtomFieldParams(n_sq=n_sq, eta=eta, phi=phi, omega=omega, delta=delta)
    return PureStateSolution(
        phi=phi, n_sq=n_sq, delta=delta, omega=omega, alpha=alpha,
        beta=sphere_angles(params)[1], sigma_achieved=steady_state(params).sigma,
        exact=exact, theta_0=theta_0,
    )


def condition_phi0(n_sq: float, eta: float = 1.0) -> PureStateSolution:
    """Pure state at Phi = 0: resonant drive with omega = sqrt(M)/(sqrt(N+1)+sqrt(N))."""
    _require_photons(n_sq)
    m = derive_rates(AtomFieldParams(n_sq=n_sq, eta=eta)).m_corr
    omega = math.sqrt(m) / (math.sqrt(n_sq + 1.0) + math.sqrt(n_sq))
    return _solution(0.0, n_sq, eta, omega, 0.0, alpha=math.pi / 2.0)


def condition_phi_half_pi(n_sq: float, eta: float = 1.0) -> PureStateSolution:
    """Pure state at Phi = pi/2: delta = Gamma - gM, omega = sqrt(2M)/(sqrt(N+1)+sqrt(N))."""
    _require_photons(n_sq)
    m, q, *_ = decay_rates(1.0, n_sq, eta, 0.0)
    delta = float(q / (n_sq + 0.5 + m))  # Gamma - gM without cancellation
    omega = math.sqrt(2.0 * m) / (math.sqrt(n_sq + 1.0) + math.sqrt(n_sq))
    return _solution(math.pi / 2.0, n_sq, eta, omega, delta, alpha=math.pi / 4.0)


def condition_phi_pi(n_sq: float, delta: float, eta: float = 1.0) -> PureStateSolution:
    """Asymptotic pure state at Phi = pi for large detuning.

    omega = 2 delta sqrt(M)/(sqrt(N+1) - sqrt(N)); purity improves as
    delta grows past Gamma - gM. Warns when delta is below ten times
    that margin. alpha = 0 is the asymptotic longitude.
    """
    _require_photons(n_sq)
    if delta <= 0.0:
        raise ValidationError(f"delta must be positive, got {delta}")
    m, q, *_ = decay_rates(1.0, n_sq, eta, 0.0)
    margin = q / (n_sq + 0.5 + m)  # Gamma - gM without cancellation
    if delta < 10.0 * margin:
        warnings.warn(
            f"delta = {delta:g} is below 10 * (Gamma - gM) = {10.0 * margin:g}; "
            "the pure-state condition is asymptotic in delta",
            AsymptoticConditionWarning,
            stacklevel=2,
        )
    omega = 2.0 * delta * math.sqrt(m) / (math.sqrt(n_sq + 1.0) - math.sqrt(n_sq))
    return _solution(math.pi, n_sq, eta, omega, delta, alpha=0.0, exact=False)


def maximal_family(phi: float, eta: float = 1.0) -> PureStateSolution:
    """Maximal-squeezing working point at N = 1/8 for a given phase.

    With t = tan(phi/2) the drive delta = t/4, omega = sqrt(3(1+t^2))/4
    yields Sigma = 1 and <sz> = -1/2 simultaneously, hence a variance of
    exactly -0.25 in the theta_0 = atan2(1, t) quadrature. The family
    diverges at phi = pi (delta -> inf with omega -> sqrt(3) * delta),
    which is reported as out of range.
    """
    if not 0.0 <= phi < 2.0 * math.pi:
        raise PhaseOutOfRangeError(f"phi must lie in [0, 2*pi), got {phi}")
    if abs(phi - math.pi) < 1e-8:
        raise PhaseOutOfRangeError(
            "the family diverges at phi = pi: delta grows without bound "
            "with omega -> sqrt(3) * delta; use the large-detuning "
            "condition instead"
        )
    if eta != 1.0:
        raise ValidationError("the maximal-squeezing family requires eta = 1")
    t = math.tan(phi / 2.0)
    delta = t / 4.0
    omega = 0.25 * math.sqrt(3.0 * (1.0 + t * t))
    theta_0 = math.atan2(1.0, t)
    return _solution(phi, N_MAXIMAL, eta, omega, delta, alpha=theta_0,
                     theta_0=theta_0)


def sz_plus_half(params: AtomFieldParams) -> float:
    """Closed form for <sz> + 1/2, printed in gamma = 1 (ideal reservoir) units.

    [(N + 1/2 + M cosPhi) omega^2 + (2N - 1)(delta^2 + 1/4)] /
    [2 ((N + 1/2 + M cosPhi) omega^2 + (delta^2 + 1/4)(2N + 1))]

    Vanishing at the maximal-squeezing drive, where <sz> = -1/2. Refuses
    gamma != 1 and eta != 1, for which this form does not hold.
    """
    if params.gamma != 1.0:
        raise UnitMismatchError(
            f"closed form for <sz> + 1/2 requires gamma = 1, got {params.gamma}"
        )
    if params.eta != 1.0:
        raise UnitMismatchError(
            f"closed form for <sz> + 1/2 requires eta = 1, got {params.eta}"
        )
    return sz_plus_half_grid(params.n_sq, params.phi, params.omega, params.delta)


def sz_plus_half_grid(n_sq, phi, omega, delta):
    """``sz_plus_half`` over scalars or broadcastable arrays (gamma = eta = 1)."""
    gamma_x = decay_rates(1.0, n_sq, 1.0, phi)[2]
    drive = gamma_x * omega**2  # N + 1/2 + M cosPhi = gamma_x
    lorentz = delta**2 + 0.25
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
    when w_pure is negative; Sigma is evaluated there with the
    steady-state kernel. Returns (omega, sigma_max); raises
    NoPureStateError when the slice never comes within 1e-4 of purity.
    Points with sigma_max >= 1 - 1e-7 count as pure.
    """
    _require_photons(n_sq)
    w_pure = drive_optima(n_sq, eta, phi, delta)[2]
    omega = math.sqrt(w_pure) if w_pure > 0.0 else 0.0  # also when NaN
    sx, sy, sz = steady_state_grid(1.0, n_sq, eta, phi, omega, delta)
    sigma = float(sx * sx + sy * sy + sz * sz)
    if sigma < 1.0 - 1e-4:
        raise NoPureStateError(
            f"no pure state on this slice; best Sigma = {sigma:.6f}",
            sigma_max=sigma,
        )
    return omega, sigma


def is_pure_point(sigma: float) -> bool:
    """Purity label used by the curve finder and the CLI."""
    return sigma >= 1.0 - 1e-7
