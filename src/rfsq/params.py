"""Physical parameters and the decay rates they set.

All rates and frequencies are plain numbers in units of the spontaneous
decay rate gamma: the results depend only on omega/gamma and delta/gamma,
so gamma itself is not an input. The squeezed reservoir is broadband and
characterised by its photon number N, the two-photon correlation strength
M = eta * sqrt(N(N+1)) with ideality eta in [0, 1], and the relative phase
Phi between the driving laser and the squeezed vacuum: with laser phase
phi_L and squeeze phase phi_S, Phi = 2 phi_L - phi_S. Only Phi enters the
Bloch equations, so it is the one phase taken as input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._carrier import carrier, writer
from .errors import ValidationError

TWO_PI = 2.0 * math.pi


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class AtomFieldParams:
    """Inputs for a coherently driven two-level atom in a squeezed vacuum.

    Attributes
    ----------
    n_sq : squeezed photon number N (>= 0)
    eta : squeezing-correlation ideality (0 <= eta <= 1; 1 is ideal)
    phi : relative phase Phi = 2 phi_L - phi_S, radians
    omega : Rabi frequency, in units of gamma (>= 0)
    delta : detuning of the atom from the laser, in units of gamma
    """

    n_sq: float = 0.0
    eta: float = 1.0
    phi: float = 0.0
    omega: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        for name in ("n_sq", "eta", "phi", "omega", "delta"):
            _require_finite(name, getattr(self, name))
        if self.n_sq < 0.0:
            raise ValidationError(f"n_sq must be non-negative, got {self.n_sq}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValidationError(f"eta must lie in [0, 1], got {self.eta}")
        if self.omega < 0.0:
            raise ValidationError(f"omega must be non-negative, got {self.omega}")

    def inputs(self) -> dict:
        """The five physical inputs by name."""
        return {
            "n_sq": self.n_sq, "eta": self.eta, "phi": self.phi,
            "omega": self.omega, "delta": self.delta,
        }


def decay_rates(n_sq, eta, phi):
    """M, q = (N + 1/2)^2 - M^2 and the rates (gamma_x, gamma_y, gamma_z).

    gamma_x and gamma_y are the decay rates of the in-phase and
    out-of-phase polarisation quadratures, gamma_z that of the population
    inversion; gamma_x + gamma_y = gamma_z = 2 Gamma.

    Polymorphic over scalars and broadcastable arrays. Every quantity is a
    sum of non-negative terms, so nothing cancels: q = (1 - eta^2) N(N+1)
    + 1/4, N + 1/2 - M = q / (N + 1/2 + M), and with cos Phi = 2 cos^2(Phi/2)
    - 1 the quadrature rates are N + 1/2 - M + 2 M cos^2(Phi/2) and
    N + 1/2 - M + 2 M sin^2(Phi/2).
    """
    xp = carrier(n_sq, eta, phi)
    m, q, gamma_x, gamma_z = _rates(xp, n_sq, eta, phi)
    sin_half = xp.sin(0.5 * phi)
    gamma_y = q / (n_sq + 0.5 + m) + 2.0 * m * (sin_half * sin_half)
    return m, q, gamma_x, gamma_y, gamma_z


def _rates(xp, n_sq, eta, phi, work=None):
    """(M, q, gamma_x, gamma_z) of ``decay_rates`` on the namespace xp,
    each operation through the ``put`` of ``_carrier.writer``. Nothing in
    the library but ``verify`` uses gamma_y, so only ``decay_rates`` forms
    it."""
    put, _ = writer(work, n_sq, eta, phi)
    add, mul = xp.add, xp.multiply
    # N(N + 1)
    n_n1 = put(mul, n_sq, put(add, n_sq, 1.0))
    m = put(mul, eta, put(xp.sqrt, n_n1))
    # q = (1 - eta)(1 + eta) N(N + 1) + 1/4
    q = put(add, put(mul, put(mul, put(xp.subtract, 1.0, eta),
                                put(add, 1.0, eta)), n_n1), 0.25)
    # N + 1/2 - M = q / (N + 1/2 + M)
    low = put(xp.true_divide, q, put(add, put(add, n_sq, 0.5), m))
    cos_half = put(xp.cos, put(mul, 0.5, phi))
    # gamma_x = N + 1/2 - M + 2 M cos^2(Phi/2)
    gamma_x = put(add, low, put(mul, put(mul, 2.0, m),
                                put(mul, cos_half, cos_half)))
    gamma_z = put(mul, 2.0, put(add, n_sq, 0.5))
    return m, q, gamma_x, gamma_z
