"""Special-case pure-state drives, kept as oracles for ``pure.pure_state``.

Each returns (delta, omega, alpha) for eta = 1: the resonant
drive at Phi = 0, the drive at Phi = pi/2 with delta = Gamma - gM, and
the N = 1/8 family at any Phi that is not pi (mod 2 pi), whose alpha is
also its squeezed quadrature phase theta_0.
"""

import math


def _sqrt_sum(n_sq):
    return math.sqrt(n_sq + 1.0) + math.sqrt(n_sq)


def drive_phi0(n_sq):
    """omega = sqrt(M)/(sqrt(N+1) + sqrt(N)) on resonance."""
    m = math.sqrt(n_sq * (n_sq + 1.0))
    return 0.0, math.sqrt(m) / _sqrt_sum(n_sq), math.pi / 2.0


def drive_phi_half_pi(n_sq):
    """delta = Gamma - gM = (1/4)/(N + 1/2 + M), omega = sqrt(2M)/(sqrt(N+1) + sqrt(N))."""
    m = math.sqrt(n_sq * (n_sq + 1.0))
    return (0.25 / (n_sq + 0.5 + m), math.sqrt(2.0 * m) / _sqrt_sum(n_sq),
            math.pi / 4.0)


def drive_n_eighth(phi):
    """With t = tan(Phi/2): delta = t/4, omega = sqrt(3(1 + t^2))/4, alpha = atan2(1, t)."""
    t = math.tan(phi / 2.0)
    return t / 4.0, 0.25 * math.sqrt(3.0 * (1.0 + t * t)), math.atan2(1.0, t)
