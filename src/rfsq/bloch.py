"""Optical Bloch dynamics of the driven atom in the squeezed reservoir.

The expectation values s = (<sx>, <sy>, <sz>) obey the linear system
ds/dt = A s + b with

    A = [[-gamma_x,          -(delta + g M sinPhi),  0     ],
         [ delta - g M sinPhi, -gamma_y,            -omega ],
         [ 0,                   omega,              -gamma_z]],
    b = (0, 0, -gamma),

where g M is shorthand for gamma * m_corr. A is Hurwitz for every valid
parameter set (Routh-Hurwitz margins are strictly positive), so the
steady state is unique and attracting. It is computed in closed form
(``backends.steady_grid``); a fixed-step RK4 integrator provides an
independent time-domain oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import backends
from .errors import (
    NoConvergenceError,
    NumericalError,
    StepTooLargeError,
    ValidationError,
)
from .params import AtomFieldParams, derive_rates

#: instability sentinel: no physical Bloch component can approach this
BLOW_LIMIT = 10.0


@dataclass(frozen=True)
class BlochState:
    """Bloch vector (<sx>, <sy>, <sz>) of the two-level atom."""

    sx: float
    sy: float
    sz: float

    @property
    def sigma(self) -> float:
        """Squared Bloch-vector length; 1 marks a pure (fully polarised) state."""
        return self.sx * self.sx + self.sy * self.sy + self.sz * self.sz

    def as_array(self) -> np.ndarray:
        return np.array([self.sx, self.sy, self.sz])

    @classmethod
    def from_array(cls, arr) -> "BlochState":
        return cls(float(arr[0]), float(arr[1]), float(arr[2]))

    @classmethod
    def ground(cls) -> "BlochState":
        return cls(0.0, 0.0, -1.0)


@dataclass(frozen=True, eq=False)
class BlochSystem:
    """Coefficients of the linear system ds/dt = a_matrix @ s + b_vector."""

    a_matrix: np.ndarray
    b_vector: np.ndarray


def build_system(params: AtomFieldParams) -> BlochSystem:
    """Assemble the Bloch coefficient matrix and drive vector."""
    rates = derive_rates(params)
    gm_sin = params.gamma * rates.m_corr * math.sin(params.phi)
    a = np.array([
        [-rates.gamma_x, -(params.delta + gm_sin), 0.0],
        [params.delta - gm_sin, -rates.gamma_y, -params.omega],
        [0.0, params.omega, -rates.gamma_z],
    ])
    b = np.array([0.0, 0.0, -params.gamma])
    return BlochSystem(a_matrix=a, b_vector=b)


def steady_state(params: AtomFieldParams) -> BlochState:
    """Unique steady state of the Bloch equations.

    Raises NumericalError when the closed form overflows (for example
    when N(N+1) exceeds the float range).
    """
    with np.errstate(all="ignore"):
        sx, sy, sz = backends.steady_grid(
            params.gamma, params.n_sq, params.eta,
            params.phi, params.omega, params.delta,
        )
    if not (math.isfinite(sx) and math.isfinite(sy) and math.isfinite(sz)):
        raise NumericalError(
            f"steady state is not finite at {params} "
            f"(sx, sy, sz = {sx}, {sy}, {sz})"
        )
    return BlochState(float(sx), float(sy), float(sz))


def steady_state_grid(gamma, n_sq, eta, phi, omega, delta):
    """Steady Bloch vectors over broadcastable parameter arrays.

    Returns three float64 arrays (sx, sy, sz) in the broadcast shape.
    Constant inputs stay scalars: nothing is expanded to the grid size.
    """
    return backends.steady_grid(
        *(np.asarray(x, dtype=float) for x in (gamma, n_sq, eta, phi, omega, delta))
    )


def default_step(params: AtomFieldParams) -> float:
    """Default integrator step, small against every frequency in the system."""
    rates = derive_rates(params)
    return 0.01 / max(1.0, params.omega, abs(params.delta), rates.gamma_z)


def evolve(
    params: AtomFieldParams,
    s0: BlochState,
    t_final: float,
    dt: float | None = None,
) -> list[tuple[float, BlochState]]:
    """Classic fixed-step RK4 trajectory from s0 over [0, t_final].

    Each step applies the one-step RK4 map ``s -> E s + c`` of the linear
    system (``backends.rk4_affine_map``).

    Returns the ordered list of (t, state) samples including both
    endpoints. Raises StepTooLargeError if any component leaves the
    physical ball (instability sentinel).
    """
    if dt is None:
        dt = default_step(params)
    if dt <= 0.0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if t_final < 0.0:
        raise ValidationError(f"t_final must be non-negative, got {t_final}")
    system = build_system(params)
    a = system.a_matrix
    b = system.b_vector
    e, c = backends.rk4_affine_map(a, b, dt)
    s = s0.as_array()
    out = [(0.0, s0)]
    n_full = int(t_final / dt)
    remainder = t_final - n_full * dt
    for i in range(n_full + (remainder > 0.0)):
        if i == n_full:  # the final partial step gets its own map
            e, c = backends.rk4_affine_map(a, b, remainder)
        s = e @ s + c
        t = (i + 1) * dt if i < n_full else t_final
        if np.abs(s).max() > BLOW_LIMIT:
            raise StepTooLargeError(
                f"state magnitude exceeded {BLOW_LIMIT} at t = {t:.6g}; reduce dt"
            )
        out.append((t, BlochState.from_array(s)))
    return out


def characteristic_coefficients(system: BlochSystem) -> tuple[float, float, float]:
    """Coefficients (c2, c1, c0) of det(lam*I - A) = lam^3 + c2 lam^2 + c1 lam + c0."""
    a = system.a_matrix
    c2 = -np.trace(a)
    c1 = (  # sum of the principal 2x2 minors
        a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
        + a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
    )
    c0 = -np.linalg.det(a)
    return float(c2), float(c1), float(c0)


def routh_hurwitz_margins(system: BlochSystem) -> tuple[float, float, float]:
    """Stability certificate (c2, c0, c2*c1 - c0); all positive iff Hurwitz."""
    c2, c1, c0 = characteristic_coefficients(system)
    return c2, c0, c2 * c1 - c0


def spectral_abscissa(system: BlochSystem) -> float:
    """Largest real part among the eigenvalues of the Bloch matrix."""
    return float(np.linalg.eigvals(system.a_matrix).real.max())


def relax_to_steady(
    params: AtomFieldParams,
    s0: BlochState | None = None,
    tol: float = 1e-10,
) -> BlochState:
    """Relax to the steady state by iterating the fixed-step RK4 map.

    Integrates ds/dt = A s + b from s0 (ground state by default) until
    the state error bound ||A^-1||_inf * ||ds/dt||_inf drops below tol
    (which also guarantees ||ds/dt||_inf < tol * gamma). For a linear
    system the RK4 map's fixed point is the exact steady state, so the
    step size is chosen from the stability bound alone.

    Raises NoConvergenceError when 200 slow time constants pass without
    reaching the target (reports the residual).
    """
    start = None if s0 is None else s0.as_array()
    return BlochState.from_array(relax_batch([params], start, tol)[0])


def relax_batch(params_seq, s0=None, tol: float = 1e-10) -> np.ndarray:
    """Relax many parameter points at once; returns their states as (P, 3).

    Each point is relaxed exactly as ``relax_to_steady`` describes, with
    its own step, stopping residual and time cap, from s0 (a (3,) or
    (P, 3) array; the ground state by default) to tol (a scalar or one
    per point). Raises StepTooLargeError or NoConvergenceError for the
    first failing point, naming its index.
    """
    if np.any(np.asarray(tol) <= 0.0):
        raise ValidationError(f"tol must be positive, got {tol}")
    if s0 is None:
        s0 = BlochState.ground().as_array()
    systems = [build_system(params) for params in params_seq]
    a = np.stack([system.a_matrix for system in systems])
    b = np.stack([system.b_vector for system in systems])
    gamma = -b[:, 2]
    a_norm = np.abs(a).sum(axis=-1).max(axis=-1)
    h = 0.25 / (a_norm + gamma)
    ainv_norm = np.abs(np.linalg.inv(a)).sum(axis=-1).max(axis=-1)
    stop_resid = tol * np.minimum(gamma, 1.0 / ainv_norm)

    # time cap: 200 time constants of the slowest decaying mode, which can
    # be far slower than min(gamma_x, gamma_y, gamma_z) when the coherences
    # mix into slow/fast quadrature combinations
    abscissa = np.linalg.eigvals(a).real.max(axis=-1)
    rates = -np.diagonal(a, axis1=1, axis2=2)  # gamma_x, gamma_y, gamma_z
    rho_slow = np.minimum(-abscissa, rates.min(axis=-1))
    t_cap = 200.0 / rho_slow
    max_steps = np.ceil(t_cap / h).astype(np.int64)

    e, c = backends.rk4_affine_map(a, b, h)
    states, resid, _ = backends.relax(e, c, a, b, s0, stop_resid, max_steps,
                                      BLOW_LIMIT)
    failed = np.flatnonzero(~(resid <= stop_resid))
    if failed.size:
        k = failed[0]
        if not np.isfinite(resid[k]):
            raise StepTooLargeError(
                f"relaxation trajectory of point {k} left the physical ball")
        raise NoConvergenceError(
            f"relaxation residual {resid[k]:.3e} of point {k} still above "
            f"{stop_resid[k]:.3e} after t = {t_cap[k]:.3g}",
            residual=float(resid[k]),
        )
    return states
