"""Optical Bloch dynamics of the driven atom in the squeezed reservoir.

The expectation values s = (<sx>, <sy>, <sz>) obey the linear system
ds/dt = A s + b with

    A = [[-gamma_x,          -(delta + M sinPhi),  0     ],
         [ delta - M sinPhi,  -gamma_y,            -omega ],
         [ 0,                  omega,              -gamma_z]],
    b = (0, 0, -1),

with every rate and frequency in units of gamma. A is Hurwitz for every
valid parameter set (Routh-Hurwitz margins are strictly positive), so
the steady state is unique and attracting. It is computed in closed form
(``backends.steady_grid`` over arrays, and on Python floats without numpy
for ``steady_state``); relaxation under the fixed-step RK4 map
(``relax_batch``) provides an independent time-domain oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import backends
from ._carrier import SCALAR
from .errors import (
    NoConvergenceError,
    NumericalError,
    StepTooLargeError,
    ValidationError,
)
from .params import AtomFieldParams, decay_rates

@dataclass(frozen=True)
class BlochState:
    """Bloch vector (<sx>, <sy>, <sz>) of the two-level atom.

    The components are floats, or arrays of one shape for a stack of
    states; ``sigma`` and ``s_opt`` are then arrays too.
    """

    sx: float
    sy: float
    sz: float

    @property
    def sigma(self) -> float:
        """Squared Bloch-vector length; 1 marks a pure (fully polarised) state."""
        return self.sx * self.sx + self.sy * self.sy + self.sz * self.sz

    @property
    def s_opt(self) -> float:
        """Variance of the optimal quadrature (see ``metrics``); -1/4 is the floor."""
        return 1.0 + self.sz - self.sx * self.sx - self.sy * self.sy

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([self.sx, self.sy, self.sz])

    @classmethod
    def ground(cls) -> "BlochState":
        return cls(0.0, 0.0, -1.0)


@dataclass(frozen=True, eq=False)
class BlochSystem:
    """Coefficients of the linear system ds/dt = a_matrix @ s + b_vector."""

    a_matrix: np.ndarray
    b_vector: np.ndarray


def system_grid(n_sq, eta, phi, omega, delta) -> BlochSystem:
    """Bloch coefficients over broadcastable parameter arrays.

    a_matrix is (..., 3, 3) and b_vector (..., 3), with ... the broadcast
    shape: one system for scalar inputs, a stack for arrays.
    """
    import numpy as np

    n_sq, eta, phi, omega, delta = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (n_sq, eta, phi, omega, delta)))
    m, _, gamma_x, gamma_y, gamma_z = decay_rates(n_sq, eta, phi)
    m_sin = m * np.sin(phi)
    zero = np.zeros_like(n_sq)
    a = np.stack([
        np.stack([-gamma_x, -(delta + m_sin), zero], axis=-1),
        np.stack([delta - m_sin, -gamma_y, -omega], axis=-1),
        np.stack([zero, omega, -gamma_z], axis=-1),
    ], axis=-2)
    b = np.stack([zero, zero, zero - 1.0], axis=-1)
    return BlochSystem(a_matrix=a, b_vector=b)


def steady_state(params: AtomFieldParams) -> BlochState:
    """Unique steady state of the Bloch equations.

    Evaluated on Python floats, without numpy. Raises NumericalError when
    the closed form overflows (for example when N(N+1) exceeds the float
    range).
    """
    return _steady_state(SCALAR, params)


def _steady_state(xp, params: AtomFieldParams) -> BlochState:
    """``steady_state`` on a scalar namespace xp (see _carrier)."""
    sx, sy, sz = backends._steady(xp, *(float(x) for x in params.inputs().values()))
    if not (math.isfinite(sx) and math.isfinite(sy) and math.isfinite(sz)):
        raise NumericalError(
            f"steady state is not finite at {params} "
            f"(sx, sy, sz = {sx}, {sy}, {sz})"
        )
    return BlochState(sx, sy, sz)


def steady_state_grid(n_sq, eta, phi, omega, delta):
    """Steady Bloch vectors over broadcastable parameter arrays.

    Returns three float64 arrays (sx, sy, sz) in the broadcast shape.
    Constant inputs stay scalars: nothing is expanded to the grid size.
    """
    import numpy as np

    return backends.steady_grid(
        *(np.asarray(x, dtype=float) for x in (n_sq, eta, phi, omega, delta))
    )


def routh_hurwitz_margins(system: BlochSystem):
    """Stability certificate (c2, c0, c2*c1 - c0); all positive iff Hurwitz.

    c2, c1 and c0 are the coefficients of det(lam*I - A) = lam^3 + c2 lam^2
    + c1 lam + c0. Over a stack of systems (a_matrix (..., 3, 3)) each
    margin is an array.
    """
    import numpy as np

    a = system.a_matrix
    c2 = -np.trace(a, axis1=-2, axis2=-1)
    c1 = (  # sum of the principal 2x2 minors
        a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
        + a[..., 0, 0] * a[..., 2, 2] - a[..., 0, 2] * a[..., 2, 0]
        + a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1]
    )
    c0 = -np.linalg.det(a)
    return c2, c0, c2 * c1 - c0


def spectral_abscissa(system: BlochSystem):
    """Largest real part among the eigenvalues of the Bloch matrix.

    Over a stack of systems, one value per system.
    """
    import numpy as np

    return np.linalg.eigvals(system.a_matrix).real.max(axis=-1)


def relax_to_steady(
    params: AtomFieldParams,
    s0: BlochState | None = None,
    tol: float = 1e-10,
) -> BlochState:
    """Relax to the steady state by iterating the fixed-step RK4 map.

    Integrates ds/dt = A s + b from s0 (ground state by default) until
    the state error bound ||A^-1||_inf * ||ds/dt||_inf drops below tol
    (which also guarantees ||ds/dt||_inf < tol). For a linear
    system the RK4 map's fixed point is the exact steady state, so the
    step size is chosen from the stability bound alone.

    Raises NoConvergenceError when at least 200 slow time constants pass
    without reaching the target (reports the residual and the time
    integrated, which a doubling pass of ``backends.relax`` may carry to
    twice the cap).
    """
    start = None if s0 is None else s0.as_array()
    return BlochState(*relax_batch([params], start, tol)[0].tolist())


def relax_batch(params_seq, s0=None, tol: float = 1e-10) -> np.ndarray:
    """Relax many parameter points at once; returns their states as (P, 3).

    Each point is relaxed exactly as ``relax_to_steady`` describes, with
    its own step, stopping residual and time cap (at least 200 slow time
    constants), and with the bits it gets alone, from s0 (a (3,) or
    (P, 3) array; the ground state by default) to tol (a scalar or one
    per point). Raises StepTooLargeError or NoConvergenceError for the
    first failing point, naming its index.
    """
    import numpy as np

    if np.any(np.asarray(tol) <= 0.0):
        raise ValidationError(f"tol must be positive, got {tol}")
    if s0 is None:
        s0 = BlochState.ground().as_array()
    system = system_grid(*np.array(
        [list(params.inputs().values()) for params in params_seq]).T)
    a, b = system.a_matrix, system.b_vector
    a_norm = np.abs(a).sum(axis=-1).max(axis=-1)
    h = 0.25 / (a_norm + 1.0)
    ainv_norm = np.abs(np.linalg.inv(a)).sum(axis=-1).max(axis=-1)
    stop_resid = tol * np.minimum(1.0, 1.0 / ainv_norm)

    # time cap: at least 200 time constants of the slowest decaying mode,
    # which can be far slower than min(gamma_x, gamma_y, gamma_z) when the
    # coherences mix into slow/fast quadrature combinations
    abscissa = spectral_abscissa(system)
    rates = -np.diagonal(a, axis1=1, axis2=2)  # gamma_x, gamma_y, gamma_z
    rho_slow = np.minimum(-abscissa, rates.min(axis=-1))
    t_cap = 200.0 / rho_slow
    max_steps = np.ceil(t_cap / h).astype(np.int64)

    e, c = backends.rk4_affine_map(a, b, h)
    states, resid, steps = backends.relax(e, c, a, b, s0, stop_resid, max_steps)
    failed = np.flatnonzero(~(resid <= stop_resid))
    if failed.size:
        k = failed[0]
        if not np.isfinite(resid[k]):
            raise StepTooLargeError(
                f"relaxation trajectory of point {k} left the physical ball")
        raise NoConvergenceError(
            f"relaxation residual {resid[k]:.3e} of point {k} still above "
            f"{stop_resid[k]:.3e} after t = {steps[k] * h[k]:.3g}",
            residual=float(resid[k]),
        )
    return states
