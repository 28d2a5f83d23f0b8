"""Optical Bloch dynamics of the driven atom in the squeezed reservoir.

The expectation values s = (<sx>, <sy>, <sz>) obey the linear system
ds/dt = A s + b with

    A = [[-gamma_x,          -(delta + M sinPhi),  0     ],
         [ delta - M sinPhi,  -gamma_y,            -omega ],
         [ 0,                  omega,              -gamma_z]],
    b = (0, 0, -1),

with every rate and frequency in units of gamma. A is Hurwitz for every
valid parameter set, so the steady state is unique and attracting. It is
computed in closed form: ``backends.steady_grid`` over arrays, and on
Python floats without numpy for ``steady_state``. Relaxation under the
fixed-step RK4 map, the independent time-domain oracle, lives in
``verify`` with the assembled matrix and its stability certificate;
``relax_to_steady`` reaches it for one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import backends
from ._carrier import SCALAR, carrier, writer
from .errors import NumericalError
from .params import AtomFieldParams


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
        return sigma_xyz(self.sx, self.sy, self.sz)

    @property
    def s_opt(self) -> float:
        """Variance of the optimal quadrature (see ``metrics``); -1/4 is the floor."""
        return s_opt_xyz(self.sx, self.sy, self.sz)

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([self.sx, self.sy, self.sz])

    @classmethod
    def ground(cls) -> "BlochState":
        return cls(0.0, 0.0, -1.0)


def sigma_xyz(sx, sy, sz, work=None):
    """sx^2 + sy^2 + sz^2 from raw Bloch components; polymorphic over
    arrays. With a bound ``_carrier.Workspace``, a result that fills the
    block is written into its output slice."""
    xp = carrier(sx, sy, sz)
    put, last = writer(work, sx, sy, sz)
    mul = xp.multiply
    return last(xp.add, put(xp.add, put(mul, sx, sx), put(mul, sy, sy)),
                put(mul, sz, sz))


def s_opt_xyz(sx, sy, sz, work=None):
    """1 + sz - sx^2 - sy^2 from raw Bloch components (see sigma_xyz)."""
    xp = carrier(sx, sy, sz)
    put, last = writer(work, sx, sy, sz)
    sub, mul = xp.subtract, xp.multiply
    return last(sub, put(sub, put(xp.add, 1.0, sz), put(mul, sx, sx)),
                put(mul, sy, sy))


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


def steady_state_grid(n_sq, eta, phi, omega, delta, work=None):
    """Steady Bloch vectors over broadcastable parameter arrays.

    Returns three float64 arrays (sx, sy, sz) in the broadcast shape.
    Constant inputs stay scalars: nothing is expanded to the grid size.
    With a ``_carrier.Workspace`` (what ``scan`` passes, bound to one
    block), a component that fills the block is a view of a workspace
    buffer, overwritten by the next call with that workspace.
    """
    import numpy as np

    return backends.steady_grid(
        *(np.asarray(x, dtype=float) for x in (n_sq, eta, phi, omega, delta)),
        work=work,
    )


def relax_to_steady(params: AtomFieldParams, tol: float = 1e-10) -> BlochState:
    """Relax one point from the ground state under the RK4 map (see
    ``verify.relax_batch``, which raises as it describes)."""
    from .verify import relax_batch

    return BlochState(*relax_batch(*params.inputs().values(), tol=tol)[0].tolist())
