"""Closed-form steady state and RK4 relaxation kernels.

Two operations dominate runtime: evaluating the steady Bloch vector,
from one point to large parameter grids, and iterating the fixed-step
integrator map until a trajectory relaxes.

Steady state: the solution of ``A s + b = 0`` is written out in closed
form (adjugate solution of the 3x3 system), which is exact for the Bloch
matrix whose determinant never vanishes for valid parameters. The
expression is plain numpy, so it evaluates scalars and broadcastable
arrays alike; constant inputs are never expanded to the grid's size.

Relaxation: one step of the classic fixed-step RK4 scheme applied to a
constant-coefficient linear system is the affine map ``s -> E s + c``
with ``E`` the degree-4 Taylor polynomial of ``expm(h A)``. Its fixed
point is exactly the steady state, so relaxation accuracy is limited
only by how long the map is iterated, never by the step size. The
Python loop is amortised by pre-composing a 16-step block of the map.
"""

from __future__ import annotations

import numpy as np

#: burst length between residual checks during relaxation
CHECK_STRIDE = 16


def steady_grid(gamma, n_sq, eta, phi, omega, delta):
    """Steady Bloch vector (sx, sy, sz) over scalars or broadcastable arrays."""
    m = eta * np.sqrt(n_sq * (n_sq + 1.0))
    gm = gamma * m
    big = gamma * (n_sq + 0.5)
    cos_phi = np.cos(phi)
    sin_phi = np.sin(phi)
    gx = big + gm * cos_phi
    gy = big - gm * cos_phi
    gz = 2.0 * big
    u = delta + gm * sin_phi
    v = delta - gm * sin_phi
    den = gx * gy * gz + omega * omega * gx + u * v * gz
    sy = omega * gamma * gx / den
    sx = -u * sy / gx
    sz = (omega * sy - gamma) / gz
    return sx, sy, sz


def rk4_affine_map(a: np.ndarray, b: np.ndarray, h: float):
    """One-step propagator (E, c) of classic RK4 for ds/dt = a s + b."""
    eye = np.eye(3)
    ha = h * a
    e = eye + ha @ (eye + (ha / 2.0) @ (eye + (ha / 3.0) @ (eye + ha / 4.0)))
    k1 = b
    k2 = a @ ((h / 2.0) * k1) + b
    k3 = a @ ((h / 2.0) * k2) + b
    k4 = a @ (h * k3) + b
    c = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return e, c


def relax(e, c, a, b, s0, stop_resid, max_steps, blow=10.0):
    """Iterate the RK4 one-step map until the residual drops below target.

    Returns (state, residual, steps). The residual is the max-norm of
    ``a @ state + b``; a residual of inf flags the blow-up sentinel.
    """
    # pre-compose CHECK_STRIDE steps of the map: (E, c) -> (E^k, sum E^j c)
    eb = e.copy()
    cb = c.copy()
    strides = CHECK_STRIDE.bit_length() - 1  # CHECK_STRIDE is a power of two
    for _ in range(strides):
        cb = eb @ cb + cb
        eb = eb @ eb
    s = np.asarray(s0, dtype=float).copy()
    steps = 0
    resid = np.abs(a @ s + b).max()
    while resid > stop_resid and steps < max_steps:
        s = eb @ s + cb
        steps += CHECK_STRIDE
        if np.abs(s).max() > blow:
            return s, np.inf, steps
        resid = np.abs(a @ s + b).max()
    return s, resid, steps
