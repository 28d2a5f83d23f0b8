"""Closed-form steady state and RK4 relaxation kernels.

Two operations dominate runtime: evaluating the steady Bloch vector,
from one point to large parameter grids, and iterating the fixed-step
integrator map until a trajectory relaxes.

Steady state: the solution of ``A s + b = 0`` is written out in closed
form (adjugate solution of the 3x3 system), which is exact for the Bloch
matrix whose determinant never vanishes for valid parameters. The
expression is written once over an array namespace (see _carrier):
``steady_grid`` evaluates it with numpy over broadcastable arrays, and
never expands constant inputs to the grid's size; ``bloch.steady_state``
evaluates it on Python floats, without numpy.

Relaxation: one step of the classic fixed-step RK4 scheme applied to a
constant-coefficient linear system is the affine map ``s -> E s + c``
with ``E`` the degree-4 Taylor polynomial of ``expm(h A)``. Its fixed
point is exactly the steady state, so relaxation accuracy is limited
only by how long the map is iterated, never by the step size. The map
and the relaxation loop work on a stack of P systems at once, each with
its own step, stopping residual and step cap: one Python loop iterates
every point that is still active, and a pre-composed 16-step block of
each point's map amortises it further.
"""

from __future__ import annotations

from .params import _rates

#: burst length between residual checks during relaxation
CHECK_STRIDE = 16


def steady_grid(n_sq, eta, phi, omega, delta):
    """Steady Bloch vector (sx, sy, sz) over scalars or broadcastable arrays.

    The inputs go through np.asarray, so each component is a numpy array
    or numpy scalar, float inputs included.
    """
    import numpy as np

    return _steady(np, *(np.asarray(x, dtype=float)
                         for x in (n_sq, eta, phi, omega, delta)))


def _steady(xp, n_sq, eta, phi, omega, delta):
    """``steady_grid`` on the namespace xp (see _carrier).

    L = q + delta^2 overflows from |delta| ~ 1.3e154, so past |delta| =
    2^500 delta, omega and u are divided by 2^e, with 2^e the binary
    order of delta, and q by 4^e: an exact scaling that leaves every
    other node's bits alone. When omega^2 overflows even so, the state is
    the strong-drive limit (0, 0, 0). No denominator can be zero: L >= 1/4,
    gamma_z >= 1 and gamma_x > 0.
    """
    m, q, gx, _, gz = _rates(xp, n_sq, eta, phi)
    u = delta + m * xp.sin(phi)
    # one pass over the delta input, which a scan passes axis-sized
    far = xp.abs(delta) > 2.0**500
    scaled = xp.any(far)
    if scaled:
        e = xp.where(far, xp.frexp(delta)[1], 0)
        q = xp.ldexp(q, -2 * e)
        omega, delta, u = (xp.ldexp(x, -e) for x in (omega, delta, u))
    # gx gy + u v = q + delta^2, with v = delta - M sin(phi)
    lorentz = q + delta * delta
    # sz = -L / D and sy = omega gx / D, with D = gz L + omega^2 gx; divided
    # through by L, neither needs the cancelling (omega sy - 1) / gz
    gx_l = gx / lorentz
    sz = -1.0 / (gz + omega * omega * gx_l)
    sy = -omega * gx_l * sz
    sx = -u * sy / gx
    if scaled:
        sy = xp.ldexp(sy, -e)  # sx is invariant: u sy scales by 2^e 2^-e
    return sx, sy, sz


def _mv(m, v):
    """Matrix-vector product over stacks: (..., 3, 3) @ (..., 3) -> (..., 3)."""
    return (m @ v[..., None])[..., 0]


def rk4_affine_map(a, b, h):
    """One-step propagator (E, c) of classic RK4 for ds/dt = a s + b.

    Works on one system (a (3, 3), b (3,), scalar h) or on a stack (a
    (P, 3, 3), b (P, 3), h scalar or (P,)); E and c take the stack's shape.
    """
    import numpy as np

    h = np.asarray(h, dtype=float)
    hm = h[..., None, None]
    hv = h[..., None]
    eye = np.eye(3)
    ha = hm * a
    e = eye + ha @ (eye + (ha / 2.0) @ (eye + (ha / 3.0) @ (eye + ha / 4.0)))
    k1 = b
    k2 = _mv(a, (hv / 2.0) * k1) + b
    k3 = _mv(a, (hv / 2.0) * k2) + b
    k4 = _mv(a, hv * k3) + b
    c = (hv / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return e, c


def relax(e, c, a, b, s0, stop_resid, max_steps, blow=10.0):
    """Iterate P stacked RK4 one-step maps until each residual drops below target.

    e, a are (P, 3, 3), c, b are (P, 3); s0 is (P, 3) or one (3,) start
    for every point; stop_resid and max_steps are scalars or (P,). Each
    point stops on its own, once its residual (the max-norm of
    ``a @ state + b``) is at most its stop_resid or its step count reaches
    max_steps; only the points still active are iterated. Returns
    (states (P, 3), residuals (P,), steps (P,)); a residual of inf flags
    a point whose state passed the blow-up sentinel.
    """
    import numpy as np

    # pre-compose CHECK_STRIDE steps of each map: (E, c) -> (E^k, sum E^j c)
    eb, cb = e, c
    strides = CHECK_STRIDE.bit_length() - 1  # CHECK_STRIDE is a power of two
    for _ in range(strides):
        cb = _mv(eb, cb) + cb
        eb = eb @ eb
    count = len(eb)
    states = np.array(np.broadcast_to(s0, (count, 3)), dtype=float)
    stop = np.broadcast_to(np.asarray(stop_resid, dtype=float), (count,))
    cap = np.broadcast_to(np.asarray(max_steps), (count,))
    steps = np.zeros(count, dtype=np.int64)
    resid = np.abs(_mv(a, states) + b).max(axis=-1)

    # the active points, compacted whenever some finish; every one of them
    # has taken the same number of steps
    idx = np.flatnonzero((resid > stop) & (cap > 0))
    ebw, cbw, aw, bw, sw = eb[idx], cb[idx], a[idx], b[idx], states[idx]
    stopw, capw = stop[idx], cap[idx]
    taken = 0
    while idx.size:
        sw = _mv(ebw, sw) + cbw
        taken += CHECK_STRIDE
        blown = np.abs(sw).max(axis=-1) > blow
        rw = np.abs(_mv(aw, sw) + bw).max(axis=-1)
        rw[blown] = np.inf
        done = blown | ~(rw > stopw) | (taken >= capw)
        if done.any():
            fin = idx[done]
            states[fin] = sw[done]
            resid[fin] = rw[done]
            steps[fin] = taken
            keep = ~done
            idx, ebw, cbw, aw, bw, sw = (
                x[keep] for x in (idx, ebw, cbw, aw, bw, sw))
            stopw, capw = stopw[keep], capw[keep]
    return states, resid, steps
