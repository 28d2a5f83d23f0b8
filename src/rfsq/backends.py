"""Closed-form steady-state kernel, what every command evaluates.

The solution of ``A s + b = 0`` is written out in closed form (adjugate
solution of the 3x3 system), which is exact for the Bloch matrix whose
determinant never vanishes for valid parameters. The expression is
written once over an array namespace (see _carrier): ``steady_grid``
evaluates it with numpy over broadcastable arrays, and never expands
constant inputs to the grid's size; ``bloch.steady_state`` evaluates it
on Python floats, without numpy.
"""

from __future__ import annotations

from .params import _rates


def steady_grid(n_sq, eta, phi, omega, delta, work=None):
    """Steady Bloch vector (sx, sy, sz) over scalars or broadcastable arrays.

    The inputs go through np.asarray, so each component is a numpy array
    or numpy scalar, float inputs included. With a ``scan.Replay``, one call
    per block, a component that varies is a view of one of its buffers.
    """
    import numpy as np

    inputs = [np.asarray(x, dtype=float) for x in (n_sq, eta, phi, omega, delta)]
    if work is None:
        return _steady(np, *inputs)
    return work(_steady, np, *inputs)


def _steady(xp, n_sq, eta, phi, omega, delta):
    """``steady_grid`` on the namespace xp (see _carrier).

    L = q + delta^2 overflows from |delta| ~ 1.3e154, so past |delta| =
    2^500 delta, omega and u are divided by 2^e, with 2^e the binary
    order of delta, and q by 4^e: an exact scaling that leaves every
    other node's bits alone. Where the drive term omega^2 gamma_x / L
    overflows even so, sz and sy are divided through by omega^2 rather
    than L. No denominator can be zero: L >= 1/4, gamma_z >= 1 and
    gamma_x > 0. A scan's replay takes each ``xp.any`` for a guard.
    """
    m, q, gx, gz = _rates(xp, n_sq, eta, phi)
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
    # gx / L < 4 gz, so the drive term is finite unless omega^2 gz > 2^1021;
    # where it overflows, divide through by omega^2 instead
    with xp.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if xp.any(omega * omega * gz > 2.0**1021):
            strong = omega * omega * gx_l == xp.inf
            k = lorentz / omega / omega
            den = gz * k + gx
            sz = xp.where(strong, -k / den, sz)
            sy = xp.where(strong, gx / omega / den, sy)
    sx = -u * sy / gx
    if scaled:
        sy = xp.ldexp(sy, -e)  # sx is invariant: u sy scales by 2^e 2^-e
    return sx, sy, sz
