"""Reference oracle for the box search: one problem at a time, in scalars.

The search that the exact candidate enumeration of
``optimize.minimize_variance_batch`` replaced: the best of ``coarse``
detunings, refined by a scalar golden-section loop between its
neighbours. The enumeration must never be above it.
"""

import math

import numpy as np

from rfsq.bloch import steady_state_grid
from rfsq.optimize import drive_optima

#: iteration cap of the golden-section refinement over delta
GOLDEN_MAX_ITER = 200


def scalar_golden_max(f, lo, hi, xtol, max_iter):
    """Golden-section maximum of f on [lo, hi]; returns (x, f(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= xtol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def scalar_search(n_sq, phi, bounds, eta=1.0, coarse=64):
    """(omega, delta, value, n_evals, converged) of one box problem."""
    (w_lo, w_hi), (d_lo, d_hi) = bounds
    n_evals = 0

    def profile(delta):
        nonlocal n_evals
        n_evals += np.size(delta)
        w_min = drive_optima(n_sq, eta, phi, delta)[0]
        omega = np.clip(np.sqrt(np.fmax(w_min, 0.0)), w_lo, w_hi)
        with np.errstate(all="ignore"):
            sx, sy, sz = steady_state_grid(n_sq, eta, phi, omega, delta)
        value = 1.0 + sz - sx * sx - sy * sy
        # a node whose state overflowed (NaN) is the worst of all
        return omega, np.where(np.isnan(value), np.inf, value)

    ds = np.linspace(d_lo, d_hi, 1 if d_lo == d_hi else coarse)
    omegas, vals = profile(ds)
    i = int(np.argmin(vals))
    omega, delta, value = float(omegas[i]), float(ds[i]), float(vals[i])
    converged = True
    if ds.size > 1:
        xtol = 1e-10 * max(1.0, abs(d_lo), abs(d_hi))
        x, neg = scalar_golden_max(
            lambda d: -float(profile(d)[1]), ds[max(i - 1, 0)],
            ds[min(i + 1, ds.size - 1)], xtol, GOLDEN_MAX_ITER)
        converged = n_evals - ds.size < GOLDEN_MAX_ITER + 3
        if -neg < value:
            delta, value = x, -neg
            omega = float(profile(x)[0])
    return omega, delta, value, n_evals, converged


def grid_minimum(n_sq, phi, bounds, eta=1.0, nodes=400):
    """Least S_opt of each problem on a nodes x nodes kernel grid of the box.

    A frozen side is one node; a node whose state overflows counts as inf.
    """
    omega, delta = (np.linspace(lo, hi, 1 if lo == hi else nodes)
                    for lo, hi in bounds)
    n_sq, phi = (np.asarray(x, dtype=float)[:, None, None] for x in (n_sq, phi))
    with np.errstate(all="ignore"):
        sx, sy, sz = steady_state_grid(n_sq, eta, phi, omega[:, None],
                                       delta[None, :])
        value = 1.0 + sz - sx * sx - sy * sy
    return np.where(np.isnan(value), np.inf, value).min(axis=(1, 2))
