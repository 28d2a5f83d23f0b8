"""Reference oracles for the box search.

``scalar_search`` is the search that the exact candidate enumeration of
``optimize.minimize_variance_batch`` replaced: the best of ``coarse``
detunings, refined by a scalar golden-section loop between its
neighbours, one problem at a time. ``eigvals_minimum`` enumerates the
same candidates as the library but roots the polynomials with LAPACK's
eigenvalues of companion matrices, as the library did before its closed
forms. The enumeration must never be above either.
"""

import math

import numpy as np

from rfsq.bloch import BlochState, steady_state_grid
from rfsq.optimize import drive_optima
from rfsq.params import decay_rates

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


def _real_roots(coeffs):
    """Real parts of the roots of cubics, one per row of coefficients.

    Coefficients run from the highest power down. A leading coefficient
    below 1e-100 of the largest moves to the end, which multiplies the
    polynomial by delta: the lost root reads as 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        c = coeffs / np.max(np.abs(coeffs), axis=-1, keepdims=True)
    c = np.where(np.isfinite(c), c, 0.0)
    for _ in range(3):
        c = np.where(np.abs(c[..., :1]) > 1e-100, c, np.roll(c, -1, axis=-1))
    lead = np.where(c[..., :1] == 0.0, 1.0, c[..., :1])  # a zero polynomial: roots 0
    companion = np.zeros(c.shape[:-1] + (3, 3))
    companion[..., 0, :] = -c[..., 1:] / lead
    companion[..., 1, 0] = companion[..., 2, 1] = 1.0
    return np.linalg.eigvals(companion).real


def eigvals_minimum(n_sq, phi, bounds, eta=1.0):
    """(omega, delta, value) arrays of the box minima, with every candidate
    rooted by ``_real_roots``: the quadratic times delta, and the cubics."""
    (w_lo, w_hi), (d_lo, d_hi) = bounds
    n_sq, phi = (x[:, None] for x in np.broadcast_arrays(
        np.asarray(n_sq, dtype=float), np.asarray(phi, dtype=float)))
    with np.errstate(all="ignore"):
        m, q, gx, _, gz = decay_rates(n_sq, eta, phi)
        a = m * np.sin(phi)
        polys, shifts = [[-a, q - a * a - gx * gx, q * a, 0.0 * a]], [0]
        for omega in (w_lo, w_hi):
            k = max(math.frexp(omega)[1], 0)
            t = math.ldexp(1.0, -k)
            load = gz * q * t * t + gx * (omega * t) ** 2
            polys.append([gz * (gx - 1.0), -3.0 * a * gz * t,
                          (gx + 1.0) * load - 2.0 * gz * (a * a + gx * gx) * t * t,
                          a * load * t])
            shifts.append(k)
        roots = _real_roots(np.stack([np.concatenate(p, axis=1) for p in polys], 1))
        deltas = np.clip(np.concatenate(
            [np.full((len(n_sq), 2), (d_lo, d_hi)),
             np.ldexp(roots, np.array(shifts)[:, None]).reshape(len(n_sq), -1)],
            axis=1), d_lo, d_hi)
        omegas = np.clip(np.sqrt(np.fmax(drive_optima(n_sq, eta, phi, deltas)[0], 0.0)),
                         w_lo, w_hi)
        values = BlochState(*steady_state_grid(n_sq, eta, phi, omegas, deltas)).s_opt
    values = np.where(np.isnan(values), np.inf, values)
    i = np.argmin(values, axis=1)[:, None]
    return tuple(np.take_along_axis(x, i, axis=1)[:, 0]
                 for x in (omegas, deltas, values))
