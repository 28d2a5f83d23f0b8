"""Independent oracles for the steady state: a pivoted solve of A s = -b,
and Cramer's rule at high precision."""

import numpy as np

from rfsq.verify import system_grid


def system_of(params):
    """The Bloch matrix A and vector b of one parameter point."""
    return system_grid(**params.inputs())


def solve_steady(params) -> np.ndarray:
    """Steady Bloch vector by LAPACK partial-pivoted LU on the assembled system."""
    a, b = system_of(params)
    return np.linalg.solve(a, -b)


def cramer_steady(params, mp) -> np.ndarray:
    """Steady Bloch vector at mpmath's working precision by Cramer's rule,
    which takes any magnitude (mpmath's LU solve calls a system with
    entries near 1e200 singular); the rates are written out directly."""
    n, eta, phi, omega, delta = (mp.mpf(float(x)) for x in (
        params.n_sq, params.eta, params.phi, params.omega, params.delta))
    half = mp.mpf(1) / 2
    m = eta * mp.sqrt(n * (n + 1))
    a = [[-(n + half + m * mp.cos(phi)), -(delta + m * mp.sin(phi)), 0],
         [delta - m * mp.sin(phi), -(n + half - m * mp.cos(phi)), -omega],
         [0, omega, -2 * (n + half)]]

    def det(rows):
        return (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))

    rhs = [0, 0, 1]
    full = det(a)
    return np.array([
        float(det([[rhs[r] if c == i else a[r][c] for c in range(3)]
                   for r in range(3)]) / full)
        for i in range(3)])
