"""Independent oracle for the steady state: a pivoted solve of A s = -b."""

import numpy as np

from rfsq.bloch import system_grid


def system_of(params):
    """The Bloch system of one parameter point."""
    return system_grid(**params.inputs())


def solve_steady(params) -> np.ndarray:
    """Steady Bloch vector by LAPACK partial-pivoted LU on the assembled system."""
    system = system_of(params)
    return np.linalg.solve(system.a_matrix, -system.b_vector)
