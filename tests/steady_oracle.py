"""Independent oracle for the steady state: a pivoted solve of A s = -b."""

import numpy as np

from rfsq import build_system


def solve_steady(params) -> np.ndarray:
    """Steady Bloch vector by LAPACK partial-pivoted LU on the assembled system."""
    system = build_system(params)
    return np.linalg.solve(system.a_matrix, -system.b_vector)
