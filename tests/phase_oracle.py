"""Independent oracle for the optimal quadrature phase, read off the steady state."""

import math

from rfsq.errors import NumericalError
from rfsq.metrics import COHERENCE_FLOOR


class DegeneratePhaseError(NumericalError):
    """Coherence is zero, so every quadrature phase ties; none is optimal."""


def optimal_phase_numeric(state) -> float:
    """Phase in [0, pi) maximising the squared coherence amplitude."""
    c2 = state.sx**2 + state.sy**2
    if c2 <= COHERENCE_FLOOR:
        raise DegeneratePhaseError(
            "coherence is zero; all quadrature phases tie"
        )
    return math.atan2(-state.sy, state.sx) % math.pi
