"""The closed-form steady-state kernel and the RK4 map."""

import math

import numpy as np
import pytest

from rfsq import AtomFieldParams, steady_state
from rfsq.backends import rk4_affine_map, steady_grid

from steady_oracle import solve_steady


def test_closed_form_matches_oracle_over_extreme_domain():
    # the robustness domain: N in 1e-6..1e3, |Delta| <= 1e6, Omega <= 1e5,
    # any eta and Phi; magnitudes are log-uniform so every scale is drawn
    rng = np.random.default_rng(67)
    worst = 0.0
    for _ in range(20_000):
        params = AtomFieldParams(
            n_sq=10.0 ** rng.uniform(-6.0, 3.0),
            eta=rng.uniform(0.0, 1.0),
            phi=rng.uniform(0.0, 2.0 * math.pi),
            omega=10.0 ** rng.uniform(-6.0, 5.0),
            delta=rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 6.0),
        )
        state = steady_state(params).as_array()
        worst = max(worst, np.abs(state - solve_steady(params)).max())
    assert worst <= 1e-13


def test_rk4_map_equals_textbook_step():
    rng = np.random.default_rng(61)
    for _ in range(20):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal(3)
        s = rng.standard_normal(3)
        h = rng.uniform(0.001, 0.1)
        k1 = a @ s + b
        k2 = a @ (s + (h / 2.0) * k1) + b
        k3 = a @ (s + (h / 2.0) * k2) + b
        k4 = a @ (s + h * k3) + b
        textbook = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        e, c = rk4_affine_map(a, b, h)
        assert np.allclose(e @ s + c, textbook, rtol=1e-13, atol=1e-14)


def test_closed_form_is_polymorphic():
    scalar = steady_grid(1.0, 0.125, 1.0, 0.0, math.sqrt(3.0) / 4.0, 0.0)
    assert scalar[1] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-14)
    arr = steady_grid(
        1.0, np.full(4, 0.125), 1.0, 0.0, np.full(4, math.sqrt(3.0) / 4.0), 0.0)
    assert np.allclose(arr[1], math.sqrt(3.0) / 2.0, atol=1e-14)
