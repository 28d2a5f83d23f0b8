"""The closed-form steady-state kernel and the RK4 map."""

import math

import numpy as np
import pytest

from rfsq import AtomFieldParams, steady_state
from rfsq.backends import relax, rk4_affine_map, steady_grid

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
    cases = []
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
        cases.append((a, b, s, h, textbook))
    # a stack of (P, 3, 3) systems with one step each gives every point's map
    a, b, s, h, textbook = (np.array(x) for x in zip(*cases))
    e, c = rk4_affine_map(a, b, h)
    assert e.shape == (20, 3, 3) and c.shape == (20, 3)
    stacked = np.einsum("pij,pj->pi", e, s) + c
    assert np.allclose(stacked, textbook, rtol=1e-13, atol=1e-14)


def test_relax_stops_each_point_on_its_own():
    # ds/dt = -s + (0, 0, -1); RK4 is unstable at h = 5, so only the middle
    # point passes the blow-up sentinel, in its first 16-step block
    a = np.array([-np.eye(3)] * 3)
    b = np.array([[0.0, 0.0, -1.0]] * 3)
    h = np.array([0.1, 5.0, 0.2])
    e, c = rk4_affine_map(a, b, h)
    states, resid, steps = relax(e, c, a, b, np.zeros(3), 1e-12, 10**6)
    assert np.isinf(resid[1]) and steps[1] == 16
    assert resid[[0, 2]].max() <= 1e-12
    assert np.allclose(states[[0, 2]], [0.0, 0.0, -1.0], atol=1e-12)
    assert steps[0] > steps[2] > 16  # the longer step converges sooner


def test_closed_form_is_polymorphic():
    scalar = steady_grid(0.125, 1.0, 0.0, math.sqrt(3.0) / 4.0, 0.0)
    assert scalar[1] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-14)
    arr = steady_grid(
        np.full(4, 0.125), 1.0, 0.0, np.full(4, math.sqrt(3.0) / 4.0), 0.0)
    assert np.allclose(arr[1], math.sqrt(3.0) / 2.0, atol=1e-14)


@pytest.mark.filterwarnings("error")
def test_overflow_gives_the_limit_or_nan():
    with np.errstate(all="ignore"):
        # L = q + delta^2 overflows at omega = 0: the undriven state, exactly
        undriven = steady_grid(0.2, 1.0, math.pi, 0.0, 1e200)
        # omega^2 overflows alone: the strong-drive limit (0, 0, 0)
        saturated = steady_grid(0.2, 1.0, math.pi, 1e200, 0.0)
        # both overflow: no limit, so NaN (it was a finite sz = -0.714)
        lost = steady_grid(0.2, 1.0, math.pi, 2e200, 1e200)
    assert undriven[:2] == (0.0, 0.0)
    assert undriven[2] == -1.0 / (2.0 * 0.2 + 1.0)
    assert [abs(x) for x in saturated] == [0.0, 0.0, 0.0]
    assert math.isnan(lost[2])


def _mpmath_steady(params, mp):
    """Bloch steady state at 50 digits, with the rates written out directly."""
    n, eta, phi, omega, delta = (mp.mpf(float(x)) for x in (
        params.n_sq, params.eta, params.phi, params.omega, params.delta))
    half = mp.mpf(1) / 2
    m = eta * mp.sqrt(n * (n + 1))
    m_cos = m * mp.cos(phi)
    m_sin = m * mp.sin(phi)
    a = mp.matrix([
        [-(n + half + m_cos), -(delta + m_sin), 0],
        [delta - m_sin, -(n + half - m_cos), -omega],
        [0, omega, -2 * (n + half)],
    ])
    s = mp.lu_solve(a, mp.matrix([0, 0, 1]))
    return np.array([float(s[i]) for i in range(3)])


def test_closed_form_is_accurate_against_fifty_digits():
    # gamma_x = gamma (N + 1/2 + M cos Phi) cancels near Phi = pi for large
    # N; half of the draws sit there, the rest span the whole domain
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        found = AtomFieldParams(n_sq=1e3, phi=math.pi, delta=25.0, omega=1e5)
        assert np.abs(steady_state(found).as_array()
                      - _mpmath_steady(found, mp)).max() <= 2e-15
        rng = np.random.default_rng(71)
        worst = 0.0
        for k in range(256):
            if k % 2:
                phi = rng.uniform(0.0, 2.0 * math.pi)
            else:
                phi = math.pi + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, 0.0)
            params = AtomFieldParams(
                n_sq=10.0 ** rng.uniform(-6.0, 3.0),
                eta=1.0 if k % 3 == 0 else rng.uniform(0.0, 1.0),
                phi=phi,
                omega=10.0 ** rng.uniform(-6.0, 5.0),
                delta=rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 6.0),
            )
            error = np.abs(steady_state(params).as_array() - _mpmath_steady(params, mp))
            worst = max(worst, error.max())
    assert worst <= 2e-15
