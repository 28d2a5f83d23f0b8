"""The closed-form steady-state kernel, and the RK4 map of the verify oracle."""

import math

import numpy as np
import pytest

from rfsq import AtomFieldParams, steady_state
from rfsq.backends import steady_grid
from rfsq.params import decay_rates
from rfsq.verify import relax, rk4_affine_map

from steady_oracle import cramer_steady, solve_steady


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
    # ds/dt = -s + (0, 0, -1); RK4 is unstable at h = 5, so the middle
    # point passes the blow-up sentinel at its first check, after one step;
    # the others are checked after 1, 3, 7, ..., 2^k - 1 steps
    a = np.array([-np.eye(3)] * 3)
    b = np.array([[0.0, 0.0, -1.0]] * 3)
    h = np.array([0.1, 5.0, 0.2])
    e, c = rk4_affine_map(a, b, h)
    states, resid, steps = relax(e, c, a, b, np.zeros(3), 1e-12, 10**6)
    assert np.isinf(resid[1]) and steps[1] == 1
    assert resid[[0, 2]].max() <= 1e-12
    assert np.allclose(states[[0, 2]], [0.0, 0.0, -1.0], atol=1e-12)
    assert all(math.log2(n + 1).is_integer() for n in steps)
    assert steps[0] > steps[2] > 1  # the longer step converges sooner


@pytest.mark.filterwarnings("error")
def test_relax_flags_a_state_that_overflows_as_infinite():
    # ds/dt = +s is unstable; from a subnormal start the 512-step map
    # (4.07^512) overflows while the state is still far inside the ball,
    # so the state turns inf and NaN: its residual is inf, never NaN
    a = np.eye(3)[None]
    b = np.zeros((1, 3))
    e, c = rk4_affine_map(a, b, 1.42)
    states, resid, steps = relax(e, c, a, b, np.array([5e-324, 0.0, 0.0]),
                                 0.0, 10**6)
    assert not np.all(np.isfinite(states)) and resid[0] == np.inf
    assert steps[0] == 1023


def test_closed_form_is_polymorphic():
    scalar = steady_grid(0.125, 1.0, 0.0, math.sqrt(3.0) / 4.0, 0.0)
    assert scalar[1] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-14)
    arr = steady_grid(
        np.full(4, 0.125), 1.0, 0.0, np.full(4, math.sqrt(3.0) / 4.0), 0.0)
    assert np.allclose(arr[1], math.sqrt(3.0) / 2.0, atol=1e-14)


@pytest.mark.filterwarnings("error")
def test_overflow_gives_the_limit_or_the_exact_state():
    mp = pytest.importorskip("mpmath")
    with np.errstate(all="ignore"):
        # delta^2 overflows at omega = 0: the undriven state, exactly
        undriven = steady_grid(0.2, 1.0, math.pi, 0.0, 1e200)
    assert undriven[:2] == (0.0, 0.0)
    assert undriven[2] == -1.0 / (2.0 * 0.2 + 1.0)
    # omega^2 overflows alone: divided through by omega^2, the state (it
    # was the strong-drive limit (0, 0, 0), where sy = 1e-200); both
    # squares overflow: scaled by the order of delta, the state (it was
    # NaN, and before that a finite sz = -0.714)
    for omega, delta in ((1e200, 0.0), (2e200, 1e200)):
        with np.errstate(all="ignore"):
            got = np.array(steady_grid(0.2, 1.0, math.pi, omega, delta))
        with mp.workdps(50):
            want = cramer_steady(AtomFieldParams(
                n_sq=0.2, phi=math.pi, omega=omega, delta=delta), mp)
        assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want))
        assert got[1] != 0.0


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


@pytest.mark.filterwarnings("error")
def test_detuning_past_the_square_overflow_is_accurate():
    # L = q + delta^2 overflows from |delta| ~ 1.3e154; past 2^500 the
    # kernel divides delta, omega and u by the order of delta
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        # it exited 0 with sz = -0.7142857142857143
        found = AtomFieldParams(n_sq=0.2, phi=math.pi, delta=1.4e154,
                                omega=1.3e154)
        assert steady_state(found).sz == -0.6324472954115011
        assert cramer_steady(found, mp)[2] == -0.6324472954115011
        rng = np.random.default_rng(73)
        worst = 0.0
        for _ in range(200):
            delta = float(rng.choice((-1.0, 1.0))) * 10.0 ** rng.uniform(150.0, 308.0)
            params = AtomFieldParams(
                n_sq=10.0 ** rng.uniform(-6.0, 3.0),
                eta=rng.uniform(0.0, 1.0),
                phi=rng.uniform(0.0, 2.0 * math.pi),
                # from far below to far above |delta|, within the float range
                omega=min(abs(delta) * 10.0 ** rng.uniform(-10.0, 3.0), 1e308),
                delta=delta,
            )
            got = steady_state(params).as_array()
            want = cramer_steady(params, mp)
            worst = max(worst, (np.abs(got - want) / np.abs(want)).max())
    assert worst <= 2e-15


def test_scaling_leaves_the_other_nodes_bits_alone():
    # one node past 2^500 takes the whole call down the scaled path
    delta = np.array([0.0, -1.5, 3e5, 2.0**505, -2.0**510 * 1.7])
    omega = np.array([[0.5], [7.0], [2.0**506]])
    sx, sy, sz = steady_grid(0.3, 0.9, 1.1, omega, delta)
    for i in range(3):
        for j in range(5):
            one = steady_grid(0.3, 0.9, 1.1, omega[i, 0], delta[j])
            assert (sx[i, j], sy[i, j], sz[i, j]) == one
    # below 2^511 the scaled path is exact: the unscaled bits
    with np.errstate(all="ignore"):
        m, q, gx, _, gz = decay_rates(0.3, 0.9, 1.1)
        lorentz = q + delta[3:] ** 2
        sz_plain = -1.0 / (gz + 7.0 * 7.0 * gx / lorentz)
    assert np.array_equal(sz[1, 3:], sz_plain)
