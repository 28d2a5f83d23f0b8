"""Bloch system assembly, steady states, and the RK4 time-domain oracle."""

import math

import numpy as np
import pytest

from rfsq import (
    AtomFieldParams,
    BlochState,
    relax_to_steady,
    steady_state,
    steady_state_grid,
)
from rfsq import verify
from rfsq.errors import (
    NoConvergenceError,
    NumericalError,
    StepTooLargeError,
    ValidationError,
)
from rfsq.verify import (
    _draws,
    _params,
    relax,
    relax_batch,
    rk4_affine_map,
    routh_hurwitz_margins,
)

from steady_oracle import solve_steady, system_of


def random_params(rng):
    return AtomFieldParams(
        n_sq=rng.uniform(0.0, 2.0),
        phi=rng.uniform(0.0, 2.0 * math.pi),
        omega=rng.uniform(0.0, 30.0),
        delta=rng.uniform(-30.0, 30.0),
    )


class TestBuildSystem:
    def test_free_decay(self):
        a, b = system_of(AtomFieldParams(n_sq=0.0, omega=0.0, delta=0.0))
        assert np.allclose(a, np.diag([-0.5, -0.5, -1.0]))
        assert np.array_equal(b, [0.0, 0.0, -1.0])

    def test_special_photon_number_on_resonance(self):
        a, _ = system_of(AtomFieldParams(
            n_sq=0.125, phi=0.0, delta=0.0, omega=math.sqrt(3.0) / 4.0))
        w = math.sqrt(3.0) / 4.0
        expected = np.array([
            [-1.0, 0.0, 0.0],
            [0.0, -0.25, -w],
            [0.0, w, -1.25],
        ])
        assert np.allclose(a, expected, atol=1e-15)

    def test_quarter_phase_couplings(self):
        # sin(phi) = 1 splits the coherence couplings by +-gM
        a, _ = system_of(AtomFieldParams(
            n_sq=0.1, phi=math.pi / 2.0, delta=1.0, omega=2.0))
        m = math.sqrt(0.11)
        assert a[0, 1] == pytest.approx(-(1.0 + m), abs=1e-15)
        assert a[1, 0] == pytest.approx(1.0 - m, abs=1e-15)


class TestSteadyState:
    def test_undriven_atom_reaches_ground_state(self):
        for delta in (0.0, 3.0, -7.5):
            state = steady_state(AtomFieldParams(n_sq=0.0, omega=0.0, delta=delta))
            assert np.allclose(state.as_array(), [0.0, 0.0, -1.0], atol=1e-14)

    def test_hand_solved_resonant_point(self):
        state = steady_state(AtomFieldParams(
            n_sq=0.125, phi=0.0, delta=0.0, omega=math.sqrt(3.0) / 4.0))
        assert state.sx == pytest.approx(0.0, abs=1e-14)
        assert state.sy == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-14)
        assert state.sz == pytest.approx(-0.5, abs=1e-14)

    def test_detuned_maximal_point_is_nearly_pure(self):
        state = steady_state(AtomFieldParams(
            n_sq=0.125, phi=math.pi, delta=12.5, omega=21.65))
        assert state.sz == pytest.approx(-0.5, abs=5e-3)
        assert state.sigma == pytest.approx(1.0, abs=5e-3)

    def test_undriven_squeezed_limit(self):
        for n in (0.1, 0.5, 2.0):
            state = steady_state(AtomFieldParams(n_sq=n, omega=0.0, delta=2.0))
            assert state.sx == 0.0 and state.sy == 0.0
            assert state.sz == pytest.approx(-1.0 / (2.0 * n + 1.0), rel=1e-14)

    def test_residual_bound(self):
        rng = np.random.default_rng(11)
        cases = [random_params(rng) for _ in range(300)]
        cases += [
            AtomFieldParams(n_sq=0.125, phi=math.pi, delta=12.5, omega=21.65),
            AtomFieldParams(n_sq=0.125, phi=math.pi, delta=1000.0,
                            omega=1000.0 * math.sqrt(3.0)),
        ]
        for params in cases:
            a, b = system_of(params)
            s = steady_state(params).as_array()
            resid = np.abs(a @ s + b).max()
            assert resid < 1e-12 * max(1.0, np.abs(b).max())

    def test_singular_matrix_is_reported(self):
        unsolvable = [
            AtomFieldParams(n_sq=1e200, omega=1.0),  # N (N + 1) overflows
        ]
        for params in unsolvable:
            with pytest.raises(NumericalError):
                steady_state(params)

    def test_sigma_never_exceeds_one(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            assert steady_state(random_params(rng)).sigma <= 1.0 + 1e-9


class TestGrid:
    def test_grid_matches_scalar_solver(self):
        rng = np.random.default_rng(17)
        n = rng.uniform(0.0, 2.0, 200)
        phi = rng.uniform(0.0, 2.0 * math.pi, 200)
        omega = rng.uniform(0.0, 30.0, 200)
        delta = rng.uniform(-30.0, 30.0, 200)
        sx, sy, sz = steady_state_grid(n, 1.0, phi, omega, delta)
        for k in range(200):
            oracle = solve_steady(AtomFieldParams(
                n_sq=n[k], phi=phi[k], omega=omega[k], delta=delta[k]))
            assert abs(sx[k] - oracle[0]) < 1e-13
            assert abs(sy[k] - oracle[1]) < 1e-13
            assert abs(sz[k] - oracle[2]) < 1e-13

    def test_grid_broadcasts(self):
        omega = np.linspace(0.0, 3.0, 7)[:, None]
        delta = np.linspace(0.0, 1.0, 5)[None, :]
        sx, sy, sz = steady_state_grid(0.125, 1.0, 0.5, omega, delta)
        assert sx.shape == (7, 5)


def rk4_trajectory_end(params, s0, t_final, dt):
    """State at t_final after iterating the one-step RK4 map from s0."""
    e, c = rk4_affine_map(*system_of(params), dt)
    s = s0.as_array()
    for _ in range(round(t_final / dt)):
        s = e @ s + c
    return s


class TestEvolve:
    """Time evolution under the one-step RK4 map."""

    def test_ground_state_is_a_fixed_point(self):
        final = rk4_trajectory_end(AtomFieldParams(n_sq=0.0, omega=0.0),
                                   BlochState.ground(), 5.0, 0.01)
        assert np.allclose(final, [0.0, 0.0, -1.0], atol=1e-12)

    def test_free_decay_matches_closed_form(self):
        # gamma_z = 1 at N = 0: sz(t) = exp(-t) - 1 from sz(0) = 0
        final = rk4_trajectory_end(AtomFieldParams(n_sq=0.0, omega=0.0),
                                   BlochState(0.0, 0.0, 0.0), 10.0, 0.001)
        assert final[2] == pytest.approx(math.exp(-10.0) - 1.0, abs=1e-12)

    def test_relaxes_to_steady_state(self):
        params = AtomFieldParams(n_sq=0.125, phi=0.0, delta=0.0,
                                 omega=math.sqrt(3.0) / 4.0)
        final = rk4_trajectory_end(params, BlochState.ground(), 60.0, 0.01)
        target = steady_state(params).as_array()
        assert np.abs(final - target).max() < 1e-8

    def test_instability_sentinel(self):
        # a step far beyond the stability bound: the relaxation loop flags
        # the point with an infinite residual instead of iterating on
        a, b = (x[None] for x in system_of(AtomFieldParams(omega=30.0)))
        e, c = rk4_affine_map(a, b, 1.0)
        states, resid, steps = relax(e, c, a, b, BlochState.ground().as_array(),
                                     1e-12, 10_000)
        assert resid[0] == np.inf
        assert steps[0] < 10_000


class TestRelax:
    def test_agrees_with_direct_solve(self):
        cases = [
            AtomFieldParams(n_sq=0.125, phi=0.0, omega=math.sqrt(3.0) / 4.0),
            AtomFieldParams(n_sq=0.5, phi=math.pi, delta=12.5, omega=21.65),
            AtomFieldParams(n_sq=2.0, phi=2.1, delta=-17.0, omega=25.0),
        ]
        for params in cases:
            direct = steady_state(params).as_array()
            relaxed = relax_to_steady(params, tol=1e-10).as_array()
            assert np.abs(direct - relaxed).max() < 1e-9

    def test_oracle_equivalence_sweep(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            params = random_params(rng)
            direct = steady_state(params).as_array()
            relaxed = relax_to_steady(params, tol=1e-9).as_array()
            assert np.abs(direct - relaxed).max() < 1e-7

    def test_tol_validation(self):
        with pytest.raises(ValidationError):
            relax_to_steady(AtomFieldParams(), tol=0.0)

    def test_unreachable_tolerance_reports_residual(self):
        with pytest.raises(NoConvergenceError) as err:
            relax_to_steady(AtomFieldParams(n_sq=0.3, omega=2.0), tol=1e-30)
        assert err.value.residual > 0.0


class TestRelaxBatch:
    def test_verify_draws_match_the_serial_loop(self):
        # each point of the batch gets the bits it gets alone
        draws = _draws(np.random.default_rng(42), 1000)
        batched = relax_batch(draws[0], 1.0, *draws[1:], tol=1e-9)
        assert batched.shape == (1000, 3)
        for point, state in zip(draws.T, batched):
            params = _params(*point)
            alone = relax_to_steady(params, tol=1e-9)
            assert np.array_equal(state, alone.as_array())
            assert np.abs(state - steady_state(params).as_array()).max() < 1e-7

    def test_failing_point_is_named(self):
        omega = np.array([0.5, 1.0, 2.0, 4.0])
        tol = np.array([1e-9, 1e-9, 1e-30, 1e-9])
        with pytest.raises(NoConvergenceError, match="point 2 ") as err:
            relax_batch(0.3, 1.0, 0.0, omega, 0.0, tol=tol)
        assert err.value.residual > 0.0

    def test_step_past_the_stability_bound_is_named(self, monkeypatch):
        # forty times the chosen step at point 1 alone: its RK4 map is
        # unstable, and its trajectory leaves the ball
        real = verify.rk4_affine_map
        monkeypatch.setattr(verify, "rk4_affine_map", lambda a, b, h: real(
            a, b, h * np.array([1.0, 40.0, 1.0])))
        with pytest.raises(StepTooLargeError, match="point 1 left"):
            relax_batch(0.3, 1.0, 0.0, np.array([0.5, 30.0, 2.0]), 0.0)

    def test_tol_validation(self):
        with pytest.raises(ValidationError):
            relax_batch(0.0, 1.0, 0.0, 0.0, np.zeros(2), tol=np.array([1e-9, 0.0]))


def test_stability_certificate_over_random_sweep():
    rng = np.random.default_rng(23)
    for k in range(1000):
        a, _ = system_of(random_params(rng))
        margins = routh_hurwitz_margins(a)
        assert min(margins) > 0.0
        if k % 20 == 0:
            assert np.linalg.eigvals(a).real.max() < 0.0
