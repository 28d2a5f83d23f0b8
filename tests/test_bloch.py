"""Bloch system assembly, steady states, and the time-domain oracle."""

import math

import numpy as np
import pytest

from rfsq import (
    AtomFieldParams,
    BlochState,
    build_system,
    evolve,
    relax_to_steady,
    steady_state,
    steady_state_grid,
)
from rfsq.backends import rk4_affine_map
from rfsq.bloch import relax_batch, routh_hurwitz_margins
from rfsq.errors import (
    NoConvergenceError,
    NumericalError,
    StepTooLargeError,
    ValidationError,
)
from rfsq.verify import _draw_params

from steady_oracle import solve_steady


def random_params(rng):
    return AtomFieldParams(
        n_sq=rng.uniform(0.0, 2.0),
        phi=rng.uniform(0.0, 2.0 * math.pi),
        omega=rng.uniform(0.0, 30.0),
        delta=rng.uniform(-30.0, 30.0),
    )


class TestBuildSystem:
    def test_free_decay(self):
        system = build_system(AtomFieldParams(n_sq=0.0, omega=0.0, delta=0.0))
        assert np.allclose(system.a_matrix, np.diag([-0.5, -0.5, -1.0]))
        assert np.array_equal(system.b_vector, [0.0, 0.0, -1.0])

    def test_special_photon_number_on_resonance(self):
        system = build_system(AtomFieldParams(
            n_sq=0.125, phi=0.0, delta=0.0, omega=math.sqrt(3.0) / 4.0))
        w = math.sqrt(3.0) / 4.0
        expected = np.array([
            [-1.0, 0.0, 0.0],
            [0.0, -0.25, -w],
            [0.0, w, -1.25],
        ])
        assert np.allclose(system.a_matrix, expected, atol=1e-15)

    def test_quarter_phase_couplings(self):
        # sin(phi) = 1 splits the coherence couplings by +-gM
        system = build_system(AtomFieldParams(
            n_sq=0.1, phi=math.pi / 2.0, delta=1.0, omega=2.0))
        m = math.sqrt(0.11)
        assert system.a_matrix[0, 1] == pytest.approx(-(1.0 + m), abs=1e-15)
        assert system.a_matrix[1, 0] == pytest.approx(1.0 - m, abs=1e-15)


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
            system = build_system(params)
            s = steady_state(params).as_array()
            resid = np.abs(system.a_matrix @ s + system.b_vector).max()
            assert resid < 1e-12 * max(1.0, np.abs(system.b_vector).max())

    def test_singular_matrix_is_reported(self):
        unsolvable = [
            AtomFieldParams(gamma=1e-300),  # det(A) underflows to zero
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
        sx, sy, sz = steady_state_grid(1.0, n, 1.0, phi, omega, delta)
        for k in range(200):
            oracle = solve_steady(AtomFieldParams(
                n_sq=n[k], phi=phi[k], omega=omega[k], delta=delta[k]))
            assert abs(sx[k] - oracle[0]) < 1e-13
            assert abs(sy[k] - oracle[1]) < 1e-13
            assert abs(sz[k] - oracle[2]) < 1e-13

    def test_grid_broadcasts(self):
        omega = np.linspace(0.0, 3.0, 7)[:, None]
        delta = np.linspace(0.0, 1.0, 5)[None, :]
        sx, sy, sz = steady_state_grid(1.0, 0.125, 1.0, 0.5, omega, delta)
        assert sx.shape == (7, 5)


class TestEvolve:
    def test_ground_state_is_a_fixed_point(self):
        traj = evolve(AtomFieldParams(n_sq=0.0, omega=0.0),
                      BlochState.ground(), 5.0)
        _, final = traj[-1]
        assert np.allclose(final.as_array(), [0.0, 0.0, -1.0], atol=1e-12)

    def test_free_decay_matches_closed_form(self):
        # gamma_z = 1 at N = 0: sz(t) = exp(-t) - 1 from sz(0) = 0
        traj = evolve(AtomFieldParams(n_sq=0.0, omega=0.0),
                      BlochState(0.0, 0.0, 0.0), 10.0, dt=0.001)
        t, final = traj[-1]
        assert t == pytest.approx(10.0, abs=1e-12)
        assert final.sz == pytest.approx(math.exp(-10.0) - 1.0, abs=1e-12)

    def test_relaxes_to_steady_state(self):
        params = AtomFieldParams(n_sq=0.125, phi=0.0, delta=0.0,
                                 omega=math.sqrt(3.0) / 4.0)
        traj = evolve(params, BlochState.ground(), 60.0, dt=0.01)
        _, final = traj[-1]
        target = steady_state(params).as_array()
        assert np.abs(final.as_array() - target).max() < 1e-8

    def test_instability_sentinel(self):
        with pytest.raises(StepTooLargeError):
            evolve(AtomFieldParams(omega=30.0), BlochState.ground(),
                   5.0, dt=1.0)

    def test_argument_validation(self):
        params = AtomFieldParams()
        with pytest.raises(ValidationError):
            evolve(params, BlochState.ground(), 1.0, dt=0.0)
        with pytest.raises(ValidationError):
            evolve(params, BlochState.ground(), -1.0)


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

    def test_from_arbitrary_start(self):
        state = relax_to_steady(AtomFieldParams(n_sq=0.0, omega=0.0),
                                BlochState(1.0, 0.0, 0.0), tol=1e-10)
        assert np.allclose(state.as_array(), [0.0, 0.0, -1.0], atol=1e-9)

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


def _serial_relax(params, tol):
    """One point at a time, as relaxation ran before it was batched."""
    system = build_system(params)
    a, b = system.a_matrix, system.b_vector
    a_norm = np.abs(a).sum(axis=1).max()
    h = 0.25 / (a_norm + params.gamma)
    ainv_norm = np.abs(np.linalg.inv(a)).sum(axis=1).max()
    stop_resid = tol * min(params.gamma, 1.0 / ainv_norm)
    rho_slow = min(-np.linalg.eigvals(a).real.max(), *(-np.diag(a)))
    max_steps = int(math.ceil(200.0 / rho_slow / h))
    eb, cb = rk4_affine_map(a, b, h)
    for _ in range(4):  # 16 steps per residual check
        cb = eb @ cb + cb
        eb = eb @ eb
    s = BlochState.ground().as_array()
    steps = 0
    resid = np.abs(a @ s + b).max()
    while resid > stop_resid and steps < max_steps:
        s = eb @ s + cb
        steps += 16
        assert np.abs(s).max() <= 10.0
        resid = np.abs(a @ s + b).max()
    assert resid <= stop_resid
    return s


class TestRelaxBatch:
    def test_verify_draws_match_the_serial_loop(self):
        rng = np.random.default_rng(42)
        draws = [_draw_params(rng) for _ in range(1000)]
        batched = relax_batch(draws, tol=1e-9)
        assert batched.shape == (1000, 3)
        for params, state in zip(draws, batched):
            assert np.abs(state - _serial_relax(params, 1e-9)).max() <= 1e-14
            assert np.abs(state - steady_state(params).as_array()).max() < 1e-7

    def test_failing_point_is_named(self):
        draws = [AtomFieldParams(n_sq=0.3, omega=w) for w in (0.5, 1.0, 2.0, 4.0)]
        tol = np.array([1e-9, 1e-9, 1e-30, 1e-9])
        with pytest.raises(NoConvergenceError, match="point 2 ") as err:
            relax_batch(draws, tol=tol)
        assert err.value.residual > 0.0

    def test_single_point_from_arbitrary_start(self):
        params = AtomFieldParams(n_sq=0.0, omega=0.0)
        start = BlochState(1.0, 0.0, 0.0)
        (state,) = relax_batch([params], start.as_array(), tol=1e-10)
        assert np.allclose(state, [0.0, 0.0, -1.0], atol=1e-9)
        single = relax_to_steady(params, start, tol=1e-10).as_array()
        assert np.array_equal(state, single)

    def test_tol_validation(self):
        with pytest.raises(ValidationError):
            relax_batch([AtomFieldParams()] * 2, tol=np.array([1e-9, 0.0]))


def test_stability_certificate_over_random_sweep():
    rng = np.random.default_rng(23)
    for k in range(1000):
        system = build_system(random_params(rng))
        margins = routh_hurwitz_margins(system)
        assert min(margins) > 0.0
        if k % 20 == 0:
            assert np.linalg.eigvals(system.a_matrix).real.max() < 0.0
