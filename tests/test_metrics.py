"""Quadrature variances, optimal phases, and the report aggregate."""

import math

import numpy as np
import pytest

from rfsq import (
    AtomFieldParams,
    BlochState,
    full_report,
    input_vacuum_variance,
    optimal_phase_analytic,
    optimal_variance,
    pure_state,
    pure_state_variance,
    sphere_angles,
    steady_state,
    variance_theta,
)
from rfsq.errors import NumericalError

from phase_oracle import DegeneratePhaseError, optimal_phase_numeric

MAX_SQUEEZED = BlochState(0.0, math.sqrt(3.0) / 2.0, -0.5)


class TestVarianceTheta:
    def test_out_of_phase_quadrature_is_maximally_squeezed(self):
        assert variance_theta(MAX_SQUEEZED, math.pi / 2.0) == pytest.approx(
            -0.25, abs=1e-15)

    def test_ground_state_sits_at_shot_noise(self):
        ground = BlochState.ground()
        for theta in np.linspace(0.0, math.pi, 13):
            assert variance_theta(ground, float(theta)) == 0.0

    def test_in_phase_quadrature_is_antisqueezed(self):
        assert variance_theta(MAX_SQUEEZED, 0.0) == pytest.approx(0.5, abs=1e-15)


class TestOptimalPhase:
    def test_resonant_zero_phase_gives_out_of_phase_quadrature(self):
        for n in (0.05, 0.125, 1.0):
            params = AtomFieldParams(n_sq=n, phi=0.0, delta=0.0, omega=1.0)
            assert optimal_phase_analytic(params) == pytest.approx(math.pi / 2.0)

    def test_quarter_phase_case(self):
        for n in (0.05, 0.125, 0.7):
            m = math.sqrt(n * (n + 1.0))
            params = AtomFieldParams(n_sq=n, phi=math.pi / 2.0,
                                     delta=(n + 0.5) - m, omega=1.0)
            assert optimal_phase_analytic(params) == pytest.approx(
                math.pi / 4.0, abs=1e-14)

    def test_large_detuning_approaches_in_phase(self):
        params = AtomFieldParams(n_sq=0.125, phi=math.pi, delta=1000.0, omega=1.0)
        expected = math.atan2(0.25, 1000.0)  # = 2.4999999479e-4
        assert optimal_phase_analytic(params) == pytest.approx(expected, abs=1e-15)
        assert optimal_phase_analytic(params) < 1e-3

    def test_numeric_phase_on_cardinal_states(self):
        assert optimal_phase_numeric(BlochState(0.0, 1.0, 0.0)) == pytest.approx(
            math.pi / 2.0)
        assert optimal_phase_numeric(BlochState(1.0, 0.0, 0.0)) == 0.0

    def test_numeric_matches_analytic_at_quarter_phase_point(self):
        sol = pure_state(0.125, math.pi / 2.0)
        state = steady_state(AtomFieldParams(
            n_sq=0.125, phi=sol.phi, omega=sol.omega, delta=sol.delta))
        assert optimal_phase_numeric(state) == pytest.approx(
            math.pi / 4.0, abs=1e-9)

    def test_degenerate_coherence_raises(self):
        with pytest.raises(DegeneratePhaseError):
            optimal_phase_numeric(BlochState.ground())

    def test_numeric_agrees_with_analytic_over_sweep(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            params = AtomFieldParams(
                n_sq=rng.uniform(0.0, 2.0),
                phi=rng.uniform(0.0, 2.0 * math.pi),
                omega=rng.uniform(0.01, 30.0),
                delta=rng.uniform(-30.0, 30.0),
            )
            state = steady_state(params)
            gap = abs(optimal_phase_numeric(state)
                      - optimal_phase_analytic(params)) % math.pi
            assert min(gap, math.pi - gap) < 1e-7


class TestOptimalVariance:
    def test_reference_states(self):
        assert optimal_variance(MAX_SQUEEZED) == pytest.approx(-0.25, abs=1e-15)
        assert optimal_variance(BlochState.ground()) == 0.0
        assert optimal_variance(BlochState(0.0, 0.0, 0.0)) == 1.0

    def test_identity_violation_is_a_numerical_error(self):
        # s_opt = 1e16, but sz (1 + sz) + 1 - Sigma rounds to 0
        with pytest.raises(NumericalError, match=r"1e\+16 vs 0\.0$"):
            optimal_variance(BlochState(0.0, 0.0, 1e16))
        # over arrays, the first violating point is named
        stack = BlochState(np.zeros(3), np.zeros(3), np.array([-0.5, 1e16, 2e16]))
        with pytest.raises(NumericalError, match=r"1e\+16 vs 0\.0$"):
            optimal_variance(stack)

    def test_is_the_floor_of_the_sampled_variances(self):
        rng = np.random.default_rng(31)
        thetas = np.linspace(0.0, math.pi, 360, endpoint=False)
        for _ in range(50):
            params = AtomFieldParams(
                n_sq=rng.uniform(0.0, 2.0),
                phi=rng.uniform(0.0, 2.0 * math.pi),
                omega=rng.uniform(0.01, 30.0),
                delta=rng.uniform(-30.0, 30.0),
            )
            state = steady_state(params)
            floor = optimal_variance(state)
            assert floor >= -0.25 - 1e-12
            sampled = np.array([variance_theta(state, float(t)) for t in thetas])
            assert (sampled >= floor - 1e-12).all()
            # the floor is attained at the numerically optimal phase
            attained = variance_theta(state, optimal_phase_numeric(state))
            assert attained == pytest.approx(floor, abs=1e-9)


class TestSphereAngles:
    def test_colatitude_at_special_photon_number(self):
        for phi in (0.0, math.pi / 2.0):
            _, beta = sphere_angles(AtomFieldParams(n_sq=0.125, phi=phi))
            assert beta == pytest.approx(2.0 * math.pi / 3.0, abs=1e-12)

    def test_empty_reservoir_corner_maps_to_south_pole(self):
        _, beta = sphere_angles(AtomFieldParams(n_sq=0.0))
        assert beta == math.pi
        # the colatitude approaches the pole like 2 N^(1/4)
        _, beta_small = sphere_angles(AtomFieldParams(n_sq=1e-10))
        assert beta_small == pytest.approx(math.pi, abs=1e-2)

    def test_longitude_matches_optimal_phase(self):
        alpha, _ = sphere_angles(AtomFieldParams(n_sq=0.125, phi=0.0, delta=0.0))
        assert alpha == pytest.approx(math.pi / 2.0)
        rng = np.random.default_rng(37)
        for _ in range(200):
            params = AtomFieldParams(
                n_sq=rng.uniform(0.01, 2.0),
                phi=rng.uniform(0.0, 2.0 * math.pi),
                omega=rng.uniform(0.0, 30.0),
                delta=rng.uniform(-30.0, 30.0),
            )
            alpha, _ = sphere_angles(params)
            assert alpha % math.pi == pytest.approx(
                optimal_phase_analytic(params), abs=1e-12)


class TestVarianceLaws:
    def test_pure_state_variance_values(self):
        assert pure_state_variance(0.125) == pytest.approx(-0.25, abs=1e-16)
        assert pure_state_variance(0.0) == 0.0
        assert pure_state_variance(0.1) == pytest.approx(-0.24865494, abs=1e-7)

    def test_pure_state_variance_against_full_solver(self):
        # the closed law must match the solved pure state end to end
        for n in (0.05, 0.1, 0.5, 1.2):
            sol = pure_state(n, math.pi / 2.0)
            state = steady_state(AtomFieldParams(
                n_sq=n, phi=sol.phi, omega=sol.omega, delta=sol.delta))
            assert pure_state_variance(n) == pytest.approx(
                optimal_variance(state), abs=1e-12)

    def test_input_variance_values(self):
        assert input_vacuum_variance(0.0) == 0.0
        assert input_vacuum_variance(0.1) == pytest.approx(-0.11583124, abs=1e-7)
        # 46.3% of the maximal degree in this normalisation
        assert 100.0 * input_vacuum_variance(0.1) / -0.25 == pytest.approx(
            46.33, abs=0.01)

    def test_input_variance_saturates(self):
        assert input_vacuum_variance(1e6) == pytest.approx(-0.25, abs=1e-6)

    @pytest.mark.parametrize("eta", [0.0, 0.95, 1.0])
    def test_laws_match_fifty_digits(self, eta):
        # N - M cancels as N grows: the plain difference was 2.5e-9 off
        # (relative) at N = 1e8
        mp = pytest.importorskip("mpmath")
        ns = np.geomspace(1e-6, 1e12, 181)
        arrays = pure_state_variance(ns, eta), input_vacuum_variance(ns, eta)
        with mp.workdps(50):
            for k, n in enumerate(ns.tolist()):
                big_n, big_eta = mp.mpf(n), mp.mpf(eta)
                diff = big_n - big_eta * mp.sqrt(big_n * (big_n + 1))
                laws = (pure_state_variance, input_vacuum_variance)
                wants = (diff / (2 * big_n - diff + mp.mpf(1) / 2), diff / 2)
                for law, array, want in zip(laws, arrays, wants):
                    for got in (law(n, eta), array[k]):
                        assert abs(got - want) <= 2e-15 * abs(want), (n, law)


class TestFullReport:
    def test_quarter_phase_benchmark(self):
        report = full_report(AtomFieldParams(
            n_sq=0.125, phi=math.pi / 2.0, delta=0.25,
            omega=math.sqrt(6.0) / 4.0))
        assert report.s_pi4 == pytest.approx(-0.25, abs=1e-9)
        assert report.sigma == pytest.approx(1.0, abs=1e-9)
        assert report.theta_o == pytest.approx(math.pi / 4.0, abs=1e-12)
        assert report.is_pure
        assert report.degree_percent == pytest.approx(100.0, abs=1e-6)

    def test_resonant_benchmark(self):
        report = full_report(AtomFieldParams(
            n_sq=0.125, phi=0.0, delta=0.0, omega=math.sqrt(3.0) / 4.0))
        assert report.s_y == pytest.approx(-0.25, abs=1e-9)
        assert report.theta_o == pytest.approx(math.pi / 2.0)

    def test_ground_state_report(self):
        report = full_report(AtomFieldParams(n_sq=0.0, omega=0.0))
        assert report.s_x == report.s_y == report.s_pi4 == pytest.approx(0.0, abs=1e-14)
        assert report.sigma == pytest.approx(1.0, abs=1e-14)
        assert report.is_pure
        assert report.phase_degenerate
        assert report.theta_o == math.pi / 2.0

    def test_report_internal_consistency(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            report = full_report(AtomFieldParams(
                n_sq=rng.uniform(0.0, 2.0),
                phi=rng.uniform(0.0, 2.0 * math.pi),
                omega=rng.uniform(0.0, 30.0),
                delta=rng.uniform(-30.0, 30.0),
            ))
            assert report.s_theta_o <= min(
                report.s_x, report.s_y, report.s_pi4) + 1e-12
            assert report.s_theta_o >= -0.25 - 1e-12
            assert report.sigma <= 1.0 + 1e-9
