"""Pure-state drives: the closed form at any phase and the asymptotic one at pi."""

import math
import warnings

import numpy as np
import pytest

from rfsq import (
    AtomFieldParams,
    condition_phi_pi,
    find_pure_curve,
    minimize_variance,
    optimal_variance,
    pure_state,
    steady_state,
    variance_theta,
)
from rfsq.optimize import drive_optima
from rfsq.pure import sz_plus_half_grid
from rfsq.errors import (
    AsymptoticConditionWarning,
    NoPureStateError,
    NumericalError,
    ValidationError,
)

from pure_oracle import drive_n_eighth, drive_phi0, drive_phi_half_pi


def params_of(sol):
    return AtomFieldParams(n_sq=sol.n_sq, phi=sol.phi,
                           omega=sol.omega, delta=sol.delta)


class TestConditionZeroPhase:
    def test_special_photon_number(self):
        sol = pure_state(0.125, 0.0)
        assert sol.omega == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-15)
        assert sol.delta == 0.0
        assert sol.alpha == math.pi / 2.0
        assert sol.sigma_achieved == pytest.approx(1.0, abs=1e-9)

    def test_half_photon(self):
        sol = pure_state(0.5, 0.0)
        assert sol.omega == pytest.approx(0.4817165220011426, abs=1e-12)
        assert sol.sigma_achieved == pytest.approx(1.0, abs=1e-9)

    def test_weak_reservoir_limit(self):
        assert pure_state(1e-10, 0.0).omega < 1e-2
        with pytest.raises(ValidationError):
            pure_state(0.0, 0.0)


class TestConditionQuarterPhase:
    def test_special_photon_number(self):
        sol = pure_state(0.125, math.pi / 2.0)
        assert sol.delta == pytest.approx(0.25, abs=1e-15)
        assert sol.omega == pytest.approx(math.sqrt(6.0) / 4.0, abs=1e-15)
        # alpha is atan2(gamma_x, delta + M sin Phi), one ulp above pi/4
        assert sol.alpha == pytest.approx(math.pi / 4.0, abs=2e-16)
        assert sol.sigma_achieved == pytest.approx(1.0, abs=1e-9)

    def test_small_photon_number(self):
        sol = pure_state(0.05, math.pi / 2.0)
        assert sol.delta == pytest.approx(0.3208712152522081, abs=1e-12)
        assert sol.omega == pytest.approx(0.5422945015811449, abs=1e-12)
        assert sol.sigma_achieved == pytest.approx(1.0, abs=1e-9)

    def test_weak_reservoir_limit(self):
        sol = pure_state(1e-10, math.pi / 2.0)
        assert sol.delta == pytest.approx(0.5, abs=1e-4)
        assert sol.omega < 1e-2

    @pytest.mark.parametrize("n_sq", [10.0, 1e3])
    @pytest.mark.parametrize("eta", [1.0])  # no drive is pure for eta < 1
    def test_detuning_is_accurate_at_large_photon_number(self, n_sq, eta):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            n = mpmath.mpf(n_sq)
            exact = n + mpmath.mpf(1) / 2 - mpmath.mpf(eta) * mpmath.sqrt(n * (n + 1))
            delta = pure_state(n_sq, math.pi / 2.0, eta=eta).delta
            assert abs(delta - exact) <= 1e-15 * abs(exact)


class TestPureState:
    def test_matches_the_special_case_formulas(self):
        cases = [(n, 0.0, drive_phi0(n)) for n in (1e-6, 0.01, 0.3, 0.5, 3.0, 1e3)]
        cases += [(n, math.pi / 2.0, drive_phi_half_pi(n))
                  for n in (1e-6, 0.05, 0.125, 1.5, 10.0, 1e3)]
        cases += [(0.125, float(phi), drive_n_eighth(float(phi)))
                  for phi in np.linspace(0.0, 2.0 * math.pi, 201)
                  if abs(phi - math.pi) > 1e-3]
        for n_sq, phi, (delta, omega, alpha) in cases:
            sol = pure_state(n_sq, phi)
            assert sol.delta == pytest.approx(delta, rel=1e-15, abs=0.0)
            assert sol.omega == pytest.approx(omega, rel=1e-15)
            assert sol.alpha == pytest.approx(alpha, rel=1e-15)
            assert sol.exact and sol.theta_0 == sol.alpha

    def test_rejects_a_non_ideal_reservoir(self):
        for phi in (0.0, math.pi / 2.0, 1.0, 3.0 * math.pi / 2.0):
            for eta in (0.0, 0.5, 0.999999):
                with pytest.raises(ValidationError, match="eta"):
                    pure_state(0.2, phi, eta=eta)

    def test_drive_is_pinned_at_fifty_digits(self):
        mpmath = pytest.importorskip("mpmath")
        phases = (0.0, 0.3, math.pi / 2.0, 2.0, 3.1, -1.0, 4.5, 3.0 * math.pi / 2.0)
        with mpmath.workdps(50):
            for n_sq in (1e-6, 0.125, 10.0, 1e3):
                n = mpmath.mpf(n_sq)
                m = mpmath.sqrt(n * (n + 1))
                for phi in phases:
                    half = mpmath.mpf(phi) / 2
                    delta = mpmath.tan(half) / (4 * (n + mpmath.mpf(1) / 2 + m))
                    omega = mpmath.sqrt(m) / (
                        abs(mpmath.cos(half)) * (mpmath.sqrt(n + 1) + mpmath.sqrt(n)))
                    sol = pure_state(n_sq, phi)
                    assert abs(sol.delta - delta) <= 1e-15 * abs(delta)
                    assert abs(sol.omega - omega) <= 1e-15 * omega


class TestConditionOpposedPhase:
    def test_special_photon_number(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = condition_phi_pi(0.125, 12.5)
        # at N = 1/8 the condition reduces to omega = sqrt(3) * delta
        assert sol.omega == pytest.approx(12.5 * math.sqrt(3.0), rel=1e-12)
        assert sol.omega == pytest.approx(21.6506, abs=1e-4)
        assert not sol.exact

    def test_moderate_photon_number(self):
        sol = condition_phi_pi(0.1, 10.0)
        assert sol.omega == pytest.approx(15.72253128275022, rel=1e-12)

    # at eta < 1, delta = 1 sits below the asymptotic margin
    @pytest.mark.filterwarnings("ignore::rfsq.errors.AsymptoticConditionWarning")
    @pytest.mark.parametrize("n_sq", [1e3, 1e6, 1e12, 1e100])
    @pytest.mark.parametrize("eta", [1.0, 0.5])
    def test_drive_is_accurate_at_large_photon_number(self, n_sq, eta):
        # divided by sqrt(N + 1) - sqrt(N), the drive would miss by 1.1e-13
        # relative at N = 1e3 and 7.6e-6 at N = 1e12
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(250):  # resolves sqrt(N + 1) - sqrt(N) at N = 1e100
            n = mpmath.mpf(n_sq)
            m = mpmath.mpf(eta) * mpmath.sqrt(n * (n + 1))
            omega = float(2 * mpmath.sqrt(m) / (mpmath.sqrt(n + 1) - mpmath.sqrt(n)))
        assert abs(condition_phi_pi(n_sq, 1.0, eta=eta).omega - omega) <= 4e-16 * omega

    def test_purity_is_asymptotic_in_detuning(self):
        sigmas = [condition_phi_pi(0.125, d).sigma_achieved
                  for d in (12.5, 100.0, 1000.0)]
        assert sigmas == sorted(sigmas)
        assert sigmas[0] == pytest.approx(1.0, abs=2e-3)
        assert sigmas[2] == pytest.approx(1.0, abs=2e-7)

    @pytest.mark.parametrize("n_sq", [1e12, 1e14, 1e16])
    @pytest.mark.parametrize("phi", [math.pi, -math.pi, 3.0 * math.pi])
    def test_purity_is_that_at_the_exact_opposed_phase(self, n_sq, phi):
        # at fl(pi), 2 M cos^2(Phi/2) ~ 3.7e-33 M in gamma_x reaches its exact
        # part 1/(8N) near N = 4e15: it moved Sigma to 0.29 at N = 1e16
        mp = pytest.importorskip("mpmath")
        sol = condition_phi_pi(n_sq, 1.0, phi=phi)
        with mp.workdps(60):
            n, half = mp.mpf(n_sq), mp.mpf(1) / 2
            m = mp.sqrt(n * (n + 1))
            omega, delta = mp.mpf(sol.omega), mp.mpf(1)
            a = mp.matrix([[-(n + half - m), -delta, 0],
                           [delta, -(n + half + m), -omega],
                           [0, omega, -2 * (n + half)]])
            s = mp.lu_solve(a, mp.matrix([0, 0, 1]))
            sigma = float(s[0] ** 2 + s[1] ** 2 + s[2] ** 2)
        assert sol.sigma_achieved == pytest.approx(sigma, rel=1e-14)
        # the large-N limit (8 delta^2 / (1 + 8 delta^2))^2, with sx -> -8/9
        assert sol.sigma_achieved == pytest.approx(64.0 / 81.0, rel=1e-9)

    def test_warns_below_the_asymptotic_margin(self):
        with pytest.warns(AsymptoticConditionWarning):
            condition_phi_pi(0.125, 2.0)

    def test_rejects_nonpositive_detuning(self):
        with pytest.raises(ValidationError):
            condition_phi_pi(0.125, 0.0)


class TestMaximalFamily:
    def test_quarter_phase_member(self):
        sol = pure_state(0.125, math.pi / 2.0)
        assert sol.delta == pytest.approx(0.25, abs=1e-15)
        assert sol.omega == pytest.approx(math.sqrt(6.0) / 4.0, abs=1e-15)
        assert sol.theta_0 == pytest.approx(math.pi / 4.0, abs=1e-15)

    def test_zero_phase_limit_recovers_resonant_condition(self):
        sol = pure_state(0.125, 0.0)
        assert sol.delta == 0.0
        assert sol.omega == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-15)
        assert sol.theta_0 == pytest.approx(math.pi / 2.0)

    def test_steep_member(self):
        phi = 2.0 * math.atan(4.0)
        sol = pure_state(0.125, phi)
        assert sol.delta == pytest.approx(1.0, abs=1e-12)
        assert sol.omega == pytest.approx(math.sqrt(51.0) / 4.0, abs=1e-12)
        assert sol.theta_0 == pytest.approx(math.atan(0.25), abs=1e-12)

    def test_floor_is_reached_along_the_family(self):
        for phi in np.linspace(0.05, math.pi - 0.05, 100):
            sol = pure_state(0.125, float(phi))
            state = steady_state(params_of(sol))
            assert abs(state.sigma - 1.0) < 1e-9
            assert abs(state.sz + 0.5) < 1e-9
            assert abs(optimal_variance(state) + 0.25) < 1e-9
            assert abs(variance_theta(state, sol.theta_0) + 0.25) < 1e-9

    def test_reflex_phases_are_supported(self):
        sol = pure_state(0.125, 3.0 * math.pi / 2.0)
        assert sol.delta == pytest.approx(-0.25, abs=1e-12)
        state = steady_state(params_of(sol))
        assert abs(state.sigma - 1.0) < 1e-9
        assert abs(variance_theta(state, sol.theta_0) + 0.25) < 1e-9

    def test_divergent_phase_is_rejected(self):
        # the drive diverges at pi (mod 2 pi); phases outside [0, 2 pi)
        # give the drive of the same phase reduced into it
        for phi in (math.pi, -math.pi, 3.0 * math.pi, math.pi + 1e-13):
            with pytest.raises(ValidationError, match="large-detuning"):
                pure_state(0.125, phi)
        for phi in (-0.1, 2.0 * math.pi, 7.0):
            sol = pure_state(0.125, phi)
            reduced = pure_state(0.125, phi % (2.0 * math.pi))
            assert sol.phi == phi
            assert sol.delta == pytest.approx(reduced.delta, rel=1e-12, abs=1e-15)
            assert sol.omega == pytest.approx(reduced.omega, rel=1e-14)
            assert sol.theta_0 == pytest.approx(reduced.theta_0, rel=1e-14)


class TestSzPlusHalf:
    def test_vanishes_at_the_maximal_point(self):
        value = sz_plus_half_grid(0.125, 0.0, math.sqrt(3.0) / 4.0, 0.0)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_undriven_reduction(self):
        # omega = 0 leaves (2N-1)/(2(2N+1)), positive above N = 1/2
        for n, delta in ((0.6, 0.0), (0.6, 3.0), (0.2, 1.0)):
            value = sz_plus_half_grid(n, 0.0, 0.0, delta)
            assert value == pytest.approx(
                (2.0 * n - 1.0) / (2.0 * (2.0 * n + 1.0)), rel=1e-14)
        assert sz_plus_half_grid(0.6, 0.0, 0.0, 0.0) > 0.0

    def test_ground_state_corner(self):
        assert sz_plus_half_grid(0.0, 0.0, 0.0, 0.0) == pytest.approx(-0.5, abs=1e-15)

    def test_matches_solver_over_sweep(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            params = AtomFieldParams(
                n_sq=rng.uniform(0.0, 2.0),
                phi=rng.uniform(0.0, 2.0 * math.pi),
                omega=rng.uniform(0.0, 30.0),
                delta=rng.uniform(-30.0, 30.0),
            )
            expected = steady_state(params).sz + 0.5
            assert sz_plus_half_grid(params.n_sq, params.phi, params.omega,
                                     params.delta) == pytest.approx(expected, abs=1e-10)


class TestFindPureCurve:
    def test_recovers_quarter_phase_condition(self):
        omega, sigma = find_pure_curve(math.pi / 2.0, 0.125, 0.25)
        assert omega == pytest.approx(math.sqrt(6.0) / 4.0, abs=1e-5)
        assert sigma >= 1.0 - 1e-7

    def test_recovers_resonant_condition(self):
        omega, sigma = find_pure_curve(0.0, 0.125, 0.0)
        assert omega == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-5)
        assert sigma >= 1.0 - 1e-7

    def test_purity_optimum_reproduces_the_closed_form_drives(self):
        sols = [pure_state(n, 0.0) for n in (0.01, 0.125, 0.7, 3.0)]
        sols += [pure_state(n, math.pi / 2.0) for n in (0.05, 0.125, 1.5, 10.0)]
        sols += [pure_state(n, float(phi))
                 for n in (0.02, 0.125, 0.6)
                 for phi in np.linspace(0.05, 2.0 * math.pi - 0.05, 25)
                 if abs(phi - math.pi) > 1e-3]
        for sol in sols:
            w_pure = drive_optima(sol.n_sq, 1.0, sol.phi, sol.delta)[2]
            assert math.sqrt(w_pure) == pytest.approx(sol.omega, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_detuning_has_no_pure_state(self):
        with pytest.raises(NoPureStateError) as err:
            find_pure_curve(0.0, 0.2, 1e200)
        assert math.isfinite(err.value.sigma_max)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("delta", [1e77, 1e100, 1e150, 1e160, 1e300])
    def test_far_detuned_slice_has_no_pure_state(self, delta):
        # Sigma_max tends to 1/(1 + 4 M^2 sin^2 Phi) as delta grows; past
        # |delta| ~ 1e154 the drive overflows but the closed form does not
        with pytest.raises(NoPureStateError) as err:
            find_pure_curve(2.0, 0.2, delta)
        limit = 1.0 / (1.0 + 4.0 * 0.2 * 1.2 * math.sin(2.0) ** 2)
        assert err.value.sigma_max == pytest.approx(limit, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_near_pure_drive_is_a_numerical_error(self):
        # at Phi = pi the far-detuned slice is nearly pure, but its drive
        # overflows to inf: an error, never an infinite omega
        with pytest.raises(NumericalError, match="overflows"):
            find_pure_curve(math.pi, 0.2, 1e308)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("delta", [1e150, 1e160, 1e300])
    def test_drive_past_its_square_overflow_is_finite(self, delta):
        # w_pure = omega^2 overflows from |delta| ~ 1e154, the drive does
        # not: it is the asymptotic one, 2 delta sqrt(M) (sqrt(N+1) + sqrt(N))
        omega, sigma = find_pure_curve(math.pi, 0.2, delta)
        m = math.sqrt(0.2 * 1.2)
        assert omega == pytest.approx(
            2.0 * delta * math.sqrt(m) * (math.sqrt(1.2) + math.sqrt(0.2)),
            rel=1e-12)
        assert sigma == pytest.approx(1.0, abs=1e-15)

    def test_detuned_resonant_phase_has_no_pure_state(self):
        with pytest.raises(NoPureStateError) as err:
            find_pure_curve(0.0, 0.125, 5.0)
        assert err.value.sigma_max < 0.7


def test_pure_points_lie_on_the_reported_sphere_angles():
    # at a pure point the steady vector is the fully polarised state
    # (-cos(alpha) sin(beta), sin(alpha) sin(beta), cos(beta))
    sols = [pure_state(0.3, 0.0), pure_state(0.3, math.pi / 2.0),
            pure_state(1.5, math.pi / 2.0), pure_state(0.125, 0.8 * math.pi),
            pure_state(0.125, 0.3), pure_state(0.7, 4.0)]
    for sol in sols:
        state = steady_state(params_of(sol))
        expected = np.array([
            -math.cos(sol.alpha) * math.sin(sol.beta),
            math.sin(sol.alpha) * math.sin(sol.beta),
            math.cos(sol.beta),
        ])
        assert np.abs(state.as_array() - expected).max() < 1e-8


def test_floor_is_exclusive_to_the_special_photon_number():
    # away from N = 1/8 the best variance stays strictly above -0.25
    box = ((0.0, 3.0), (0.0, 2.0))
    for n in (0.05, 0.25, 0.5):
        report = minimize_variance(n, math.pi / 2.0, box)
        assert report.value > -0.25 + 1e-4
    report = minimize_variance(0.125, math.pi / 2.0, box)
    assert report.value == pytest.approx(-0.25, abs=1e-9)
