"""Batched verify sweeps against the per-draw loops they replaced.

Each ``loop_*`` function below is the serial form of a `rfsq verify`
check: it draws one point at a time and evaluates it with the scalar
functions. The batched check must return the same (ok, detail), and the
batched box search the same minima as one-problem calls, bit for bit.
"""

import math

import numpy as np
import pytest

from rfsq import verify
from rfsq.bloch import BlochState, steady_state, steady_state_grid
from rfsq.errors import CertificationFailedError
from rfsq.metrics import (
    optimal_phase_analytic,
    optimal_phase_grid,
    optimal_variance,
)
from rfsq.optimize import (
    CERTIFY_BOX,
    VARIANCE_BOUND,
    CertifyReport,
    certify_n_eighth,
    minimize_variance,
    minimize_variance_batch,
)
from rfsq.params import AtomFieldParams, decay_rates
from rfsq.pure import sz_plus_half_grid
from rfsq.verify import (
    relax_batch,
    routh_hurwitz_margins,
    spectral_abscissa,
    system_grid,
)

from search_oracle import grid_minimum, scalar_search
from steady_oracle import system_of

SEEDS = (42, 101, 102)


def draw_params(rng) -> AtomFieldParams:
    return AtomFieldParams(
        n_sq=rng.uniform(0.0, 2.0),
        phi=rng.uniform(0.0, 2.0 * math.pi),
        omega=rng.uniform(0.0, 30.0),
        delta=rng.uniform(-30.0, 30.0),
    )


def loop_relaxation_oracle(seed=42, fast=False):
    rng = np.random.default_rng(seed)
    count = 100 if fast else 1000
    draws = [draw_params(rng) for _ in range(count)]
    relaxed = relax_batch(*np.array([list(p.inputs().values()) for p in draws]).T,
                          tol=1e-9)
    worst_state = 0.0
    worst_sz = 0.0
    for params, state in zip(draws, relaxed):
        direct = steady_state(params)
        worst_state = max(worst_state, np.abs(direct.as_array() - state).max())
        sz_plus_half = sz_plus_half_grid(params.n_sq, params.phi, params.omega,
                                         params.delta)
        worst_sz = max(worst_sz, abs(sz_plus_half - (direct.sz + 0.5)))
    ok = worst_state < 1e-7 and worst_sz <= 1e-10
    return ok, (
        f"max |direct - relaxed| = {worst_state:.2e} (tol 1e-7); "
        f"max <sz>+1/2 deviation = {worst_sz:.2e} (tol 1e-10)"
    )


def loop_phase_optimality(seed=42, fast=False):
    rng = np.random.default_rng(seed + 1)
    count = 50 if fast else 500
    thetas = np.linspace(0.0, math.pi, 721)[:-1]
    step = thetas[1] - thetas[0]
    worst_phase = 0.0
    worst_floor = -np.inf
    skipped = 0
    for _ in range(count):
        params = draw_params(rng)
        state = steady_state(params)
        if state.sx**2 + state.sy**2 < 1e-10:
            skipped += 1
            continue

        def phase_term(theta):
            coherence = state.sx * np.cos(theta) - state.sy * np.sin(theta)
            return -coherence * coherence

        grid = phase_term(thetas)
        s_opt = optimal_variance(state)
        worst_floor = max(worst_floor, (s_opt - (1.0 + state.sz + grid)).max())
        k = int(np.argmin(grid))
        s_minus = phase_term(thetas[k] - step)
        s_plus = phase_term(thetas[k] + step)
        curvature = s_minus - 2.0 * grid[k] + s_plus
        theta_ref = thetas[k]
        if curvature > 0.0:
            theta_ref += 0.5 * step * (s_minus - s_plus) / curvature
        gap = abs(theta_ref % math.pi - optimal_phase_analytic(params)) % math.pi
        worst_phase = max(worst_phase, min(gap, math.pi - gap))
    ok = worst_phase <= 1e-6 and worst_floor <= 1e-12
    return ok, (
        f"max phase gap {worst_phase:.2e} (tol 1e-6); "
        f"max floor violation {worst_floor:.2e}; skipped {skipped} degenerate"
    )


def one_problem(n_sq, phi, bounds, eta=1.0):
    """(omega, delta, value) of ``minimize_variance_batch`` on one problem."""
    return tuple(column[0] for column in
                 minimize_variance_batch([n_sq], [phi], bounds, eta=eta))


def loop_certify_n_eighth(tolerance, phases, search=one_problem):
    grid = [round(0.02 * k, 10) for k in range(1, 26)]
    grid.append(0.125)
    grid.sort()
    minima = []
    sigmas = []
    for n in grid:
        best = None
        for phi in phases:
            omega, delta, value = search(n, phi, CERTIFY_BOX)[:3]
            if best is None or value < best[2]:
                best = (omega, delta, value, phi)
        minima.append(best[2])
        sx, sy, sz = steady_state_grid(n, 1.0, best[3], best[0], best[1])
        sigmas.append(float(sx * sx + sy * sy + sz * sz))
    k_min = int(np.argmin(minima))
    offenders = []
    if abs(grid[k_min] - 0.125) > 0.02:
        offenders.append((grid[k_min], "global minimum away from 0.125"))
    if abs(minima[k_min] - VARIANCE_BOUND) > tolerance:
        offenders.append((grid[k_min], f"global minimum {minima[k_min]!r} misses -0.25"))
    for n, value in zip(grid, minima):
        if abs(n - 0.125) >= 0.02 and value <= VARIANCE_BOUND + 1e-4:
            offenders.append((n, f"minimum {value!r} too deep away from 0.125"))
    if offenders:
        raise CertificationFailedError(
            f"certification failed at {len(offenders)} grid point(s)",
            offenders=offenders,
        )
    return CertifyReport(
        n_values=tuple(grid), minima=tuple(minima), argmin_n=grid[k_min],
        min_value=minima[k_min], sigmas=tuple(sigmas),
    )


def certify_phases(fast):
    return ((math.pi / 2.0, 3.0 * math.pi / 4.0) if fast else
            (math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0))


def loop_photon_number_certification(seed=42, fast=False):
    try:
        report = loop_certify_n_eighth(1e-6, certify_phases(fast))
    except CertificationFailedError as exc:
        return False, f"{exc}: {exc.offenders}"
    ok = min(report.sigmas) > 0.98
    return ok, (
        f"global minimum {report.min_value:.9f} at N = {report.argmin_n}; "
        f"runner-up {sorted(report.minima)[1]:.6f}; "
        f"lowest optimum purity {min(report.sigmas):.4f}"
    )


def loop_rates_and_bounds(seed=42, fast=False):
    rng = np.random.default_rng(seed + 2)
    count = 200 if fast else 1000
    worst_sum = 0.0
    worst_sigma = 0.0
    worst_floor = 0.0
    for _ in range(count):
        params = draw_params(rng)
        _, _, gamma_x, gamma_y, gamma_z = decay_rates(
            params.n_sq, params.eta, params.phi)
        if gamma_x <= 0.0 or gamma_y <= 0.0:
            return False, f"non-positive quadrature rate at {params}"
        worst_sum = max(worst_sum, abs(gamma_x + gamma_y - gamma_z) / gamma_z)
        state = steady_state(params)
        worst_sigma = max(worst_sigma, state.sigma - 1.0)
        worst_floor = max(worst_floor, -0.25 - optimal_variance(state))
    corr_ok = all(
        math.sqrt(n * (n + 1.0)) > n for n in np.linspace(1e-4, 10.0, 100)
    )
    ok = (worst_sum < 1e-14 and worst_sigma <= 1e-9 and worst_floor <= 1e-9
          and corr_ok)
    return ok, (
        f"rate-sum deviation {worst_sum:.2e}; sigma excess {worst_sigma:.2e}; "
        f"floor violation {worst_floor:.2e}"
    )


def loop_stability_certificate(seed=42, fast=False):
    rng = np.random.default_rng(seed + 3)
    count = 200 if fast else 1000
    worst = np.inf
    for k in range(count):
        params = draw_params(rng)
        a, _ = system_of(params)
        margins = routh_hurwitz_margins(a)
        worst = min(worst, *margins)
        if k % 10 == 0:
            if np.linalg.eigvals(a).real.max() >= 0.0:
                return False, f"unstable matrix at {params}"
    return worst > 0.0, f"smallest certificate margin {worst:.3e} (must be > 0)"


LOOPS = {
    "relaxation-oracle": loop_relaxation_oracle,
    "phase-optimality": loop_phase_optimality,
    "photon-number-certification": loop_photon_number_certification,
    "rates-and-bounds": loop_rates_and_bounds,
    "stability-certificate": loop_stability_certificate,
}


@pytest.mark.parametrize("fast", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(LOOPS))
def test_batched_check_matches_its_loop(name, seed, fast):
    batched = dict(verify.CHECKS)[name](seed=seed, fast=fast)
    assert batched == LOOPS[name](seed=seed, fast=fast)
    assert batched[0] is True


@pytest.mark.parametrize("name", sorted(set(LOOPS) - {"photon-number-certification"}))
def test_fast_sweeps_match_their_loops_on_forty_seeds(name):
    # a slip that leaves out or moves a few draws shows only on the seeds
    # whose worst draw it touches
    for seed in range(40):
        batched = dict(verify.CHECKS)[name](seed=seed, fast=True)
        assert batched == LOOPS[name](seed=seed, fast=True), seed


def test_array_forms_match_the_scalar_functions():
    draws = verify._draws(np.random.default_rng(42), 1000)
    params = [verify._params(*point) for point in draws.T]
    a, b = system_grid(draws[0], 1.0, *draws[1:])
    singles = [system_of(p) for p in params]
    assert np.array_equal(a, np.stack([s[0] for s in singles]))
    assert np.array_equal(b, np.stack([s[1] for s in singles]))
    assert np.array_equal(np.array(routh_hurwitz_margins(a)).T,
                          [routh_hurwitz_margins(s[0]) for s in singles])
    assert np.array_equal(spectral_abscissa(a),
                          [spectral_abscissa(s[0]) for s in singles])
    assert np.array_equal(optimal_phase_grid(draws[0], 1.0, draws[1], draws[3]),
                          [optimal_phase_analytic(p) for p in params])
    # numpy squares an array by x * x, Python a float by pow(): they can
    # round differently in the last place, so allow two units of it at 1
    ulp2 = 2.0 * np.finfo(float).eps
    states = [steady_state(p) for p in params]
    stack = BlochState(*(np.array(c) for c in zip(*(s.as_array() for s in states))))
    assert np.allclose(optimal_variance(stack),
                       [optimal_variance(s) for s in states], rtol=0, atol=ulp2)
    assert np.allclose(sz_plus_half_grid(*draws),
                       [sz_plus_half_grid(p.n_sq, p.phi, p.omega, p.delta)
                        for p in params], rtol=0, atol=ulp2)


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_are_the_scalar_stream(seed):
    batched = verify._draws(np.random.default_rng(seed), 1000)
    rng = np.random.default_rng(seed)
    serial = [draw_params(rng) for _ in range(1000)]
    assert np.array_equal(
        batched, np.array([[p.n_sq, p.phi, p.omega, p.delta] for p in serial]).T)
    assert [verify._params(*point) for point in batched.T] == serial


@pytest.mark.parametrize("fast", [False, True])
def test_certification_matches_the_serial_searches(fast):
    phases = certify_phases(fast)
    report = certify_n_eighth(1e-6, phases)
    assert report == loop_certify_n_eighth(1e-6, phases)
    # the golden-section oracle and a kernel grid of the box never go lower
    oracle = loop_certify_n_eighth(1e-6, phases, search=scalar_search)
    assert np.all(np.array(report.minima) <= np.array(oracle.minima) + 1e-13)
    n_sq = np.repeat(report.n_values, len(phases))
    phi = np.tile(phases, len(report.n_values))
    grid = grid_minimum(n_sq, phi, CERTIFY_BOX, nodes=200)
    assert np.all(np.array(report.minima) <= grid.reshape(len(report.n_values), -1)
                  .min(axis=1))


BOXES = [
    CERTIFY_BOX,
    ((0.5, 0.5), (0.3, 0.3)),           # both sides frozen
    ((0.0, 3.0), (-0.0, -0.0)),         # frozen detuning, negative zero
    ((0.7, 0.7), (-2.0, 2.0)),          # frozen drive
    ((1.0, 1.5), (-3.0, 1.0)),          # the drive clipped on both sides
    ((0.0, 3e6), (1e6, 1e6 + 10.0)),    # far detuned
    ((0.0, 1.0), (-1e200, 1e200)),      # L = q + delta^2 overflows
]


def as_bits(*columns):
    return tuple(float(x).hex() for x in columns)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eta", [1.0, 0.6])
@pytest.mark.parametrize("coarse", [64, 2])
@pytest.mark.parametrize("bounds", BOXES)
def test_batched_search_is_the_scalar_search(bounds, coarse, eta):
    """Each problem of a batch gets what a one-problem call gets, and
    neither the golden-section oracle (seeded on ``coarse`` nodes) nor a
    kernel grid of the box finds a lower value."""
    rng = np.random.default_rng(7)
    n_sq = 10.0 ** rng.uniform(-6.0, 3.0, 24)
    phi = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 24)
    batched = minimize_variance_batch(n_sq, phi, bounds, eta=eta)
    value = batched[2]
    for k in range(len(n_sq)):
        got = as_bits(*(column[k] for column in batched))
        assert got == as_bits(*one_problem(n_sq[k], phi[k], bounds, eta))
        oracle = scalar_search(float(n_sq[k]), float(phi[k]), bounds, eta=eta,
                               coarse=coarse)[2]
        assert value[k] <= oracle + 1e-13
    assert np.all(value <= grid_minimum(n_sq, phi, bounds, eta, nodes=101))
    report = minimize_variance(float(n_sq[0]), float(phi[0]), bounds, eta=eta)
    assert as_bits(report.omega, report.delta, report.value) == \
        as_bits(*(column[0] for column in batched))
