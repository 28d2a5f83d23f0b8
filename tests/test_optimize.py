"""Optimum location, closed-form drive optima and the crossover."""

import math

import numpy as np
import pytest

from rfsq import (
    AtomFieldParams,
    AxisSpec,
    ScanSpec,
    find_crossover,
    input_vacuum_variance,
    minimize_variance,
    optimal_variance,
    pure_state_variance,
    scan,
    steady_state,
    variance_theta,
)
from rfsq.bloch import steady_state_grid
from rfsq.errors import NumericalError, ValidationError
from rfsq._carrier import SCALAR
from rfsq.optimize import _cbrt, _cubic_roots, drive_optima, minimize_variance_batch
from rfsq.verify import _min_over_omega

from search_oracle import eigvals_minimum, grid_minimum, scalar_search

BOX = ((0.0, 3.0), (0.0, 2.0))


class TestMinimizeVariance:
    def test_quarter_phase_optimum(self):
        report = minimize_variance(0.125, math.pi / 2.0, BOX)
        assert report.omega == pytest.approx(math.sqrt(6.0) / 4.0, abs=1e-4)
        assert report.delta == pytest.approx(0.25, abs=1e-4)
        assert report.value == pytest.approx(-0.25, abs=1e-8)
        assert report.theta == pytest.approx(math.pi / 4.0, abs=1e-4)
        assert report.gap_to_bound == pytest.approx(0.0, abs=1e-8)

    def test_frozen_detuning(self):
        report = minimize_variance(0.125, 0.0, ((0.0, 3.0), (0.0, 0.0)))
        assert report.delta == 0.0
        assert report.omega == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-4)
        assert report.value == pytest.approx(-0.25, abs=1e-8)

    def test_large_photon_number_misses_the_floor(self):
        report = minimize_variance(0.5, math.pi / 2.0, BOX)
        assert report.value > -0.25 + 1e-3

    def test_never_above_any_grid_node(self):
        report = minimize_variance(0.125, math.pi / 2.0, BOX)
        grid = scan(ScanSpec(
            axis1=AxisSpec("omega", 0.0, 3.0, 101),
            axis2=AxisSpec("delta", 0.0, 2.0, 81),
            fixed=AtomFieldParams(n_sq=0.125, phi=math.pi / 2.0),
            metric="s_opt",
        ))
        assert report.value <= grid.values.min() + 1e-12

    def test_bad_box_is_rejected(self):
        with pytest.raises(ValidationError):
            minimize_variance(0.125, 0.0, ((1.0, 0.0), (0.0, 1.0)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bounds,message", [
        (((0.0, 1.0), (-math.inf, 2.0)), "box delta bounds must be finite"),
        (((0.0, math.nan), (0.0, 2.0)), "box omega bounds must be finite"),
        (((0.0, 1.0), (2.0, -2.0)), "box delta bounds are reversed"),
        (((-1.0, 1.0), (0.0, 2.0)), "box omega must not be negative"),
    ])
    def test_box_check(self, bounds, message):
        with pytest.raises(ValidationError, match=message):
            minimize_variance(0.2, 0.0, bounds)

    @pytest.mark.parametrize("n_sq,eta,phi,message", [
        (-0.5, 1.0, 0.0, "n_sq must be non-negative"),   # N(N+1) < 0
        (0.2, 1.5, 0.0, "eta must lie in"),
        (0.2, 1.0, math.inf, "phi must be finite"),
        (0.2, 1.0, math.nan, "phi must be finite"),
    ])
    def test_bad_inputs_are_rejected(self, n_sq, eta, phi, message):
        # on Python floats math raises its own ValueError where numpy gave NaN
        with pytest.raises(ValidationError, match=message):
            minimize_variance(n_sq, phi, BOX, eta)

    def test_frozen_box_is_one_evaluation(self):
        report = minimize_variance(0.2, 1.0, ((0.5, 0.5), (0.3, 0.3)))
        assert (report.omega, report.delta) == (0.5, 0.3)
        assert report.value == _variance(0.2, 1.0, 1.0, 0.5, 0.3)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_detuning_stays_finite(self):
        # L = q + delta^2 overflows at the ends; the minimum is the free
        # optimum at delta = 0
        report = minimize_variance(0.2, 0.0, ((0.0, 1.0), (-1e200, 1e200)))
        assert report.delta == 0.0
        assert report.omega == pytest.approx(0.438, abs=1e-3)
        assert report.value == pytest.approx(-0.24458818672676896, abs=1e-15)
        assert report.value == pytest.approx(drive_optima(0.2, 1.0, 0.0, 0.0)[1],
                                             abs=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_sq,phi,bounds,want", [
        # gamma_x = 1 and sin Phi = 0: the cubics lose two degrees
        (0.125, 0.0, ((0.0, 3.0), (-1.0, 1.0)), -0.25),
        # undriven, S_opt = 2N/(2N + 1) at every detuning
        (0.2, 1.0, ((0.0, 0.0), (-1.0, 1.0)), 0.4 / 1.4),
        # the drive may grow without bound: the free optimum
        (0.3, 1.0, ((0.0, 1e200), (-2.0, 2.0)), None),
    ])
    def test_degenerate_boxes(self, n_sq, phi, bounds, want):
        report = minimize_variance(n_sq, phi, bounds)
        if want is None:
            want = minimize_variance(n_sq, phi, ((0.0, 1e3), bounds[1])).value
        assert report.value == pytest.approx(want, abs=1e-15)
        assert report.value <= grid_minimum([n_sq], [phi], bounds)[0]

    @pytest.mark.filterwarnings("error")
    def test_box_past_the_square_overflow(self):
        # at omega = 1e200 every node but delta = 0 overflowed (NaN) and
        # delta = 0, the strong-drive limit S_opt = 1, won; the kernel now
        # scales them, and S_opt falls to the far edge
        bounds = ((1e200, 1e200), (0.0, 1e200))
        report = minimize_variance(0.2, 0.0, bounds)
        assert (report.omega, report.delta) == (1e200, 1e200)
        assert report.value == _variance(0.2, 1.0, 0.0, 1e200, 1e200)
        assert report.value <= grid_minimum([0.2], [0.0], bounds)[0]
        assert report.value == pytest.approx(0.4647991436732076, abs=1e-15)
        # N (N + 1) overflows: every candidate's state does
        with pytest.raises(NumericalError, match="overflows throughout"):
            minimize_variance(1e200, 0.0, ((1e200, 1e201), (1e200, 1e201)))

    def test_far_detuned_box_converges(self):
        bounds = ((0.0, 3e6), (1e6, 1e6 + 10.0))
        report = minimize_variance(0.125, math.pi, bounds)
        assert report.value <= scalar_search(0.125, math.pi, bounds)[2] + 1e-13
        assert report.value == pytest.approx(-0.25, abs=1e-12)


def _variance(n_sq, eta, phi, omega, delta, theta=None):
    """S_opt, or S_theta when theta is given, from the kernel."""
    sx, sy, sz = steady_state_grid(n_sq, eta, phi, omega, delta)
    if theta is None:
        return 1.0 + sz - sx * sx - sy * sy
    coherence = sx * np.cos(theta) - sy * np.sin(theta)
    return 1.0 + sz - coherence * coherence


def _nelder_mead_minimum(n_sq, phi, bounds, eta):
    """The former box search: a 64 x 64 grid seed refined by Nelder-Mead."""
    optimize = pytest.importorskip("scipy.optimize")
    (w_lo, w_hi), (d_lo, d_hi) = bounds
    ws = np.linspace(w_lo, w_hi, 1 if w_lo == w_hi else 64)
    ds = np.linspace(d_lo, d_hi, 1 if d_lo == d_hi else 64)
    vals = _variance(n_sq, eta, phi, ws[None, :], ds[:, None])
    i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
    x0 = np.array([ws[j], ds[i]])
    free = [k for k, (lo, hi) in enumerate(bounds) if lo < hi]
    if not free:
        return float(vals[i, j])

    def objective(x_free):
        point = x0.copy()
        point[free] = x_free
        return float(_variance(n_sq, eta, phi, point[0], point[1]))

    result = optimize.minimize(
        objective, x0[free], method="Nelder-Mead",
        bounds=[bounds[k] for k in free],
        options={"xatol": 1e-8, "fatol": 1e-12, "maxfev": 10_000,
                 "adaptive": False},
    )
    return float(result.fun)


def test_never_worse_than_nelder_mead():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(2024)
    worst = -np.inf
    for k in range(200):
        n_sq = rng.uniform(0.005, 3.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        eta = 1.0 if k % 2 else rng.uniform(0.0, 1.0)
        w_lo = 0.0 if k % 3 else rng.uniform(0.0, 2.0)   # some boxes clip omega
        w_hi = w_lo if k % 7 == 0 else w_lo + rng.uniform(0.1, 5.0)
        d_lo = rng.uniform(-3.0, 1.0)
        d_hi = d_lo if k % 5 == 0 else d_lo + rng.uniform(0.1, 4.0)
        bounds = ((w_lo, w_hi), (d_lo, d_hi))
        report = minimize_variance(n_sq, phi, bounds, eta=eta)
        worst = max(worst, report.value - _nelder_mead_minimum(n_sq, phi, bounds, eta))
    assert worst <= 1e-12


def test_exact_minimum_over_seeded_boxes():
    """Never above the golden-section oracle or a 400 x 400 kernel grid."""
    rng = np.random.default_rng(12)
    worst_oracle = worst_grid = -np.inf
    for k in range(400):
        n_sq = 10.0 ** rng.uniform(-3.0, 1.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        eta = 1.0 if k % 2 else 0.9
        w_lo = 0.0 if k % 3 else rng.uniform(0.0, 2.0)
        w_hi = w_lo if k % 7 == 0 else w_lo + 10.0 ** rng.uniform(-1.0, 3.0)
        width = 0.0 if k % 5 == 0 else 10.0 ** rng.uniform(-1.0, 3.0)
        d_lo = rng.uniform(-3.0, 3.0) - width * rng.uniform(0.0, 1.0)
        bounds = ((w_lo, w_hi), (d_lo, d_lo + width))
        value = minimize_variance_batch([n_sq], [phi], bounds, eta=eta)[2][0]
        worst_oracle = max(worst_oracle,
                           value - scalar_search(n_sq, phi, bounds, eta=eta)[2])
        worst_grid = max(worst_grid,
                         value - grid_minimum([n_sq], [phi], bounds, eta)[0])
    assert worst_oracle <= 1e-13
    assert worst_grid <= 0.0


@pytest.mark.parametrize("coeffs,want", [
    ((1.0, -6.0, 11.0, -6.0), [1.0, 2.0, 3.0]),        # three real roots
    ((1.0, -3.0, 3.0, -1.0), [1.0, 1.0, 1.0]),         # a triple root
    ((1.0, -2.0, 1.0, -2.0), [2.0, 0.0, 0.0]),         # 2 and the pair 0 +- i
    ((-2.0, 0.0, 0.0, 2.0), [1.0, -0.5, -0.5]),        # 1 and -1/2 +- i sqrt(3)/2
    ((0.0, 1.0, -3.0, 2.0), [0.0, 1.0, 2.0]),          # the lost root reads 0
    ((1e-101, 1.0, -3.0, 2.0), [0.0, 1.0, 2.0]),
    ((0.0, 0.0, 0.0, 0.0), [0.0, 0.0, 0.0]),           # the zero polynomial
])
def test_cubic_roots(coeffs, want):
    for xp, args in ((SCALAR, coeffs), (np, [np.asarray(c) for c in coeffs])):
        with xp.errstate(all="ignore"):
            got = sorted(float(y) for y in _cubic_roots(xp, *args))
        assert got == pytest.approx(sorted(want), abs=1e-15)


def test_no_math_cbrt_needed(monkeypatch):
    # math.cbrt is new in Python 3.11; the package supports 3.10
    monkeypatch.delattr(math, "cbrt", raising=False)
    for xp, args in ((SCALAR, (1.0, -2.0, 1.0, -2.0)),
                     (np, [np.asarray(c) for c in (1.0, -2.0, 1.0, -2.0)])):
        with xp.errstate(all="ignore"):
            assert [float(y) for y in _cubic_roots(xp, *args)] == [2.0, 0.0, 0.0]
    report = minimize_variance(0.125, 1.0, BOX)
    assert report.value == pytest.approx(-0.25, abs=1e-15)
    value = minimize_variance_batch([0.125, 0.3], [1.0, 2.0], BOX)[2]
    assert value[0] == report.value


@pytest.mark.parametrize("x", [0.0, 5e-324, 1e-300, 0.125, 2.0, 27.0, 1e300,
                               1.7976931348623157e308, math.inf])
def test_cube_root(x):
    mpmath = pytest.importorskip("mpmath")
    for xp, arg in ((SCALAR, x), (np, np.asarray(x))):
        with xp.errstate(all="ignore"):
            got = float(_cbrt(xp, arg))
        want = float(mpmath.cbrt(mpmath.mpf(x))) if math.isfinite(x) else x
        assert got == pytest.approx(want, rel=2.3e-16, abs=0.0)


#: boxes from the paper's Omega <= 3 up to Omega <= 1e308, where the
#: cubics' 2^k scaling is largest
ORACLE_BOXES = [((0.0, 3.0), (0.0, 2.0)), ((0.5, 30.0), (-10.0, 10.0)),
                ((0.0, 1e5), (-1e6, 1e6)), ((1e3, 1e308), (-1e300, 1e300))]


def test_box_minimum_matches_the_eigvals_oracle():
    """160,000 seeded problems, N log-uniform on [1e-4, 1e2]: the closed-form
    roots' minimum is never above that of the companion-matrix eigenvalues
    by more than 2e-15 max(1, |S|), about the rounding of S_opt itself."""
    rng = np.random.default_rng(24)
    for bounds in ORACLE_BOXES:
        for eta in (1.0, 0.9):
            n_sq = 10.0 ** rng.uniform(-4.0, 2.0, 20_000)
            phi = rng.uniform(0.0, 2.0 * math.pi, 20_000)
            value = minimize_variance_batch(n_sq, phi, bounds, eta)[2]
            oracle = eigvals_minimum(n_sq, phi, bounds, eta)[2]
            assert np.all(np.isfinite(value)) and np.all(np.isfinite(oracle))
            excess = (value - oracle) / np.maximum(1.0, np.abs(oracle))
            k = int(np.argmax(excess))
            assert excess[k] <= 2e-15, (bounds, eta, n_sq[k], phi[k], excess[k])


@pytest.mark.filterwarnings("error")
def test_drive_optima_far_detuned_match_fifty_digits():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    n_sq, phi = 0.2, 2.0
    m = mpmath.sqrt(mpmath.mpf(n_sq) * (n_sq + 1))
    q = mpmath.mpf("0.25")
    gx = n_sq + mpmath.mpf(0.5) + m * mpmath.cos(phi)
    gz = 2 * n_sq + 1
    for delta in 10.0 ** np.arange(77, 154, 4):
        lorentz = q + mpmath.mpf(delta) ** 2
        r = (delta + m * mpmath.sin(phi)) ** 2 + gx**2
        gl = gx * lorentz
        want = (gz * lorentz * (r - gl) / (gx * (gl + r)),
                1 - (gl + r) ** 2 / (4 * gl * gz * r),
                lorentz * (gz * r - 2 * gl) / (gx * r),
                r * r / (4 * gl * (gz * r - gl)))
        got = drive_optima(n_sq, 1.0, phi, delta)
        for g, w in zip(got, want):
            assert abs(g - float(w)) <= 1e-14 * abs(float(w)), delta


def test_closed_form_optima_match_the_kernel():
    rng = np.random.default_rng(11)
    n_sq = rng.uniform(0.005, 3.0, 400)
    eta = np.where(np.arange(400) % 2, 1.0, rng.uniform(0.0, 1.0, 400))
    phi = rng.uniform(0.0, 2.0 * math.pi, 400)
    delta = rng.uniform(-5.0, 5.0, 400)
    w_min, s_min, w_pure, sigma_max = drive_optima(n_sq, eta, phi, delta)
    inner = w_min > 0.0
    assert inner.sum() > 100
    s_at = _variance(n_sq, eta, phi, np.sqrt(np.maximum(w_min, 0.0)), delta)
    assert np.abs(s_at - s_min)[inner].max() <= 1e-14
    inner = w_pure > 0.0
    assert inner.sum() > 100
    sx, sy, sz = steady_state_grid(n_sq, eta, phi,
                                   np.sqrt(np.maximum(w_pure, 0.0)), delta)
    assert np.abs(sx * sx + sy * sy + sz * sz - sigma_max)[inner].max() <= 1e-14
    # a fixed quadrature: its own w_min and s_min, the same w_pure and sigma_max
    for theta in (0.0, math.pi / 4.0, math.pi / 2.0, rng.uniform(0.0, math.pi, 400)):
        w_th, s_th, w_pure_th, sigma_th = drive_optima(n_sq, eta, phi, delta, theta)
        assert np.array_equal(w_pure_th, w_pure)
        assert np.array_equal(sigma_th, sigma_max)
        inner = w_th > 0.0
        assert inner.sum() > 10
        s_at = _variance(n_sq, eta, phi, np.sqrt(np.maximum(w_th, 0.0)), delta,
                         theta)
        assert np.abs(s_at - s_th)[inner].max() <= 1e-14
        assert np.all(s_th[inner] >= s_min[inner] - 1e-14)


def test_closed_form_never_above_a_dense_omega_grid():
    # the drive of the closed form, clipped to omega >= 0, is the global
    # minimum over omega of the kernel's S_opt and of every S_theta
    rng = np.random.default_rng(13)
    count = 200
    n_sq = 10.0 ** rng.uniform(-3.0, 1.0, count)
    eta = np.where(np.arange(count) % 2, 1.0, rng.uniform(0.0, 1.0, count))
    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    delta = rng.uniform(-20.0, 20.0, count)
    nodes = np.linspace(0.0, 1.0, 20_001)
    for theta in (None, rng.uniform(0.0, math.pi, count)):
        omega = np.sqrt(np.maximum(drive_optima(n_sq, eta, phi, delta, theta)[0], 0.0))
        at_optimum = _variance(n_sq, eta, phi, omega, delta, theta)
        for k in range(0, count, 20):  # 20 draws at a time keep the grid small
            rows = slice(k, k + 20)
            draw = [x[rows, None] for x in (n_sq, eta, phi, delta)]
            grid_min = _variance(*draw[:3], nodes * (2.0 * omega[rows, None] + 10.0),
                                 draw[3], None if theta is None else theta[rows, None])
            assert np.max(at_optimum[rows] - grid_min.min(axis=1)) <= 1e-12


@pytest.mark.parametrize("n_sq,delta,variance_of_state", [
    (0.125, 12.5, optimal_variance),
    (0.125, 12.5, lambda state: variance_theta(state, 0.0)),
    (0.1, 10.0, lambda state: variance_theta(state, 0.0)),
])
def test_verify_omega_search_matches_brent(n_sq, delta, variance_of_state):
    """verify's closed-form drive against scipy's bounded Brent search."""
    optimize = pytest.importorskip("scipy.optimize")
    theta = None if variance_of_state is optimal_variance else 0.0
    omega, value = _min_over_omega(n_sq, math.pi, delta, theta)

    def f(w):
        params = AtomFieldParams(n_sq=n_sq, phi=math.pi, omega=w, delta=delta)
        return variance_of_state(steady_state(params))

    brent = optimize.minimize_scalar(f, bounds=(0.0, 100.0), method="bounded",
                                     options={"xatol": 1e-10})
    assert omega == pytest.approx(brent.x, abs=1e-6)
    assert value <= brent.fun + 1e-15
    assert value == pytest.approx(brent.fun, abs=1e-13)


class TestCrossover:
    def test_location(self):
        assert find_crossover() == 9.0 / 16.0
        gap = pure_state_variance(0.5625) - input_vacuum_variance(0.5625)
        assert abs(gap) <= 1e-12

    def test_amplification_sign_structure(self):
        gap = lambda n: pure_state_variance(n) - input_vacuum_variance(n)
        assert gap(0.1) < 0.0   # output more squeezed than input
        assert gap(1.0) > 0.0   # amplification lost at large N
        for n in np.linspace(0.02, 0.55, 54):
            assert gap(float(n)) < 0.0

    @pytest.mark.parametrize("phi", [math.pi / 2.0, 1.0, 2.5])
    def test_best_drive_still_beats_the_input_at_the_crossover(self, phi):
        # the crossover is that of the pure-state output: at N* the optimum
        # over the drive is -13/68, 1/272 below the input's -3/16
        n_star = find_crossover()
        best = minimize_variance(n_star, phi, ((0.0, 50.0), (-50.0, 50.0))).value
        assert best == pytest.approx(-13.0 / 68.0, abs=1e-15)
        assert best - input_vacuum_variance(n_star) == pytest.approx(-1.0 / 272.0,
                                                                     abs=1e-15)

    def test_requires_ideal_reservoir(self):
        with pytest.raises(ValidationError):
            find_crossover(eta=0.9)
