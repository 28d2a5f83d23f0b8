"""Self-verification suite: quantitative checks behind `rfsq verify`.

Each check returns (ok, detail) and is deterministic for a given seed.
The randomised sweeps draw from the broad desk-scale parameter domain
(N in [0, 2], Phi in [0, 2 pi), Omega in [0, 30], Delta in [-30, 30],
ideal reservoir). ``fast`` shrinks the sweep sizes for a
quick smoke run. The sweeps are batched: a check draws all its points
with one generator call and evaluates them with array calls (the
relaxations with one ``relax_batch``, the photon-number certification
with one ``minimize_variance_batch``).
Two checks keep a scalar loop, as the scalar path is what they test:
csv-roundtrip (``full_report`` against the grid path) and maximal-family
(``pure_state`` and ``steady_state``, the path of ``rfsq pure``). The
minima over omega are the closed form of ``drive_optima``: no search.

The independent time-domain oracle lives here, as no command needs it:
the assembled Bloch matrix (``system_grid``), its stability certificate,
and relaxation under the fixed-step RK4 map (``relax_batch``).
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np

from .bloch import BlochState, steady_state, steady_state_grid
from .errors import (
    CertificationFailedError,
    NoConvergenceError,
    RfsqError,
    StepTooLargeError,
    ValidationError,
)
from .figures import emit_figure
from .io import read_csv
from .metrics import (
    full_report,
    input_vacuum_variance,
    optimal_phase_grid,
    optimal_variance,
    pure_state_variance,
    variance_theta,
)
from .optimize import certify_n_eighth, drive_optima, find_crossover
from .params import AtomFieldParams, decay_rates
from .pure import pure_state, sz_plus_half_grid
from .scan import AxisSpec, ScanSpec, scan

#: corners of the desk-scale sweep domain, in the column order
#: (n_sq, phi, omega, delta)
_DOMAIN = ((0.0, 0.0, 0.0, -30.0), (2.0, 2.0 * math.pi, 30.0, 30.0))


def _draws(rng, count):
    """count points of the sweep domain as the columns (n_sq, phi, omega, delta).

    The generator stream is that of count rows of four scalar draws.
    """
    return rng.uniform(*_DOMAIN, size=(count, 4)).T


def _params(n_sq, phi, omega, delta) -> AtomFieldParams:
    """One drawn point as parameters."""
    return AtomFieldParams(n_sq=float(n_sq), phi=float(phi),
                           omega=float(omega), delta=float(delta))


def _min_over_omega(n_sq, phi, delta, theta=None):
    """(omega, least S_opt, or S_theta if theta is given) over omega >= 0.

    The drive is the closed form of ``drive_optima``, the value the steady state's.
    """
    w_min = float(drive_optima(n_sq, 1.0, phi, delta, theta)[0])
    omega = math.sqrt(max(w_min, 0.0))
    state = steady_state(AtomFieldParams(n_sq=n_sq, phi=phi, omega=omega,
                                         delta=delta))
    return omega, (optimal_variance(state) if theta is None
                   else variance_theta(state, theta))


# The time-domain oracle. One step of the classic fixed-step RK4 scheme
# applied to the constant-coefficient system ds/dt = A s + b is the affine
# map s -> E s + c, with E the degree-4 Taylor polynomial of expm(h A). Its
# fixed point is exactly the steady state, so relaxation accuracy is
# limited only by how long the map is iterated, never by the step size.
# Everything works on a stack of P systems at once, each with its own
# step, stopping residual and step cap.

#: instability sentinel: no physical Bloch component can approach this
BLOW_LIMIT = 10.0


def system_grid(n_sq, eta, phi, omega, delta):
    """Bloch matrix A and vector b over broadcastable parameter arrays.

    A is (..., 3, 3) and b (..., 3), with ... the broadcast shape: one
    system for scalar inputs, a stack for arrays.
    """
    n_sq, eta, phi, omega, delta = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (n_sq, eta, phi, omega, delta)))
    m, _, gamma_x, gamma_y, gamma_z = decay_rates(n_sq, eta, phi)
    m_sin = m * np.sin(phi)
    zero = np.zeros_like(n_sq)
    a = np.stack([
        np.stack([-gamma_x, -(delta + m_sin), zero], axis=-1),
        np.stack([delta - m_sin, -gamma_y, -omega], axis=-1),
        np.stack([zero, omega, -gamma_z], axis=-1),
    ], axis=-2)
    b = np.stack([zero, zero, zero - 1.0], axis=-1)
    return a, b


def routh_hurwitz_margins(a):
    """Stability certificate (c2, c0, c2*c1 - c0) of A; all positive iff Hurwitz.

    c2, c1 and c0 are the coefficients of det(lam*I - A) = lam^3 + c2 lam^2
    + c1 lam + c0. Over a stack of matrices (..., 3, 3) each margin is an
    array.
    """
    c2 = -np.trace(a, axis1=-2, axis2=-1)
    c1 = (  # sum of the principal 2x2 minors
        a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
        + a[..., 0, 0] * a[..., 2, 2] - a[..., 0, 2] * a[..., 2, 0]
        + a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1]
    )
    c0 = -np.linalg.det(a)
    return c2, c0, c2 * c1 - c0


def spectral_abscissa(a):
    """Largest real part among the eigenvalues of A; one per matrix of a stack."""
    return np.linalg.eigvals(a).real.max(axis=-1)


def _mv(m, v):
    """Matrix-vector product over stacks: (..., 3, 3) @ (..., 3) -> (..., 3)."""
    return (m @ v[..., None])[..., 0]


def rk4_affine_map(a, b, h):
    """One-step propagator (E, c) of classic RK4 for ds/dt = a s + b.

    Works on one system (a (3, 3), b (3,), scalar h) or on a stack (a
    (P, 3, 3), b (P, 3), h scalar or (P,)); E and c take the stack's shape.
    """
    h = np.asarray(h, dtype=float)
    hm = h[..., None, None]
    hv = h[..., None]
    eye = np.eye(3)
    ha = hm * a
    e = eye + ha @ (eye + (ha / 2.0) @ (eye + (ha / 3.0) @ (eye + ha / 4.0)))
    k1 = b
    k2 = _mv(a, (hv / 2.0) * k1) + b
    k3 = _mv(a, (hv / 2.0) * k2) + b
    k4 = _mv(a, hv * k3) + b
    c = (hv / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return e, c


def relax(e, c, a, b, start, stop_resid, max_steps):
    """Iterate P stacked RK4 one-step maps until each residual drops below target.

    e, a are (P, 3, 3), c, b are (P, 3); start is (P, 3) or one (3,) state
    for every point; stop_resid and max_steps are scalars or (P,). Each
    pass advances the active points by the current map, then squares it,
    (E, c) -> (E E, E c + c), so a point is checked after 1, 3, 7, ...,
    2^k - 1 steps and one relaxed over n steps costs about log2(n)
    passes. It stops at its first check where its residual (the max-norm
    of ``a @ state + b``) is at most its stop_resid, its step count
    reaches max_steps, or its state is not finite or passed BLOW_LIMIT
    (residual inf); a finished point stays frozen. Returns (states (P, 3),
    residuals (P,), steps (P,)).
    """
    states = np.array(np.broadcast_to(start, c.shape), dtype=float)
    resid = np.abs(_mv(a, states) + b).max(axis=-1)
    steps = np.zeros(len(c), dtype=np.int64)
    active = (resid > stop_resid) & (max_steps > 0)
    taken = 0
    # an unstable map overflows as it is squared: its point is flagged inf
    with np.errstate(over="ignore", invalid="ignore"):
        while active.any():
            taken = 2 * taken + 1
            moved = _mv(e, states) + c
            blown = ~(np.abs(moved).max(axis=-1) <= BLOW_LIMIT)
            r = np.where(blown, np.inf, np.abs(_mv(a, moved) + b).max(axis=-1))
            states = np.where(active[:, None], moved, states)
            resid = np.where(active, r, resid)
            steps[active] = taken
            active &= ~blown & (r > stop_resid) & (taken < max_steps)
            c = _mv(e, c) + c
            e = e @ e
    return states, resid, steps


def relax_batch(n_sq, eta, phi, omega, delta, tol=1e-10) -> np.ndarray:
    """Relax P points from the ground state at once; returns their states as (P, 3).

    The inputs are scalars or broadcastable 1-D arrays, as for
    ``system_grid``. Each point is integrated until its state error bound
    ||A^-1||_inf ||ds/dt||_inf drops below tol (a scalar or one per
    point), which also guarantees ||ds/dt||_inf < tol. The step comes
    from the stability bound alone; each point has its own step,
    stopping residual and time cap (at least 200 slow time constants),
    and gets the bits it gets alone. Raises StepTooLargeError or
    NoConvergenceError for the first failing point, naming its index;
    NoConvergenceError reports the residual and the time integrated,
    which a doubling pass of ``relax`` may carry to twice the cap.
    """
    if np.any(np.asarray(tol) <= 0.0):
        raise ValidationError(f"tol must be positive, got {tol}")
    a, b = system_grid(*np.atleast_1d(n_sq, eta, phi, omega, delta))
    a_norm = np.abs(a).sum(axis=-1).max(axis=-1)
    h = 0.25 / (a_norm + 1.0)
    ainv_norm = np.abs(np.linalg.inv(a)).sum(axis=-1).max(axis=-1)
    stop_resid = tol * np.minimum(1.0, 1.0 / ainv_norm)

    # time cap: at least 200 time constants of the slowest decaying mode,
    # which can be far slower than min(gamma_x, gamma_y, gamma_z) when the
    # coherences mix into slow/fast quadrature combinations
    rates = -np.diagonal(a, axis1=1, axis2=2)  # gamma_x, gamma_y, gamma_z
    rho_slow = np.minimum(-spectral_abscissa(a), rates.min(axis=-1))
    t_cap = 200.0 / rho_slow
    max_steps = np.ceil(t_cap / h).astype(np.int64)

    e, c = rk4_affine_map(a, b, h)
    states, resid, steps = relax(e, c, a, b, BlochState.ground().as_array(),
                                 stop_resid, max_steps)
    failed = np.flatnonzero(~(resid <= stop_resid))
    if failed.size:
        k = failed[0]
        if not np.isfinite(resid[k]):
            raise StepTooLargeError(
                f"relaxation trajectory of point {k} left the physical ball")
        raise NoConvergenceError(
            f"relaxation residual {resid[k]:.3e} of point {k} still above "
            f"{stop_resid[k]:.3e} after t = {steps[k] * h[k]:.3g}",
            residual=float(resid[k]),
        )
    return states


def check_maximal_family(seed=42, fast=False):
    """100 pure drives over N and Phi reach Sigma = 1 and S_opt = pure_state_variance(N).

    Every other point is on the N = 1/8 family, where the drive also
    gives <sz> = -1/2 and S(theta_0) = -1/4; the rest have N log-spaced
    over [1e-3, 10]. The phases run over (0, 2 pi) and miss pi.
    """
    count = 20 if fast else 100
    phases = np.linspace(0.05, 2.0 * math.pi - 0.05, count)
    photons = np.geomspace(1e-3, 10.0, count)
    photons[::2] = 0.125
    worst = 0.0
    for n_sq, phi in zip(photons.tolist(), phases.tolist()):
        sol = pure_state(n_sq, phi)
        state = steady_state(AtomFieldParams(n_sq=n_sq, phi=phi,
                                             omega=sol.omega, delta=sol.delta))
        deviations = [state.sigma - 1.0,
                      optimal_variance(state) - pure_state_variance(n_sq)]
        if n_sq == 0.125:
            deviations += [state.sz + 0.5,
                           variance_theta(state, sol.theta_0) + 0.25]
        worst = max(worst, *map(abs, deviations))
    return worst <= 1e-9, (f"worst deviation {worst:.2e} over {count} drives, "
                           "N = 1/8 and N in [1e-3, 10] (tol 1e-9)")


def check_quarter_phase_point(seed=42, fast=False):
    """Perfect pi/4-quadrature squeezing at N = 0.125, Delta = 1/4, Omega = sqrt(6)/4."""
    report = full_report(AtomFieldParams(
        n_sq=0.125, phi=math.pi / 2.0, delta=0.25, omega=math.sqrt(6.0) / 4.0,
    ))
    err = max(abs(report.s_pi4 + 0.25), abs(report.sigma - 1.0),
              abs(report.theta_o - math.pi / 4.0))
    return err <= 1e-9, (
        f"s_pi4 = {report.s_pi4:.12f}, sigma = {report.sigma:.12f}, "
        f"theta_o = {report.theta_o:.12f} (tol 1e-9)"
    )


def check_detuned_inphase_minimum(seed=42, fast=False):
    """Deep in-phase squeezing dip at N = 0.125, Phi = pi, Delta = 12.5.

    The minimal variance over the drive strength lands at
    omega = 21.65 +- 0.1. At the stated window (-0.2505, -0.249) the
    bounded quantity is the optimal-quadrature variance (its gap from
    -0.25 is the asymptotic purity deficit 1 - Sigma); the literal
    theta = 0 variance carries an extra coherence term of ~3e-4 and is
    held to -0.25 +- 2e-3.
    """
    w_opt, v_opt = _min_over_omega(0.125, math.pi, 12.5)
    w_x, v_x = _min_over_omega(0.125, math.pi, 12.5, theta=0.0)
    ok = (
        abs(w_opt - 21.65) <= 0.1
        and -0.2505 < v_opt < -0.249
        and abs(w_x - 21.65) <= 0.1
        and abs(v_x + 0.25) <= 2e-3
    )
    return ok, (
        f"optimal-phase min {v_opt:.6f} at omega {w_opt:.4f}; "
        f"in-phase min {v_x:.6f} at omega {w_x:.4f}"
    )


def check_moderate_n_inphase_minimum(seed=42, fast=False):
    """In-phase squeezing at N = 0.1, Phi = pi, Delta = 10 dips below -0.245 near omega = 15.7."""
    w, v = _min_over_omega(0.1, math.pi, 10.0, theta=0.0)
    ok = v <= -0.245 and abs(w - 15.7) <= 0.5
    return ok, f"min S_X = {v:.6f} at omega = {w:.4f} (needs <= -0.245 within 15.7 +- 0.5)"


def check_input_benchmark_degree(seed=42, fast=False):
    """The squeezed-vacuum input at N = 0.1 sits at 46.3% of maximal squeezing."""
    degree = 100.0 * input_vacuum_variance(0.1) / -0.25
    return abs(degree - 46.3) <= 0.5, f"input degree {degree:.3f}% (46.3 +- 0.5)"


def check_amplification_crossover(seed=42, fast=False):
    """The pure-state output beats the input for N below its crossover N* = 0.5625."""
    n_star = find_crossover()
    gap_star = pure_state_variance(n_star) - input_vacuum_variance(n_star)
    if abs(n_star - 0.5625) > 1e-3 or abs(gap_star) > 1e-12:
        return False, (f"crossover at {n_star:.6f} with gap {gap_star:.3e}, "
                       "expected 0.5625 +- 1e-3 and |gap| <= 1e-12")
    count = 40 if fast else 200
    ns = np.linspace(0.011, 0.549, count)
    gaps = pure_state_variance(ns) - input_vacuum_variance(ns)
    ok = bool((gaps < 0.0).all())
    return ok, f"crossover {n_star:.7f}; max gap below crossover {gaps.max():.3e}"


def check_pure_variance_law(seed=42, fast=False):
    """Pure-state variance at N = 1/8 is exactly -0.25 and matches <sz>(1+<sz>)."""
    v = pure_state_variance(0.125)
    if abs(v + 0.25) > 1e-15:
        return False, f"variance at N = 1/8 is {float(v)!r}, expected -0.25"
    ns = np.linspace(0.01, 2.0, 50)
    m = np.sqrt(ns * (ns + 1.0))
    sz = (ns - m) / (ns + m)
    worst = np.max(np.abs(pure_state_variance(ns) - sz * (1.0 + sz)))
    return bool(worst <= 1e-14), f"identity deviation {worst:.2e} (tol 1e-14)"


def check_relaxation_oracle(seed=42, fast=False):
    """Steady state and time-domain relaxation agree; closed-form <sz> matches."""
    rng = np.random.default_rng(seed)
    draws = _draws(rng, 100 if fast else 1000)
    relaxed = relax_batch(draws[0], 1.0, *draws[1:], tol=1e-9)
    direct = np.stack(steady_state_grid(draws[0], 1.0, *draws[1:]), axis=-1)
    worst_state = np.abs(direct - relaxed).max()
    worst_sz = np.abs(sz_plus_half_grid(*draws) - (direct[:, 2] + 0.5)).max()
    ok = bool(worst_state < 1e-7 and worst_sz <= 1e-10)
    return ok, (
        f"max |direct - relaxed| = {worst_state:.2e} (tol 1e-7); "
        f"max <sz>+1/2 deviation = {worst_sz:.2e} (tol 1e-10)"
    )


def check_phase_optimality(seed=42, fast=False):
    """Brute-force quadrature search agrees with the closed-form optimal phase."""
    rng = np.random.default_rng(seed + 1)
    draws = _draws(rng, 50 if fast else 500)
    thetas = np.linspace(0.0, math.pi, 721)[:-1]
    step = thetas[1] - thetas[0]
    sx, sy, sz = steady_state_grid(draws[0], 1.0, *draws[1:])
    # coherence amplitude below 1e-5: no measurable optimal phase
    live = ~(sx**2 + sy**2 < 1e-10)
    skipped = int((~live).sum())
    draws = draws[:, live]
    state = BlochState(sx[live, None], sy[live, None], sz[live, None])

    def phase_term(theta):
        # the theta-dependent part of S_theta, one row per draw; the
        # constant 1 + <sz> would swamp its curvature when the coherence
        # is small
        coherence = state.sx * np.cos(theta) - state.sy * np.sin(theta)
        return -coherence * coherence

    grid = phase_term(thetas)
    s_opt = optimal_variance(state)
    worst_floor = np.max(s_opt - (1.0 + state.sz + grid), initial=-np.inf)
    # local refine: parabolic vertex through the winner and neighbours
    # (robust on flat landscapes where line searches drown in noise)
    k = np.argmin(grid, axis=1)
    rows = np.arange(len(k))
    best = thetas[k][:, None]
    s_minus = phase_term(best - step)[:, 0]
    s_plus = phase_term(best + step)[:, 0]
    curvature = s_minus - 2.0 * grid[rows, k] + s_plus
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = thetas[k] + 0.5 * step * (s_minus - s_plus) / curvature
    theta_ref = np.where(curvature > 0.0, vertex, thetas[k])
    analytic = optimal_phase_grid(draws[0], 1.0, draws[1], draws[3])
    gap = abs(theta_ref % math.pi - analytic) % math.pi
    worst_phase = np.max(np.minimum(gap, math.pi - gap), initial=0.0)
    ok = bool(worst_phase <= 1e-6 and worst_floor <= 1e-12)
    return ok, (
        f"max phase gap {worst_phase:.2e} (tol 1e-6); "
        f"max floor violation {worst_floor:.2e}; skipped {skipped} degenerate"
    )


def check_photon_number_certification(seed=42, fast=False):
    """Only N = 1/8 reaches the -0.25 floor over the certification grid."""
    phases = (math.pi / 2.0, 3.0 * math.pi / 4.0) if fast else \
        (math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0)
    try:
        report = certify_n_eighth(tolerance=1e-6, phases=phases)
    except CertificationFailedError as exc:
        return False, f"{exc}: {exc.offenders}"
    # every per-N optimum is a nearly pure state
    ok = min(report.sigmas) > 0.98
    return ok, (
        f"global minimum {report.min_value:.9f} at N = {report.argmin_n}; "
        f"runner-up {sorted(report.minima)[1]:.6f}; "
        f"lowest optimum purity {min(report.sigmas):.4f}"
    )


def check_rates_and_bounds(seed=42, fast=False):
    """Rate identities, purity bound and variance floor over a random sweep."""
    rng = np.random.default_rng(seed + 2)
    draws = _draws(rng, 200 if fast else 1000)
    _, _, gamma_x, gamma_y, gamma_z = decay_rates(draws[0], 1.0, draws[1])
    bad = np.flatnonzero((gamma_x <= 0.0) | (gamma_y <= 0.0))
    if bad.size:
        return False, f"non-positive quadrature rate at {_params(*draws[:, bad[0]])}"
    worst_sum = np.max(np.abs(gamma_x + gamma_y - gamma_z) / gamma_z)
    state = BlochState(*steady_state_grid(draws[0], 1.0, *draws[1:]))
    worst_sigma = np.max(state.sigma - 1.0, initial=0.0)
    worst_floor = np.max(-0.25 - optimal_variance(state), initial=0.0)
    ns = np.linspace(1e-4, 10.0, 100)
    corr_ok = np.all(np.sqrt(ns * (ns + 1.0)) > ns)
    ok = bool(worst_sum < 1e-14 and worst_sigma <= 1e-9 and worst_floor <= 1e-9
              and corr_ok)
    return ok, (
        f"rate-sum deviation {worst_sum:.2e}; sigma excess {worst_sigma:.2e}; "
        f"floor violation {worst_floor:.2e}"
    )


def check_stability_certificate(seed=42, fast=False):
    """The Bloch matrix is Hurwitz across the sweep (positive certificate margins)."""
    rng = np.random.default_rng(seed + 3)
    draws = _draws(rng, 200 if fast else 1000)
    a, _ = system_grid(draws[0], 1.0, *draws[1:])
    # the eigenvalues of every tenth matrix, as an independent check
    unstable = np.flatnonzero(spectral_abscissa(a[::10]) >= 0.0)
    if unstable.size:
        return False, f"unstable matrix at {_params(*draws[:, 10 * unstable[0]])}"
    worst = min(np.min(margin) for margin in routh_hurwitz_margins(a))
    return bool(worst > 0.0), f"smallest certificate margin {worst:.3e} (must be > 0)"


def check_scan_determinism(seed=42, fast=False):
    """Repeating a scan reproduces the grid bit for bit."""
    spec = ScanSpec(
        axis1=AxisSpec("omega", 0.0, 3.0, 41),
        axis2=AxisSpec("delta", 0.0, 1.0, 29),
        fixed=AtomFieldParams(n_sq=0.125, phi=math.pi / 2.0),
        metric="s_pi4",
    )
    first = scan(spec)
    second = scan(spec)
    ok = np.array_equal(first.values, second.values)
    return ok, "identical grids" if ok else "grids differ between runs"


def check_csv_roundtrip(seed=42, fast=False):
    """Re-evaluating sampled rows of an emitted dataset reproduces the file."""
    rng = np.random.default_rng(seed + 4)
    with tempfile.TemporaryDirectory() as tmp:
        paths = emit_figure(6, Path(tmp) / "fig6.csv")
        columns = read_csv(paths["csv"])
    n_rows = len(columns["omega"])
    picks = rng.choice(n_rows, size=max(n_rows // 100, 1), replace=False)
    worst = 0.0
    for row in picks:
        report = full_report(AtomFieldParams(
            n_sq=0.125, phi=math.pi / 2.0,
            omega=float(columns["omega"][row]),
            delta=float(columns["delta"][row]),
        ))
        worst = max(worst, abs(report.s_pi4 - columns["s_pi4"][row]))
    return worst <= 1e-12, f"worst row deviation {worst:.2e} (tol 1e-12)"


#: (name, check) pairs in reporting order; the first ten are the
#: acceptance criteria, the rest are structural property sweeps
CHECKS = (
    ("maximal-family-floor", check_maximal_family),
    ("quarter-phase-point", check_quarter_phase_point),
    ("detuned-inphase-minimum", check_detuned_inphase_minimum),
    ("moderate-n-inphase-minimum", check_moderate_n_inphase_minimum),
    ("input-benchmark-degree", check_input_benchmark_degree),
    ("amplification-crossover", check_amplification_crossover),
    ("pure-variance-law", check_pure_variance_law),
    ("relaxation-oracle", check_relaxation_oracle),
    ("phase-optimality", check_phase_optimality),
    ("photon-number-certification", check_photon_number_certification),
    ("rates-and-bounds", check_rates_and_bounds),
    ("stability-certificate", check_stability_certificate),
    ("scan-determinism", check_scan_determinism),
    ("csv-roundtrip", check_csv_roundtrip),
)


def run_verify(seed: int = 42, fast: bool = False, out=None) -> bool:
    """Run every check, print one line each, return overall success."""
    import sys

    stream = out or sys.stdout
    width = max(len(name) for name, _ in CHECKS)
    all_ok = True
    for name, fn in CHECKS:
        try:
            ok, detail = fn(seed=seed, fast=fast)
        except RfsqError as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name:<{width}}  {detail}", file=stream)
    print(("all checks passed" if all_ok else "some checks FAILED"), file=stream)
    return all_ok
