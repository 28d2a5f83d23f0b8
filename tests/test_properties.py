"""Property-based contracts, drawn by Hypothesis over wide parameter domains."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from rfsq import backends, metrics, optimize  # noqa: E402
from rfsq._carrier import SCALAR, Workspace  # noqa: E402
from rfsq.bloch import BlochState, s_opt_xyz, sigma_xyz, steady_state  # noqa: E402
from rfsq.errors import NumericalError  # noqa: E402
from rfsq.io import read_csv, write_csv  # noqa: E402
from rfsq.metrics import (  # noqa: E402
    input_vacuum_variance, optimal_phase_analytic, optimal_variance,
    pure_state_variance, variance_theta_xyz)
from rfsq.optimize import (  # noqa: E402
    VARIANCE_BOUND, drive_optima, minimize_variance_batch)
from rfsq.params import AtomFieldParams, decay_rates  # noqa: E402
from rfsq.pure import pure_state  # noqa: E402
from rfsq.verify import routh_hurwitz_margins, system_grid  # noqa: E402

from search_oracle import grid_minimum, scalar_search  # noqa: E402
from steady_oracle import cramer_steady  # noqa: E402

#: the same examples on every run, and no example database on disk
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                             database=None)


@st.composite
def box_problems(draw):
    """One search box with 1 to 6 (N, Phi) problems; a side may be frozen."""
    size = draw(st.integers(1, 6))
    n_sq = draw(st.lists(st.floats(1e-6, 1e3), min_size=size, max_size=size))
    phi = draw(st.lists(st.floats(-4.0 * math.pi, 4.0 * math.pi),
                        min_size=size, max_size=size))
    w_lo = draw(st.floats(0.0, 5.0))
    w_hi = w_lo + draw(st.sampled_from([0.0, 1e-3, 1.0, 50.0]))
    d_lo = draw(st.floats(-100.0, 100.0))
    d_hi = d_lo + draw(st.sampled_from([0.0, 1e-6, 0.5, 20.0, 200.0]))
    return n_sq, phi, ((w_lo, w_hi), (d_lo, d_hi))


@PROPERTY_SETTINGS
@given(box_problems())
def test_batched_search_is_the_scalar_search_above_the_floor(problems):
    n_sq, phi, bounds = problems
    omega, delta, value = minimize_variance_batch(n_sq, phi, bounds)
    for k in range(len(n_sq)):
        alone = minimize_variance_batch([n_sq[k]], [phi[k]], bounds)
        assert [float(x[k]).hex() for x in (omega, delta, value)] == \
            [float(x[0]).hex() for x in alone]
        assert value[k] <= scalar_search(n_sq[k], phi[k], bounds)[2] + 1e-13
    # a profile flat to below one ulp leaves the grid a few ulp of rounding
    assert np.all(value <= grid_minimum(n_sq, phi, bounds, nodes=64) + 1e-15)
    assert np.all(value >= VARIANCE_BOUND - 1e-12)


def _distance_from_pi(phi):
    return abs(math.remainder(phi - math.pi, 2.0 * math.pi))


#: any phase in [-4 pi, 4 pi], or one within 1e-6..1 of pi (mod 2 pi),
#: kept only at least 1e-6 from pi
pure_phases = st.one_of(
    st.floats(-4.0 * math.pi, 4.0 * math.pi),
    st.builds(lambda turns, side, exponent: (2 * turns + 1) * math.pi
              + side * 10.0**exponent,
              st.integers(-2, 1), st.sampled_from([-1.0, 1.0]),
              st.floats(-6.0, 0.0)),
).filter(lambda phi: _distance_from_pi(phi) >= 1e-6)


@PROPERTY_SETTINGS
@given(st.floats(1e-6, 1e3), pure_phases)
def test_pure_state_is_pure_with_the_pure_state_variance(n_sq, phi):
    sol = pure_state(n_sq, phi)
    params = AtomFieldParams(n_sq=n_sq, phi=phi, omega=sol.omega, delta=sol.delta)
    state = steady_state(params)
    assert abs(sol.sigma_achieved - 1.0) <= 1e-12
    assert abs(state.sigma - 1.0) <= 1e-12
    assert abs(optimal_variance(state) - pure_state_variance(n_sq)) <= 1e-12
    # the longitude is the optimal quadrature phase
    assert sol.alpha % math.pi == optimal_phase_analytic(params)


#: the cheap point properties draw more examples
POINT_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=500)

#: aim 3's robustness domain: N in [1e-6, 1e3], |Delta| <= 1e6,
#: Omega <= 1e5, any eta and Phi
domain_params = st.builds(
    AtomFieldParams,
    n_sq=st.floats(1e-6, 1e3),
    eta=st.floats(0.0, 1.0),
    phi=st.floats(-100.0, 100.0),
    omega=st.floats(0.0, 1e5),
    delta=st.floats(-1e6, 1e6),
)


@POINT_SETTINGS
@given(domain_params)
def test_purity_and_variance_respect_their_bounds(params):
    state = steady_state(params)
    assert state.sigma <= 1.0 + 1e-12
    # the Walls-Zoller floor (PRL 47, 709 (1981)) of the optimal quadrature
    assert optimal_variance(state) >= VARIANCE_BOUND - 1e-12


@POINT_SETTINGS
@given(domain_params)
def test_bloch_matrix_is_hurwitz(params):
    margins = routh_hurwitz_margins(system_grid(**params.inputs())[0])
    assert all(margin > 0.0 for margin in margins)


def _same_bits(scalar, array) -> bool:
    """A Python float and a numpy value are one double, or both NaN."""
    if type(scalar) is not float:
        return False
    if math.isnan(scalar):
        return bool(np.isnan(array))
    return np.float64(scalar).view(np.int64) == np.float64(array).view(np.int64)


def _agree(scalar_results, array_results):
    for scalar, array in zip(scalar_results, array_results, strict=True):
        assert _same_bits(scalar, array), (scalar, array)


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(n_sq=st.floats(1e-6, 1e3), eta=st.floats(0.0, 1.0),
       phi=st.floats(-1e300, 1e300), omega=st.floats(0.0, 1e300),
       delta=st.floats(-1e300, 1e300), theta=st.floats(-1e300, 1e300))
# no coherence along theta: drive_optima divides by rho = 0
@example(n_sq=0.125, eta=1.0, phi=0.0, omega=0.0, delta=0.0, theta=0.0)
# both scalings, and omega^2 overflowing
@example(n_sq=1e-6, eta=0.0, phi=1e300, omega=1e300, delta=-1e300, theta=1e3)
# gamma_x = 1 and a = 0: the cubics' leading coefficients vanish
@example(n_sq=0.125, eta=1.0, phi=0.0, omega=3.0, delta=-1.0, theta=0.0)
@example(n_sq=0.5, eta=0.0, phi=1.0, omega=3.0, delta=2.0, theta=0.0)
# numpy's own arccos would move a cubic's root here by an ulp
@example(n_sq=0.005803342830615528, eta=1.0, phi=3.0791332311174844,
         omega=0.25043738473108484, delta=2.954780711171079, theta=0.0)
def test_the_scalar_carrier_gives_the_numpy_bits(n_sq, eta, phi, omega, delta,
                                                 theta):
    # Python floats take the math shim, 0-d arrays numpy (see rfsq._carrier)
    floats = (n_sq, eta, phi, omega, delta)
    arrays = tuple(np.asarray(x) for x in floats)
    with np.errstate(all="ignore"):
        # the box minimum's candidates and the minimum itself, over a box
        # with a corner at the origin and one at (omega, delta)
        box = ((0.0, omega), (min(delta, 0.0), max(delta, 0.0)))
        _agree(optimize._candidates(SCALAR, n_sq, eta, phi, box),
               optimize._candidates(np, *arrays[:3], box))
        _agree(optimize._box_minimum(SCALAR, n_sq, eta, phi, box),
               optimize.minimize_variance_batch([n_sq], [phi], box, eta))
        _agree(decay_rates(n_sq, eta, phi), decay_rates(*arrays[:3]))
        grid = backends.steady_grid(*floats)
        _agree(backends._steady(SCALAR, *floats), grid)
        # a one-node block of a scan's workspace: every operation of the
        # common path writes into one of its buffers (out=)
        work = Workspace(1)
        work.block(np.empty(()))
        _agree(backends._steady(SCALAR, *floats),
               [float(x) for x in backends.steady_grid(*floats, work=work)])
        _agree(metrics._longitude(n_sq, eta, phi, delta),
               metrics._longitude(*arrays[:3], arrays[4]))
        for quadrature in (None, theta):
            _agree(drive_optima(n_sq, eta, phi, delta, quadrature),
                   drive_optima(*arrays[:3], arrays[4],
                                None if quadrature is None else np.asarray(quadrature)))
        _agree([pure_state_variance(n_sq, eta), input_vacuum_variance(n_sq, eta)],
               [pure_state_variance(arrays[0], arrays[1]),
                input_vacuum_variance(arrays[0], arrays[1])])
        params = AtomFieldParams(*floats)
        if not np.all(np.isfinite(grid)):
            with pytest.raises(NumericalError):
                steady_state(params)
            return
        state = steady_state(params)
        _agree((state.sx, state.sy, state.sz), grid)
        on_arrays = BlochState(*(np.asarray(x) for x in grid))
        on_scalars = [variance_theta_xyz(state.sx, state.sy, state.sz, theta),
                      state.sigma, optimal_variance(state)]
        _agree(on_scalars,
               [variance_theta_xyz(*grid, np.asarray(theta)),
                on_arrays.sigma, optimal_variance(on_arrays)])
        # the workspace forms write into the block's output, one at a time
        _agree(on_scalars,
               [float(variance_theta_xyz(*grid, np.asarray(theta), work)),
                float(sigma_xyz(*grid, work)), float(s_opt_xyz(*grid, work))])


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(n_sq=st.floats(1e-6, 1e3), eta=st.floats(0.0, 1.0),
       phi=st.floats(-1e300, 1e300), omega=st.floats(0.0, 1e300),
       delta=st.floats(-1e300, 1e300))
# the drive term omega^2 gamma_x / L overflows: sz and sy were -0 and 0
@example(n_sq=0.2, eta=1.0, phi=0.0, omega=2e154, delta=3e150)
@example(n_sq=1e3, eta=1.0, phi=0.0, omega=1e153, delta=0.0)
def test_steady_state_matches_fifty_digits(n_sq, eta, phi, omega, delta):
    mp = pytest.importorskip("mpmath")
    params = AtomFieldParams(n_sq, eta, phi, omega, delta)
    got = steady_state(params).as_array()
    with mp.workdps(50):
        want = cramer_steady(params, mp)
    # relative to each component, or absolute where it is subnormal
    error = np.abs(got - want)
    subnormal = np.abs(want) < 2.0**-1022
    assert np.all((error <= 2e-15 * np.abs(want))
                  | (subnormal & (error <= 2.0**-1022))), (got, want)


def _from_bits(bits: int) -> float:
    return float(np.array(bits, np.int64).view(float))


#: any float64 but NaN (whose payload the text drops): bit patterns, and
#: the zeros, extremes and subnormals Hypothesis favours
csv_values = st.one_of(
    st.integers(-2**63, 2**63 - 1).map(_from_bits),
    st.floats(allow_nan=False),
).filter(lambda x: not math.isnan(x))


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(st.integers(1, 4).flatmap(
    lambda ncols: st.lists(st.lists(csv_values, min_size=ncols, max_size=ncols),
                           max_size=40)))
def test_csv_round_trip_keeps_the_bits(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "x.csv"
    ncols = len(rows[0]) if rows else 2
    data = np.array(rows, dtype=float).reshape(-1, ncols)
    names = [f"c{k}" for k in range(ncols)]
    back = read_csv(write_csv(path, dict(zip(names, data.T))))
    assert list(back) == names
    for k, name in enumerate(names):
        assert np.array_equal(back[name].view(np.int64), data[:, k].view(np.int64))
