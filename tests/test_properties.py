"""Property-based contracts, drawn by Hypothesis over wide parameter domains."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rfsq.bloch import (  # noqa: E402
    routh_hurwitz_margins, steady_state, system_grid)
from rfsq.io import read_csv, write_csv  # noqa: E402
from rfsq.metrics import (  # noqa: E402
    optimal_phase_analytic, optimal_variance, pure_state_variance)
from rfsq.optimize import VARIANCE_BOUND, minimize_variance_batch  # noqa: E402
from rfsq.params import AtomFieldParams  # noqa: E402
from rfsq.pure import pure_state  # noqa: E402

from search_oracle import grid_minimum, scalar_search  # noqa: E402

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
    margins = routh_hurwitz_margins(system_grid(**params.inputs()))
    assert all(margin > 0.0 for margin in margins)


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
