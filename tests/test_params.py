"""Parameter validation and the decay rates they set."""

import math

import numpy as np
import pytest

from rfsq import AtomFieldParams
from rfsq.params import decay_rates
from rfsq.errors import ValidationError


def test_rates_at_the_special_photon_number():
    # N = 1/8 makes the correlation strength rational and the quadrature
    # rates twice / one quarter of the bare decay rate
    m, _, gamma_x, gamma_y, gamma_z = decay_rates(0.125, 1.0, 0.0)
    assert m == pytest.approx(0.375, abs=1e-15)
    assert gamma_z / 2.0 == pytest.approx(0.625, abs=1e-15)
    assert gamma_x == pytest.approx(1.0, abs=1e-15)
    assert gamma_y == pytest.approx(0.25, abs=1e-15)
    assert gamma_z == pytest.approx(1.25, abs=1e-15)


def test_rates_in_ordinary_vacuum():
    for phi in (0.0, 1.0, math.pi):
        m, _, gamma_x, gamma_y, gamma_z = decay_rates(0.0, 1.0, phi)
        assert m == 0.0
        assert gamma_x == 0.5
        assert gamma_y == 0.5
        assert gamma_z == 1.0


def test_rates_at_opposed_phase():
    # direct evaluation at N = 0.1, phi = pi; cross-checked by the sum rule
    m_corr, _, gamma_x, gamma_y, _ = decay_rates(0.1, 1.0, math.pi)
    m = math.sqrt(0.11)
    assert m_corr == pytest.approx(m, abs=1e-15)
    assert gamma_x == pytest.approx(0.6 - m, abs=1e-15)
    assert gamma_y == pytest.approx(0.6 + m, abs=1e-15)
    assert gamma_x + gamma_y == pytest.approx(1.2, abs=1e-15)


@pytest.mark.parametrize("bad", [
    dict(eta=float("nan")), dict(omega=float("inf")), dict(delta=float("inf")),
    dict(n_sq=-0.1), dict(n_sq=float("inf")),
    dict(eta=-0.01), dict(eta=1.01),
    dict(omega=-1.0), dict(delta=float("nan")), dict(phi=float("inf")),
])
def test_invalid_inputs_are_rejected(bad):
    with pytest.raises(ValidationError) as err:
        AtomFieldParams(**bad)
    # the message names the offending field
    assert next(iter(bad)) in str(err.value)


def test_correlation_bounds_and_monotonicity():
    ns = np.linspace(1e-6, 10.0, 500)
    ms = np.sqrt(ns * (ns + 1.0))
    got = np.array([decay_rates(float(n), 1.0, 0.0)[0] for n in ns])
    assert np.allclose(got, ms, rtol=1e-15)
    # strictly increasing in N, always above N, always below N + 1/2
    assert (np.diff(got) > 0.0).all()
    assert (got > ns).all()
    assert (got < ns + 0.5).all()


def test_rate_identities_over_random_parameters():
    rng = np.random.default_rng(7)
    for _ in range(500):
        params = AtomFieldParams(
            n_sq=rng.uniform(0.0, 2.0),
            eta=rng.uniform(0.0, 1.0),
            phi=rng.uniform(0.0, 2.0 * math.pi),
        )
        _, _, gamma_x, gamma_y, gamma_z = decay_rates(
            params.n_sq, params.eta, params.phi)
        assert gamma_x > 0.0
        assert gamma_y > 0.0
        assert gamma_x + gamma_y == pytest.approx(gamma_z, rel=1e-14)
