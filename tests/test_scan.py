"""Grid scans: consistency with point evaluation, determinism, validation."""

import math
import sys

import numpy as np
import pytest

from rfsq import (
    AtomFieldParams,
    AxisSpec,
    ScanSpec,
    full_report,
    scan,
    steady_state,
    variance_theta,
)
from rfsq.errors import ValidationError


def test_tiny_scan_matches_point_reports():
    cases = [
        ("s_pi4", AxisSpec("omega", 0.5, 1.5, 2), AxisSpec("delta", 0.0, 1.0, 2),
         AtomFieldParams(n_sq=0.125, phi=math.pi / 2.0)),
        # theta surfaces: the kernel sees only the other axis, so its output
        # is narrower than the grid and the metric broadcasts it over theta
        ("s_theta", AxisSpec("omega", 0.25, 2.0, 4), AxisSpec("theta", 0.0, math.pi, 5),
         AtomFieldParams(n_sq=0.125, phi=math.pi / 3.0, delta=0.3)),
        ("s_theta", AxisSpec("theta", 0.0, math.pi, 5), AxisSpec("n_sq", 0.05, 0.5, 4),
         AtomFieldParams(phi=math.pi / 3.0, omega=0.7, delta=0.3)),
    ]
    for metric, axis1, axis2, fixed in cases:
        result = scan(ScanSpec(axis1=axis1, axis2=axis2, fixed=fixed, metric=metric))
        assert result.values.shape == (axis1.count, axis2.count)
        assert not result.errors
        for i, v1 in enumerate(axis1.values):
            for j, v2 in enumerate(axis2.values):
                node = {**fixed.inputs(), axis1.name: float(v1), axis2.name: float(v2)}
                theta = node.pop("theta", None)
                params = AtomFieldParams(**node)
                if metric == "s_pi4":
                    expected = full_report(params).s_pi4
                else:
                    expected = variance_theta(steady_state(params), theta)
                assert result.values[i, j] == pytest.approx(expected, abs=1e-12)


def test_one_dimensional_scan_matches_surface_row():
    fixed = AtomFieldParams(n_sq=0.1, phi=math.pi, delta=10.0)
    line = scan(ScanSpec(axis1=AxisSpec("omega", 0.0, 30.0, 61),
                         fixed=fixed, metric="s_x"))
    surface = scan(ScanSpec(
        axis1=AxisSpec("omega", 0.0, 30.0, 61),
        axis2=AxisSpec("phi", 0.0, math.pi, 3),
        fixed=fixed, metric="s_x"))
    assert np.allclose(line.values, surface.values[:, 2], atol=1e-13)


def test_deep_in_phase_region():
    # the in-phase surface dips below -0.245 near (omega ~ 16, phi ~ pi)
    result = scan(ScanSpec(
        axis1=AxisSpec("omega", 0.0, 30.0, 301),
        axis2=AxisSpec("phi", 0.0, math.pi, 181),
        fixed=AtomFieldParams(n_sq=0.1, delta=10.0),
        metric="s_x",
    ))
    i, j = np.unravel_index(int(np.argmin(result.values)), result.values.shape)
    omegas = result.spec.axis1.values
    phis = result.spec.axis2.values
    assert result.values[i, j] <= -0.245
    assert abs(omegas[i] - 15.7) <= 0.5
    assert abs(phis[j] - math.pi) <= 0.06
    # the opposed-phase edge itself dips almost as deep, at the same drive
    edge = result.values[:, -1]
    k = int(np.argmin(edge))
    assert edge[k] <= -0.245
    assert abs(omegas[k] - 15.7) <= 0.5
    # along the zero-phase edge the in-phase quadrature is never squeezed
    assert (result.values[:, 0] >= 0.0).all()


def test_theta_axis_scan():
    fixed = AtomFieldParams(n_sq=0.125, phi=0.0, omega=math.sqrt(3.0) / 4.0)
    result = scan(ScanSpec(
        axis1=AxisSpec("theta", 0.0, math.pi, 181),
        fixed=fixed, metric="s_theta"))
    thetas = result.spec.axis1.values
    k = int(np.argmin(result.values))
    assert thetas[k] == pytest.approx(math.pi / 2.0, abs=0.01)
    assert result.values[k] == pytest.approx(-0.25, abs=1e-4)


def test_scan_is_bit_deterministic():
    spec = ScanSpec(
        axis1=AxisSpec("omega", 0.0, 3.0, 64),
        axis2=AxisSpec("n_sq", 0.01, 0.5, 33),
        fixed=AtomFieldParams(phi=math.pi / 2.0, delta=0.25),
        metric="s_opt",
    )
    first = scan(spec)
    second = scan(spec)
    assert np.array_equal(first.values, second.values)


def test_spec_validation():
    ax = AxisSpec("omega", 0.0, 1.0, 8)
    with pytest.raises(ValidationError):
        AxisSpec("coupling", 0.0, 1.0, 8)
    with pytest.raises(ValidationError):
        AxisSpec("omega", 1.0, 0.0, 8)
    with pytest.raises(ValidationError):
        AxisSpec("omega", 0.0, 1.0, 1)
    with pytest.raises(ValidationError):
        AxisSpec("omega", 0.0, 1.0, 5000)
    with pytest.raises(ValidationError):
        AxisSpec("n_sq", -0.5, 1.0, 8)
    with pytest.raises(ValidationError):
        ScanSpec(axis1=ax, axis2=AxisSpec("omega", 2.0, 3.0, 4))
    with pytest.raises(ValidationError):
        ScanSpec(axis1=ax, metric="s_best")
    with pytest.raises(ValidationError):
        ScanSpec(axis1=AxisSpec("theta", 0.0, 3.0, 8), metric="s_x")


def test_failed_nodes_become_error_rows(monkeypatch):
    from rfsq import backends

    real = backends.steady_grid

    def poisoned(n_sq, eta, phi, omega, delta):
        sx, sy, sz = real(n_sq, eta, phi, omega, delta)
        sz = sz.copy()
        sz[3] = np.nan
        return sx, sy, sz

    monkeypatch.setattr(backends, "steady_grid", poisoned)
    result = scan(ScanSpec(axis1=AxisSpec("omega", 0.0, 1.0, 8),
                           fixed=AtomFieldParams(n_sq=0.1), metric="sz"))
    assert result.errors == [((3,), (3,), "steady state failed to evaluate")]
    assert result.failed_nodes() == 1
    assert np.isfinite(result.values).all()
    assert result.values[3] == 0.0


def test_failed_nodes_are_recorded_as_row_major_runs(monkeypatch):
    from rfsq import backends

    real = backends.steady_grid
    poison = [1, 2, 3, 9, 10, 19]

    def poisoned(n_sq, eta, phi, omega, delta):
        sx, sy, sz = real(n_sq, eta, phi, omega, delta)
        sz = sz.copy()
        sz.flat[poison] = np.nan
        return sx, sy, sz

    monkeypatch.setattr(backends, "steady_grid", poisoned)
    result = scan(ScanSpec(axis1=AxisSpec("omega", 0.0, 1.0, 4),
                           axis2=AxisSpec("delta", 0.0, 1.0, 5),
                           fixed=AtomFieldParams(n_sq=0.1), metric="sz"))
    # a run may cross the end of a row
    assert [(first, last) for first, last, _ in result.errors] == [
        ((0, 1), (0, 3)), ((1, 4), (2, 0)), ((3, 4), (3, 4))]
    assert result.failed_nodes() == len(poison)
    assert np.count_nonzero(result.values.flat[poison]) == 0


def test_axis_span_overflow_is_halved_only_where_it_overflows():
    axis = AxisSpec("delta", -1e308, 1e308, 5)
    assert list(axis.values) == [-1e308, -5e307, 0.0, 5e307, 1e308]
    # a finite span keeps linspace's bits
    finite = AxisSpec("delta", -3.0, 7.1, 11)
    assert np.array_equal(finite.values, np.linspace(-3.0, 7.1, 11))


_BLOCK_SPECS = [
    ScanSpec(axis1=AxisSpec("omega", 0.0, 3.0, 257),
             axis2=AxisSpec("phi", -math.pi, math.pi, 3),
             fixed=AtomFieldParams(n_sq=0.2, delta=0.3), metric="s_opt"),
    ScanSpec(axis1=AxisSpec("n_sq", 0.0, 2.0, 129),
             axis2=AxisSpec("phi", 0.0, 2.0 * math.pi, 50),
             fixed=AtomFieldParams(omega=0.8, delta=-0.4, eta=0.7), metric="s_x"),
    ScanSpec(axis1=AxisSpec("omega", 0.0, 2.0, 100),
             axis2=AxisSpec("theta", 0.0, math.pi, 6),
             fixed=AtomFieldParams(n_sq=0.125, phi=1.0), metric="s_theta"),
    ScanSpec(axis1=AxisSpec("theta", 0.0, math.pi, 6),
             axis2=AxisSpec("omega", 0.0, 2.0, 100),
             fixed=AtomFieldParams(n_sq=0.125, phi=1.0), metric="s_theta"),
    ScanSpec(axis1=AxisSpec("delta", -5.0, 5.0, 4096),
             fixed=AtomFieldParams(n_sq=0.3, omega=1.1, phi=2.0), metric="s_opt"),
    # the rows past N ~ 1.3e154 fail: one run of failed nodes over many blocks
    ScanSpec(axis1=AxisSpec("n_sq", 0.0, 1e200, 40),
             axis2=AxisSpec("phi", 0.0, math.pi, 3),
             fixed=AtomFieldParams(omega=1.0), metric="s_x"),
]


@pytest.mark.parametrize("block_nodes", [1, 7, 1 << 20])
@pytest.mark.parametrize("spec", _BLOCK_SPECS,
                         ids=["omega-phi", "n_sq-phi", "omega-theta",
                              "theta-omega", "delta", "n_sq-overflow"])
def test_block_size_changes_no_output(monkeypatch, spec, block_nodes):
    default = scan(spec)
    # ``rfsq.scan`` is the function; the submodule lives in sys.modules
    monkeypatch.setattr(sys.modules["rfsq.scan"], "BLOCK_NODES", block_nodes)
    blocked = scan(spec)
    assert blocked.values.tobytes() == default.values.tobytes()
    assert blocked.errors == default.errors
    if spec.axis1.stop == 1e200:
        assert len(default.errors) == 1 and default.failed_nodes() > 3


def test_kernel_calls_stay_within_the_block(monkeypatch):
    # every float64 temporary of a block is at most 2^15 * 8 B = 256 KiB
    from rfsq import backends

    real = backends.steady_grid
    sizes = []

    def counted(*inputs):
        sx, sy, sz = real(*inputs)
        sizes.append(sz.size)
        return sx, sy, sz

    monkeypatch.setattr(backends, "steady_grid", counted)
    result = scan(ScanSpec(axis1=AxisSpec("omega", 0.0, 3.0, 2048),
                           axis2=AxisSpec("phi", -math.pi, math.pi, 2048),
                           fixed=AtomFieldParams(n_sq=0.2, delta=0.3)))
    assert not result.errors
    assert max(sizes) <= 1 << 15
    assert sum(sizes) == 2048 * 2048
