"""Grid scans: consistency with point evaluation, determinism, validation."""

import math
import sys
import tracemalloc

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
from rfsq import backends
from rfsq._carrier import SCALAR, Workspace, writer
from rfsq.bloch import BlochState
from rfsq.errors import ValidationError
from rfsq.metrics import variance_theta_xyz

#: ``rfsq.scan`` is the function; the submodule lives in sys.modules
SCAN = sys.modules["rfsq.scan"]


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
    real = backends.steady_grid

    def poisoned(n_sq, eta, phi, omega, delta, work=None):
        sx, sy, sz = real(n_sq, eta, phi, omega, delta, work=work)
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
    real = backends.steady_grid
    poison = [1, 2, 3, 9, 10, 19]

    def poisoned(n_sq, eta, phi, omega, delta, work=None):
        sx, sy, sz = real(n_sq, eta, phi, omega, delta, work=work)
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
    ScanSpec(axis1=AxisSpec("theta", 0.0, math.pi, 181),
             fixed=AtomFieldParams(n_sq=0.125, omega=0.4, delta=0.2, phi=1.0),
             metric="s_theta"),
    ScanSpec(axis1=AxisSpec("n_sq", 0.0, 3.0, 2500),
             fixed=AtomFieldParams(omega=0.8, delta=0.3, phi=2.5), metric="sigma"),
    # |delta| passes 2^500 from row 129 on, past the first 2^16-node block,
    # and omega^2 gamma_z passes 2^1021 from column 205: the far-detuned
    # rescale fires in the second block only, the strong drive in part of
    # every block
    ScanSpec(axis1=AxisSpec("delta", 0.0, 6.5e150, 256),
             axis2=AxisSpec("omega", 0.0, 1e154, 512),
             fixed=AtomFieldParams(n_sq=0.2, phi=2.0), metric="sz"),
    # omega^2 gamma_z passes 2^1021 from row 256 on, in the second block only
    ScanSpec(axis1=AxisSpec("omega", 0.0, 8e153, 512),
             axis2=AxisSpec("delta", -6.5e150, 6.5e150, 256),
             fixed=AtomFieldParams(n_sq=0.2, phi=2.0), metric="s_pi4"),
]

_BLOCK_IDS = ["omega-phi", "n_sq-phi", "omega-theta", "theta-omega", "delta",
              "n_sq-overflow", "theta", "n_sq", "far-detuned", "strong-drive"]

_THETAS = {"s_x": 0.0, "s_y": math.pi / 2.0, "s_pi4": math.pi / 4.0}


def _metric(metric, sx, sy, sz, theta):
    """The metric without a workspace, from the public forms."""
    if metric == "sz":
        return sz
    if metric in ("sigma", "s_opt"):
        return getattr(BlochState(sx, sy, sz), metric)
    return variance_theta_xyz(sx, sy, sz, _THETAS.get(metric, theta))


def _unblocked(spec):
    """The scan's values and failed flat indices from one ``steady_grid``
    call over the whole grid, without a workspace."""
    node = {**spec.fixed.inputs(), "theta": spec.theta}
    node[spec.axis1.name] = (spec.axis1.values if spec.axis2 is None
                             else spec.axis1.values[:, None])
    if spec.axis2 is not None:
        node[spec.axis2.name] = spec.axis2.values
    theta = node.pop("theta")
    with np.errstate(all="ignore"):
        values = np.broadcast_to(
            _metric(spec.metric, *backends.steady_grid(**node), theta),
            spec.shape).copy()
    bad = np.flatnonzero(~np.isfinite(values))
    values.flat[bad] = 0.0
    return values, bad


def _failed(result):
    """The flat indices of a scan's failed nodes, from its runs."""
    shape = result.values.shape
    return [k for first, last, _ in result.errors
            for k in range(int(np.ravel_multi_index(first, shape)),
                           int(np.ravel_multi_index(last, shape)) + 1)]


@pytest.mark.parametrize("block_nodes", [1, 7, 1 << 20])
@pytest.mark.parametrize("spec", _BLOCK_SPECS, ids=_BLOCK_IDS)
def test_block_size_changes_no_output(monkeypatch, spec, block_nodes):
    default = scan(spec)
    # the workspace's blocks and one unblocked kernel call agree to the bit
    values, bad = _unblocked(spec)
    assert default.values.tobytes() == values.tobytes()
    assert _failed(default) == bad.tolist()
    monkeypatch.setattr(SCAN, "BLOCK_NODES", block_nodes)
    blocked = scan(spec)
    assert blocked.values.tobytes() == default.values.tobytes()
    assert blocked.errors == default.errors
    if spec.axis1.stop == 1e200:
        assert default.errors == [((1, 0), (39, 2), "steady state failed to evaluate")]


@pytest.mark.parametrize("spec", _BLOCK_SPECS, ids=_BLOCK_IDS)
def test_scan_nodes_are_the_scalar_carrier_bits(spec):
    # Python floats through the math shim, node by node (see rfsq._carrier)
    result = scan(spec)
    failed = set(_failed(result))
    rng = np.random.default_rng(25)
    for k in rng.choice(result.values.size, 40, replace=False).tolist():
        index = np.unravel_index(k, result.values.shape)
        node = {**spec.fixed.inputs(), "theta": spec.theta}
        for axis, i in zip(spec.axes, index):
            node[axis.name] = float(axis.values[i])
        theta = node.pop("theta")
        value = _metric(spec.metric, *backends._steady(SCALAR, *node.values()), theta)
        if math.isfinite(value):
            assert k not in failed
            assert float(result.values.flat[k]).hex() == value.hex()
        else:
            assert k in failed and result.values.flat[k] == 0.0


def test_kernel_calls_stay_within_the_block(monkeypatch):
    # every float64 buffer of a block holds at most 2^15 values (256 KiB)
    real = backends.steady_grid
    sizes = []

    def counted(*inputs, work=None):
        sx, sy, sz = real(*inputs, work=work)
        sizes.append(sz.size)
        return sx, sy, sz

    monkeypatch.setattr(backends, "steady_grid", counted)
    result = scan(ScanSpec(axis1=AxisSpec("omega", 0.0, 3.0, 2048),
                           axis2=AxisSpec("phi", -math.pi, math.pi, 2048),
                           fixed=AtomFieldParams(n_sq=0.2, delta=0.3)))
    assert not result.errors
    assert max(sizes) <= 1 << 15
    assert sum(sizes) == 2048 * 2048


@pytest.mark.parametrize("spec", [
    ScanSpec(axis1=AxisSpec("n_sq", 0.0, 2.0, 2048),
             axis2=AxisSpec("phi", 0.0, 2.0 * math.pi, 2048),
             fixed=AtomFieldParams(omega=0.8, delta=0.3), metric="s_opt"),
    # 2047 rows end on a partial block
    ScanSpec(axis1=AxisSpec("omega", 0.0, 3.0, 2047),
             axis2=AxisSpec("delta", -3.0, 3.0, 2049),
             fixed=AtomFieldParams(n_sq=0.2, phi=1.0), metric="s_theta", theta=0.4),
], ids=["n_sq-phi", "omega-delta"])
def test_scan_allocates_its_output_and_one_workspace(spec):
    # the kernel, the metric and the finiteness test write into one
    # workspace of block-sized buffers: at most ten float64 blocks of 2^15
    # nodes beyond the output (blocks that allocated every temporary took
    # 4.4-4.8 MiB)
    limit = 10 * (1 << 15) * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = scan(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not result.errors
    assert peak - start - result.values.nbytes <= limit


def test_workspace_reuses_temporaries_and_keeps_held_values():
    out = np.zeros((2, 3))
    col, row = np.array([[1.0], [2.0]]), np.array([10.0, 20.0, 30.0])
    work = Workspace(out.size)
    work.block(out)
    put, last = writer(work, col, row)
    # a per-axis result stays new and small
    assert put(np.multiply, col, 2.0).shape == (2, 1)
    held = put(np.add, col, row)
    inner = put(np.multiply, col, row)
    # a nested put's result is overwritten in place, a named one is not
    outer = put(np.subtract, put(np.multiply, col, row), held)
    twice = put(np.multiply, put(np.add, held, 1.0), 2.0)
    assert len({id(held), id(inner), id(outer), id(twice)}) == 4
    np.testing.assert_array_equal(held, col + row)
    np.testing.assert_array_equal(inner, col * row)
    np.testing.assert_array_equal(outer, col * row - (col + row))
    np.testing.assert_array_equal(twice, (col + row + 1.0) * 2.0)
    assert last(np.add, held, inner) is out
    np.testing.assert_array_equal(out, col + row + col * row)
    # the four values and two free buffers fill the first allocation; a
    # buffer comes back once its holder lets go
    assert len(work._bases) == Workspace.FLOATS
    more = [put(np.add, col, row) for _ in range(2)]
    assert len(work._bases) == Workspace.FLOATS
    del inner
    assert put(np.add, col, row) is not None and len(work._bases) == Workspace.FLOATS
    # past twice FLOATS held values a result is a new array
    more += [put(np.add, col, row) for _ in range(Workspace.FLOATS + 2)]
    assert len(work._bases) == 2 * Workspace.FLOATS
    assert not any(more[-1] is b for b in work._pool)
    np.testing.assert_array_equal(more[-1], col + row)
    # the next block gets back a per-axis result whose function and
    # arguments are the same objects, and recomputes the others
    halved = put(np.multiply, row, 0.5)
    other = np.array([[3.0], [4.0]])
    changed = put(np.multiply, other, 0.5)
    work.block(np.zeros((2, 3)))
    assert put(np.multiply, row, 0.5) is halved
    assert put(np.multiply, other.copy(), 0.5) is not changed
