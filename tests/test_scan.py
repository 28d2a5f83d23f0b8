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
from rfsq._carrier import SCALAR
from rfsq.bloch import BlochState, s_opt_xyz, sigma_xyz
from rfsq.errors import ValidationError
from rfsq.metrics import variance_theta_xyz
from rfsq.scan import MAX_AXIS_COUNT

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
    """The metric without a replay, from the public forms."""
    if metric == "sz":
        return sz
    if metric in ("sigma", "s_opt"):
        return getattr(BlochState(sx, sy, sz), metric)
    return variance_theta_xyz(sx, sy, sz, _THETAS.get(metric, theta))


def _unblocked(spec):
    """The scan's values and failed flat indices from one ``steady_grid``
    call over the whole grid, without a replay."""
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
    # the replayed blocks and one unblocked kernel call agree to the bit
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


def test_replay_plans_buffers_by_liveness_and_guards_blocks():
    row = np.array([10.0, 20.0, 30.0])
    # the last block is shorter: the line is bound again for one row
    cols = [np.array([[1.0], [2.0]]), np.array([[0.5], [1.0]]), np.array([[3.0]])]
    values = np.empty((5, 3))
    starts = [0, 2, 4]

    def form(col, row):
        a = col + row
        # sin(row) depends on axis2 alone; a is returned, so no later step
        # may take its buffer once b has read it
        c = a * 2.0 * np.sin(row)
        return a, c + 1.0

    replay = SCAN.Replay((2, 3))
    for col in cols:
        a, d = replay(form, col, row)
        assert a.tobytes() == (col + row).tobytes()
        assert d.tobytes() == ((col + row) * 2.0 * np.sin(row) + 1.0).tobytes()
    # sin(row) was evaluated at the record, once; the line holds the rest
    line = replay._lines[form]
    assert [fn for fn, _, _ in line.steps] == [np.add, np.multiply, np.multiply,
                                               np.add]
    # at most three block values are alive at once: a, a * 2 and its
    # product with sin(row); then a, the product and the result
    assert len(replay.buffers[np.dtype(float)]) == 3
    # what was evaluated once holds only for the same fixed arguments
    with pytest.raises(ValueError):
        replay(form, cols[0], row.copy())

    calls = []

    def guarded(col, row):
        x = col * row
        if np.any(x > 50.0):
            calls.append(len(col))
            x = np.minimum(x, 50.0)
        return x - 1.0

    expected = [guarded(col, row).tobytes() for col in cols]
    calls.clear()
    replay = SCAN.Replay((2, 3))
    for lo, col, want in zip(starts, cols, expected):
        out = values[lo:lo + len(col)]
        value = replay(guarded, col, row, out=out)
        # the first and last blocks pass 50: they are evaluated directly,
        # the middle one is replayed into its output slice
        assert (value is out) == (lo == 2)
        out[...] = value
        assert out.tobytes() == want
    assert calls == [2, 1]

    def coarse(col, row):
        if np.any(row > 25.0):
            calls.append(len(col))
        return col * row

    # a guard of constants that holds sends every block the direct way
    calls.clear()
    replay = SCAN.Replay((2, 3))
    for col in cols:
        assert replay(coarse, col, row).tobytes() == (col * row).tobytes()
    assert calls == [2, 2, 1]


def test_replay_refuses_numpy_functions_off_the_ufunc_path():
    col, row = np.array([[1.0], [-2.0]]), np.array([10.0, 20.0, 30.0])

    def where(col, row):
        return np.where(col * row > 0.0, 1.0, 2.0)

    def branch(col, row):
        return 1.0 if col * row > 0.0 else 2.0

    for form in (where, branch):
        with pytest.raises(TypeError):
            SCAN.Replay((2, 3))(form, col, row)
    # no form a scan replays calls one: each records with every argument
    # varying and gives the direct bits
    inputs = [np.array([0.3, 2.0]), np.array([1.0, 0.6]), np.array([2.0, -1.0]),
              np.array([0.7, 40.0]), np.array([-0.4, 3.0])]
    replay = SCAN.Replay((2,))
    states = replay(backends._steady, np, *inputs)
    direct = backends._steady(np, *inputs)
    assert [x.tobytes() for x in states] == [x.tobytes() for x in direct]
    theta = np.array([0.2, 1.9])
    for form, args in ((sigma_xyz, direct), (s_opt_xyz, direct),
                       (variance_theta_xyz, (*direct, theta))):
        assert replay(form, *args).tobytes() == form(*args).tobytes()


def _reservoir(width, count1=2):
    """An n_sq x phi s_opt scan whose rows hold ``width`` nodes."""
    return ScanSpec(axis1=AxisSpec("n_sq", 0.0, 2.0, count1),
                    axis2=AxisSpec("phi", 0.0, 2.0 * math.pi, width),
                    fixed=AtomFieldParams(omega=0.8, delta=0.3), metric="s_opt")


def _seen_buffer_sizes(monkeypatch):
    """The ufunc buffer size each kernel call of a scan runs under."""
    real = backends.steady_grid
    sizes = []

    def reading(*inputs, work=None):
        sizes.append(np.getbufsize())
        return real(*inputs, work=work)

    monkeypatch.setattr(backends, "steady_grid", reading)
    return sizes


@pytest.mark.parametrize("width, buffer", [
    (2048, 2048), (1000, 992), (2049, 2048), (64, 64), (48, None), (32, None),
    (None, None),
])
def test_rows_of_64_or_more_set_the_ufunc_buffer(monkeypatch, width, buffer):
    # numpy's buffer is a multiple of 16 (np.setbufsize(8) raises); narrow
    # rows and 1-D scans keep the caller's size, here numpy's default
    default = np.getbufsize()
    sizes = _seen_buffer_sizes(monkeypatch)
    spec = (ScanSpec(axis1=AxisSpec("omega", 0.0, 3.0, 4096),
                     fixed=AtomFieldParams(n_sq=0.2, phi=1.0))
            if width is None else _reservoir(width, 40))
    scan(spec)
    assert sizes and set(sizes) == {buffer or default}
    assert np.getbufsize() == default


def test_the_callers_ufunc_buffer_survives_a_scan(monkeypatch):
    sizes = _seen_buffer_sizes(monkeypatch)
    with np.errstate():
        np.setbufsize(4096)
        scan(_reservoir(32))
        scan(_reservoir(1000))
        assert sizes == [4096, 992]
        assert np.getbufsize() == 4096

    default = np.getbufsize()

    def failing(*inputs, work=None):
        raise RuntimeError("kernel failed")

    monkeypatch.setattr(backends, "steady_grid", failing)
    for width in (32, 2048):
        with pytest.raises(RuntimeError):
            scan(_reservoir(width, 40))
        assert np.getbufsize() == default


def test_no_row_width_is_refused_a_buffer():
    default = np.getbufsize()
    for width in range(2, MAX_AXIS_COUNT + 1):
        assert not scan(_reservoir(width)).errors
    assert np.getbufsize() == default


@pytest.mark.parametrize("width", [16, 33, 64, 1000, 2049])
def test_row_sized_buffers_change_no_bits(width):
    # about 2^16 nodes: two or more replayed blocks under the row's buffer
    spec = _reservoir(width, min(MAX_AXIS_COUNT, (1 << 16) // width + 1))
    result = scan(spec)
    values, bad = _unblocked(spec)
    assert result.values.tobytes() == values.tobytes()
    assert _failed(result) == bad.tolist()


def test_only_scans_of_several_blocks_replay(monkeypatch):
    # a scan of one block calls its forms directly: a replay would record,
    # plan and bind them for a single pass
    made = []

    class Counted(SCAN.Replay):
        def __init__(self, shape):
            made.append(shape)
            super().__init__(shape)

    monkeypatch.setattr(SCAN, "Replay", Counted)
    sizes = _seen_buffer_sizes(monkeypatch)
    for count1 in (2, 64, 65):
        scan(_reservoir(512, count1))
    assert made == [(64, 512)]
    # one kernel call per block, each under the row's buffer
    assert sizes == [512] * 4
