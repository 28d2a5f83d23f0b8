"""Independent reference computations and output checkers.

Nothing here imports ``rfsq``. The steady state is obtained by solving the
3x3 Bloch system of the squeezed-vacuum model directly, batched through
``numpy.linalg.solve`` (LAPACK partial-pivoted LU), which is a different
algorithm from the closed form that ``rfsq`` evaluates on grids:

    d/dt (sx, sy, sz) = A (sx, sy, sz) + (0, 0, -gamma)
    A = [[-gx,              -(delta + gM sinPhi),  0     ],
         [ delta - gM sinPhi, -gy,                -omega ],
         [ 0,                  omega,             -gz    ]]
    M = eta sqrt(N (N + 1)),  Gamma = gamma (N + 1/2),
    gx, gy = Gamma +- gM cosPhi,  gz = 2 Gamma.

Every checker returns a list of problems; an empty list means the output
passed. The checkers take program output as text or arrays so that the
self-test can hand them corrupted copies.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

#: agreement demanded between the program and the reference solve
STATE_TOL = 1e-10
#: physical bounds: Sigma <= 1 and S_theta >= -1/4, up to rounding
BOUND_TOL = 1e-12
#: the closed-form pure-state drives must reach Sigma = 1 this closely
PURE_TOL = 1e-9
#: the N = 1/8 optimum must reach -1/4 this closely
OPTIMUM_TOL = 1e-6
#: grids with more nodes are checked against the reference on a sample
REFERENCE_NODES = 65536
#: analytic crossover N + M = 3/2
N_STAR = 9.0 / 16.0
CSV_MAGIC = "# rfsq-csv v1"
VERIFY_CHECKS = 14

VARIANCE_METRICS = ("s_theta", "s_x", "s_y", "s_pi4", "s_opt")
FIXED_THETA = {"s_x": 0.0, "s_y": math.pi / 2.0, "s_pi4": math.pi / 4.0}


def steady(gamma, n_sq, eta, phi, omega, delta):
    """Reference steady Bloch vector over broadcastable parameter arrays."""
    g, n, e, p, w, d = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (gamma, n_sq, eta, phi, omega, delta))
    )
    gm = g * e * np.sqrt(n * (n + 1.0))
    big = g * (n + 0.5)
    a = np.zeros(g.shape + (3, 3))
    a[..., 0, 0] = -(big + gm * np.cos(p))
    a[..., 0, 1] = -(d + gm * np.sin(p))
    a[..., 1, 0] = d - gm * np.sin(p)
    a[..., 1, 1] = -(big - gm * np.cos(p))
    a[..., 1, 2] = -w
    a[..., 2, 1] = w
    a[..., 2, 2] = -2.0 * big
    rhs = np.zeros(g.shape + (3, 1))
    rhs[..., 2, 0] = g
    s = np.linalg.solve(a, rhs)[..., 0]
    return s[..., 0], s[..., 1], s[..., 2]


def variance(sx, sy, sz, theta):
    """Normally ordered variance of the theta quadrature."""
    coherence = sx * np.cos(theta) - sy * np.sin(theta)
    return 1.0 + sz - coherence * coherence


def metric(name, sx, sy, sz, theta=0.0):
    if name == "sigma":
        return sx * sx + sy * sy + sz * sz
    if name == "sz":
        return sz
    if name == "s_opt":
        return 1.0 + sz - sx * sx - sy * sy
    if name == "s_theta":
        return variance(sx, sy, sz, theta)
    return variance(sx, sy, sz, FIXED_THETA[name])


def _close(problems, label, got, want, tol):
    if not (isinstance(got, (int, float)) and math.isfinite(got)
            and abs(got - want) <= tol):
        problems.append(f"{label}: got {got!r}, reference {want!r} (tol {tol:g})")


def _json(text, problems):
    try:
        return json.loads(text)
    except ValueError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None


def check_steady(text, p):
    """`rfsq steady` JSON at parameters p (dict with n_sq, phi, omega, delta)."""
    problems = []
    out = _json(text, problems)
    if out is None:
        return problems
    sx, sy, sz = (float(v) for v in steady(1.0, p["n_sq"], 1.0, p["phi"],
                                            p["omega"], p["delta"]))
    for key, want in (("sx", sx), ("sy", sy), ("sz", sz),
                      ("sigma", sx * sx + sy * sy + sz * sz)):
        _close(problems, key, out.get(key), want, STATE_TOL)
    return problems


def check_report(text, p):
    """`rfsq report` JSON: every numeric field against the reference state."""
    problems = []
    out = _json(text, problems)
    if out is None:
        return problems
    n, phi = p["n_sq"], p["phi"]
    sx, sy, sz = (float(v) for v in steady(1.0, n, 1.0, phi, p["omega"], p["delta"]))
    s_opt = 1.0 + sz - sx * sx - sy * sy
    sigma = sx * sx + sy * sy + sz * sz
    m = math.sqrt(n * (n + 1.0))
    for key, want in (
        ("s_x", float(variance(sx, sy, sz, 0.0))),
        ("s_y", float(variance(sx, sy, sz, math.pi / 2.0))),
        ("s_pi4", float(variance(sx, sy, sz, math.pi / 4.0))),
        ("s_theta_o", s_opt),
        ("sigma", sigma),
        ("degree_percent", 100.0 * s_opt / -0.25),
    ):
        _close(problems, key, out.get(key), want, STATE_TOL * 400.0
               if key == "degree_percent" else STATE_TOL)
    theta_o = out.get("theta_o")
    alpha = out.get("alpha")
    if not (isinstance(theta_o, float) and 0.0 <= theta_o < math.pi):
        problems.append(f"theta_o {theta_o!r} outside [0, pi)")
    else:
        # the optimal phase must attain the minimal variance
        _close(problems, "S(theta_o)", float(variance(sx, sy, sz, theta_o)),
               s_opt, STATE_TOL)
        if isinstance(alpha, float):
            gap = (alpha - theta_o) % math.pi
            _close(problems, "alpha - theta_o mod pi", min(gap, math.pi - gap),
                   0.0, 1e-12)
    beta = out.get("beta")
    if isinstance(beta, float) and math.isfinite(beta):
        _close(problems, "cos(beta)", math.cos(beta),
               (n - m) / (n + m) if n + m > 0.0 else -1.0, STATE_TOL)
    else:
        problems.append(f"beta {beta!r} is not a finite number")
    if out.get("is_pure") is not (sigma > 1.0 - 1e-6):
        problems.append(f"is_pure {out.get('is_pure')!r} disagrees with Sigma {sigma!r}")
    return problems


def check_pure_closed(text, p):
    """Closed-form pure drive: the reference Sigma at the printed drive is 1."""
    problems = []
    out = _json(text, problems)
    if out is None:
        return problems
    try:
        n, phi, w, d = (float(out[k]) for k in ("n_sq", "phi", "omega", "delta"))
    except (KeyError, TypeError, ValueError) as exc:
        return [f"missing drive field: {exc}"]
    _close(problems, "n_sq", n, p["n_sq"], 0.0)
    _close(problems, "phi", phi, p["phi"], 0.0)
    sx, sy, sz = (float(v) for v in steady(1.0, n, 1.0, phi, w, d))
    sigma = sx * sx + sy * sy + sz * sz
    _close(problems, "reference Sigma", sigma, 1.0, PURE_TOL)
    _close(problems, "sigma_achieved", out.get("sigma_achieved"), 1.0, PURE_TOL)
    if p.get("family"):
        theta_0 = out.get("theta_0")
        if not isinstance(theta_0, float):
            return problems + [f"theta_0 {theta_0!r} missing"]
        _close(problems, "reference sz", sz, -0.5, PURE_TOL)
        _close(problems, "S(theta_0)", float(variance(sx, sy, sz, theta_0)),
               -0.25, PURE_TOL)
    return problems


def check_pure_solved(text, p):
    """`pure --solve-omega`: the printed drive is pure by the reference solve."""
    problems = []
    out = _json(text, problems)
    if out is None:
        return problems
    w = out.get("omega")
    if not isinstance(w, float):
        return [f"omega {w!r} missing"]
    sx, sy, sz = (float(v) for v in steady(1.0, p["n_sq"], 1.0, p["phi"], w, p["delta"]))
    sigma = sx * sx + sy * sy + sz * sz
    _close(problems, "sigma", out.get("sigma"), sigma, STATE_TOL)
    if not (sigma >= 1.0 - 1e-7 and sigma <= 1.0 + BOUND_TOL):
        problems.append(f"reference Sigma {sigma!r} at omega {w!r} is not pure")
    if out.get("pure") is not True:
        problems.append(f"pure flag is {out.get('pure')!r}")
    return problems


def check_optimize(text, p):
    """`optimize` at N = 1/8: reaches -1/4, and the value is the reference one."""
    problems = []
    out = _json(text, problems)
    if out is None:
        return problems
    w, d, value = out.get("omega"), out.get("delta"), out.get("value")
    if not all(isinstance(x, float) for x in (w, d, value)):
        return [f"optimum fields missing: {out!r}"]
    (w_lo, w_hi), (d_lo, d_hi) = p["box"]
    if not (w_lo <= w <= w_hi and d_lo <= d <= d_hi):
        problems.append(f"optimum ({w!r}, {d!r}) outside the box")
    sx, sy, sz = (float(v) for v in steady(1.0, p["n_sq"], 1.0, p["phi"], w, d))
    _close(problems, "value vs reference", value, 1.0 + sz - sx * sx - sy * sy,
           STATE_TOL)
    _close(problems, "value vs -1/4", value, -0.25, OPTIMUM_TOL)
    if value < -0.25 - BOUND_TOL:
        problems.append(f"value {value!r} below the -1/4 floor")
    if out.get("converged") is not True:
        problems.append("optimizer did not converge")
    return problems


def check_crossover(text, _p=None):
    problems = []
    out = _json(text, problems)
    if out is not None:
        _close(problems, "n_star", out.get("n_star"), N_STAR, 1e-12)
    return problems


def check_verify(text, returncode):
    """`rfsq verify`: exit 0 and exactly VERIFY_CHECKS [PASS] lines."""
    lines = text.splitlines()
    passed = sum(1 for line in lines if line.startswith("[PASS] "))
    failed = [line for line in lines if line.startswith("[FAIL] ")]
    problems = []
    if returncode != 0:
        problems.append(f"verify exited {returncode}")
    if passed != VERIFY_CHECKS or failed:
        problems.append(f"{passed} [PASS] lines, {len(failed)} [FAIL] lines; "
                        f"expected {VERIFY_CHECKS} and 0")
    return problems


def check_clean_failure(stdout, stderr, returncode):
    """An input the model cannot represent must fail with one error line."""
    problems = []
    if returncode == 0:
        problems.append("exited 0")
    errors = [line for line in stderr.splitlines() if line.startswith("error:")]
    if len(errors) != 1:
        problems.append(f"{len(errors)} 'error:' lines on stderr")
    if "nan" in stdout.lower():
        problems.append("NaN in stdout")
    return problems


# ---------------------------------------------------------------------------
# grids and CSV files
# ---------------------------------------------------------------------------

def linspace(axis):
    """Axis values; axis is (name, start, stop, count)."""
    return np.linspace(axis[1], axis[2], axis[3])


def grid_params(spec, i, j=None):
    """Parameter arrays at grid indices (i along axis1, j along axis2)."""
    p = dict(spec["fixed"])
    p["theta"] = spec.get("theta", 0.0)
    p[spec["axis1"][0]] = linspace(spec["axis1"])[i]
    if spec.get("axis2") is not None:
        p[spec["axis2"][0]] = linspace(spec["axis2"])[j]
    return p


def reference_metric(name, p):
    sx, sy, sz = steady(1.0, p["n_sq"], p.get("eta", 1.0), p["phi"],
                        p["omega"], p["delta"])
    return metric(name, sx, sy, sz, p["theta"])


def check_bounds(name, values):
    """Finite values within the physical bounds of the metric."""
    problems = []
    if not np.isfinite(values).all():
        problems.append(f"{name}: non-finite values")
    elif name == "sigma" and values.max() > 1.0 + BOUND_TOL:
        problems.append(f"sigma: max {values.max()!r} above 1")
    elif name in VARIANCE_METRICS and values.min() < -0.25 - BOUND_TOL:
        problems.append(f"{name}: min {values.min()!r} below -1/4")
    return problems


def check_grid(spec, values, rng=None):
    """A metric grid (axis1 outer) against bounds and the reference solve.

    Bounds hold on every node. The reference solve covers every node of a
    grid of at most REFERENCE_NODES nodes, and REFERENCE_NODES random nodes
    (drawn from ``rng``) of a larger one, so that the check's memory stays
    well below the program's own on the same grid.
    """
    n1 = spec["axis1"][3]
    n2 = 1 if spec.get("axis2") is None else spec["axis2"][3]
    values = np.asarray(values, dtype=float).reshape(n1, n2)
    problems = check_bounds(spec["metric"], values)
    if n1 * n2 <= REFERENCE_NODES:
        i, j = np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij")
        i, j = i.ravel(), j.ravel()
    else:
        rng = rng if rng is not None else np.random.default_rng(0)
        i = rng.integers(0, n1, REFERENCE_NODES)
        j = rng.integers(0, n2, REFERENCE_NODES)
    want = reference_metric(spec["metric"], grid_params(spec, i, j))
    got = values[i, j]
    err = np.abs(got - want)
    if not (err <= STATE_TOL).all():
        k = int(np.argmax(np.where(np.isfinite(err), err, np.inf)))
        problems.append(
            f"{spec['metric']} at node ({int(i[k])}, {int(j[k])}): got {got[k]!r}, "
            f"reference {want[k]!r}"
        )
    return problems


def parse_csv(data: bytes):
    """Independent parse of an rfsq CSV: (names, float matrix)."""
    head, names, body = data.split(b"\n", 2)
    if head.decode() != CSV_MAGIC:
        raise ValueError(f"bad magic line {head!r}")
    names = names.decode().split(",")
    rows = np.loadtxt(io.BytesIO(body), delimiter=",", dtype=float, ndmin=2)
    return names, rows.reshape(-1, len(names))


def check_read_back(columns, names, rows):
    """rfsq.io.read_csv output equals the independent parse_csv, bit for bit."""
    if list(columns) != names:
        return [f"read_csv columns {list(columns)} != file header {names}"]
    problems = []
    for k, name in enumerate(names):
        got = np.ascontiguousarray(columns[name], dtype=float)
        want = np.ascontiguousarray(rows[:, k])
        if got.shape != want.shape or not np.array_equal(got.view(np.int64),
                                                         want.view(np.int64)):
            problems.append(f"read_csv column {name} differs from the file")
    return problems


def check_scan_csv(spec, names, rows, rng=None):
    """A long-form scan CSV: axes equal their linspace, metric equals reference."""
    want_names = [spec["axis1"][0]] + (
        [spec["axis2"][0]] if spec.get("axis2") is not None else []) + [spec["metric"]]
    if names != want_names:
        return [f"columns {names} != {want_names}"]
    a1 = linspace(spec["axis1"])
    n2 = 1 if spec.get("axis2") is None else spec["axis2"][3]
    problems = []
    if rows.shape[0] != a1.size * n2:
        return [f"{rows.shape[0]} rows, expected {a1.size * n2}"]
    if not np.array_equal(rows[:, 0], np.repeat(a1, n2)):
        problems.append(f"axis {spec['axis1'][0]} differs from its linspace")
    if spec.get("axis2") is not None and not np.array_equal(
            rows[:, 1], np.tile(linspace(spec["axis2"]), a1.size)):
        problems.append(f"axis {spec['axis2'][0]} differs from its linspace")
    return problems + check_grid(spec, rows[:, -1], rng)
