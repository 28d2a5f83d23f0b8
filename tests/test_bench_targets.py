"""What the benchmark reads of rfsq still resolves, and its checkers pass.

``rfsqbench/tracing.py`` replaces rfsq functions by name when the
benchmark runs with ``--trace 1``; a name that no longer resolves breaks
that run. ``rfsqbench/oracle.py`` checks every answer the benchmark
gets; the point commands it draws must pass it. Both are loaded from
their files, without importing the rest of the benchmark (the oracle
imports no rfsq).
"""

import importlib
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rfsq import verify
from rfsq.cli import main
from rfsq.params import AtomFieldParams

BENCH = Path(__file__).resolve().parents[1] / "rfsqbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"rfsqbench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.fixture(scope="module")
def oracle():
    return _load("oracle")


def _cli(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def test_every_traced_function_resolves(tracing):
    for module_name, attr, _ in tracing.TARGETS:
        module = importlib.import_module(f"rfsq.{module_name}")
        assert callable(getattr(module, attr, None)), f"rfsq.{module_name}.{attr}"


def test_traced_commands_count_their_spans():
    # the benchmark's --trace 1 run: tracing.install, then cli.main on each
    # point kind and a 16 x 16 scan; a span count that cannot be computed
    # (a float result has no .size) raises out of the traced call
    script = """
import contextlib, io, sys
import numpy as np
import tracing, workloads
tracer = tracing.Tracer()
cli = tracing.install(tracer)
rng = np.random.default_rng(0)
# each operation binds (kind, argv, check, params) as its defaults
runs = [op.__defaults__[1] for _, op in workloads.point_ops(rng, 0, workloads.POINT_KINDS)]
runs += [op.__defaults__[1] for _, op in workloads.point_ops(rng, 1, ("pure-solve",))]
runs.append(workloads.scan_argv(workloads.draw_scan(rng, "drive", 0, 16, 16)))
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
counts = {}
for name, _, _, _, count in tracer.spans:
    counts.setdefault(name, []).append(count)
# one array call alone, the scan's 256 nodes: the point commands,
# optimize's box candidates included, evaluate their states on Python floats
for name in ("backends.steady_grid", "bloch.steady_state_grid"):
    assert counts[name] == [256], counts
    assert all(type(c) is int and c > 0 for c in counts[name]), counts
print(sorted(counts))
"""
    src = BENCH.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(src), str(BENCH)))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "pure.find_pure_curve" in proc.stdout


def test_parameter_validation_is_a_method():
    assert callable(AtomFieldParams.__dict__.get("__post_init__"))


def test_verify_checks_are_the_traced_ones(tracing):
    assert tuple(name for name, _ in verify.CHECKS) == tracing.VERIFY_CHECKS


def test_optimize_draws_pass_the_benchmark_checker(capsys, oracle):
    # the benchmark's optimize operation: N = 1/8, Phi in (0.3, 2.6)
    for phi in np.random.default_rng(0).uniform(0.3, 2.6, 20):
        p = {"n_sq": 0.125, "phi": float(phi), "box": ((0.0, 3.0), (0.0, 2.0))}
        out = _cli(capsys, ["optimize", "--n", "0.125", "--phi", repr(p["phi"]),
                            "--box", "omega:0:3,delta:0:2"])
        assert oracle.check_optimize(out, p) == []


def test_pure_solve_slices_pass_the_benchmark_checker(capsys, oracle):
    # the benchmark's pure-solve slices: the N = 1/8 family, and
    # Phi = pi/2 with Delta = Gamma - gM
    rng = np.random.default_rng(0)
    slices = []
    for phi in rng.uniform(0.1, 2.5, 10):
        slices.append({"n_sq": 0.125, "phi": phi, "delta": math.tan(phi / 2.0) / 4.0})
    for n in rng.uniform(0.05, 2.0, 10):
        slices.append({"n_sq": n, "phi": math.pi / 2.0,
                       "delta": n + 0.5 - math.sqrt(n * (n + 1.0))})
    for p in slices:
        p = {k: float(v) for k, v in p.items()}
        out = _cli(capsys, ["pure", "--n", repr(p["n_sq"]), "--phi", repr(p["phi"]),
                            "--delta", repr(p["delta"]), "--solve-omega"])
        assert oracle.check_pure_solved(out, p) == []
