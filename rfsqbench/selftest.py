"""Self-test of the benchmark: every checker rejects a corrupted output,
and a short run of each workload completes.

    python3 rfsqbench/selftest.py

Run from the root of a checkout. Prints one line per case and exits 1 if
any case fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from rfsq import cli  # noqa: E402
from rfsq.verify import run_verify  # noqa: E402

FAILURES = []


def case(name, ok):
    print(f"[{'ok' if ok else 'FAIL'}] {name}")
    if not ok:
        FAILURES.append(name)


def accepts_and_rejects(name, check, good, bad):
    """The checker passes the real output and rejects the corrupted one."""
    case(f"{name}: accepts the program's output", check(good) == [])
    case(f"{name}: rejects the corrupted output", check(bad) != [])


def cli_stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"rfsq {' '.join(argv)} exited {code}")
    return buf.getvalue()


def flip_sign(text, key):
    out = json.loads(text)
    out[key] = -out[key]
    return json.dumps(out)


def perturb_last_value(data: bytes, delta: float) -> bytes:
    """Add delta to the metric column of the middle row of a CSV."""
    lines = data.decode().split("\n")
    row = 2 + (len(lines) - 3) // 2
    cells = lines[row].split(",")
    cells[-1] = format(float(cells[-1]) + delta, ".17g")
    lines[row] = ",".join(cells)
    return "\n".join(lines).encode()


def test_checkers(tmp: Path):
    p = {"n_sq": 0.37, "phi": 2.1, "omega": 3.3, "delta": -1.7}
    flags = workloads._param_flags(p)
    report = cli_stdout(["report", *flags])
    accepts_and_rejects("report, sign of s_x flipped",
                        lambda t: oracle.check_report(t, p), report,
                        flip_sign(report, "s_x"))
    steady = cli_stdout(["steady", *flags])
    accepts_and_rejects("steady, sign of sy flipped",
                        lambda t: oracle.check_steady(t, p), steady,
                        flip_sign(steady, "sy"))

    fam = {"n_sq": 0.125, "phi": 1.1, "family": True}
    pure = cli_stdout(["pure", "--n", "0.125", "--phi", "1.1"])
    moved = json.loads(pure)
    moved["omega"] *= 1.001
    accepts_and_rejects("pure closed form, drive moved by 0.1%",
                        lambda t: oracle.check_pure_closed(t, fam), pure,
                        json.dumps(moved))

    box = {"n_sq": 0.125, "phi": 1.3, "box": ((0.0, 3.0), (0.0, 2.0))}
    opt = cli_stdout(["optimize", "--n", "0.125", "--phi", "1.3",
                      "--box", "omega:0:3,delta:0:2"])
    shifted = json.loads(opt)
    shifted["value"] += 2e-6
    accepts_and_rejects("optimize, value raised by 2e-6",
                        lambda t: oracle.check_optimize(t, box), opt,
                        json.dumps(shifted))

    cross = cli_stdout(["crossover"])
    accepts_and_rejects("crossover, N* moved by 1e-11", oracle.check_crossover,
                        cross, json.dumps({"n_star": 9 / 16 + 1e-11}))

    buf = io.StringIO()
    ok = run_verify(seed=1, fast=True, out=buf)
    text = buf.getvalue()
    missing = "\n".join(line for k, line in enumerate(text.splitlines()) if k != 3)
    accepts_and_rejects("verify, one [PASS] line missing",
                        lambda t: oracle.check_verify(t, 0 if ok else 3), text, missing)

    case("clean failure: NaN report with exit 0 is rejected",
         oracle.check_clean_failure('{"sigma": NaN}', "", 0) != [])
    case("clean failure: one error line and exit 1 is accepted",
         oracle.check_clean_failure("", "error: Validation: n_sq too large\n", 1) == [])

    spec = workloads.draw_file_scan(np.random.default_rng(5), 40, 30)
    path = tmp / "scan.csv"
    cli_stdout(workloads.scan_argv(spec) + ["--out", str(path)])
    data = path.read_bytes()

    def scan_check(raw):
        names, rows = oracle.parse_csv(raw)
        return oracle.check_scan_csv(spec, names, rows)

    accepts_and_rejects("scan CSV, one value perturbed by 1e-9", scan_check, data,
                        perturb_last_value(data, 1e-9))

    from rfsq.io import read_csv
    columns = read_csv(path)
    bad_columns = {k: v.copy() for k, v in columns.items()}
    name = list(bad_columns)[-1]
    bad_columns[name][7] = math.nextafter(bad_columns[name][7], math.inf)
    case("read_csv check: accepts the real read-back",
         oracle.check_read_back(columns, *oracle.parse_csv(data)) == [])
    case("read_csv check: rejects a one-ulp difference",
         oracle.check_read_back(bad_columns, *oracle.parse_csv(data)) != [])

    stdout_csv = cli_stdout(workloads.scan_argv(spec)).encode()
    accepts_and_rejects("stdout CSV bytes differ from the file CSV",
                        lambda raw: workloads.check_same_bytes(raw, data), stdout_csv,
                        stdout_csv.replace(b",", b", ", 1))

    fig = tmp / "fig5.csv"
    cli_stdout(["figure", "5", "--out", str(fig)])
    fig_data = fig.read_bytes()

    def fig_check(raw):
        names, rows = oracle.parse_csv(raw)
        return workloads.check_figure(5, names, rows)

    accepts_and_rejects("figure 5, s_sv value perturbed by 1e-9", fig_check, fig_data,
                        perturb_last_value(fig_data, 1e-9))


def test_short_runs():
    for workload in ("interactive", "grid-scan", "dataset-io"):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", "0", "--seconds", "0", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = {}
        case(f"short run of {workload} completes and is correct",
             proc.returncode == 0 and result.get("correct") is True
             and result.get("attempted", 0) > 0)


def main():
    out_dir = ROOT / ".rfsqbench-out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        test_checkers(Path(tmp))
    test_short_runs()
    print(f"{len(FAILURES)} failing case(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
