"""rfsq benchmark: one command, three workloads, every metric by name.

    python3 rfsqbench/run.py --workload interactive|grid-scan|dataset-io \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout (``src/rfsq`` must exist). The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics when ``--trace 0``, the per-layer
metrics when ``--trace 1``. Full results, and spans for traced runs, go
to ``.rfsqbench-out/``. See rfsqbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
IMPORT_REPEATS = 3

_IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import rfsq; "
                 "print(time.perf_counter() - t, len(sys.modules))")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("interactive", "grid-scan", "dataset-io"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup(args):
    """Import rfsq and the harness, generate the first cycle's inputs, warm up."""
    sys.path[:0] = [str(ROOT / "src")]
    import rfsq  # noqa: F401  (the import is part of what set-up costs)

    import harness
    import tracing
    import workloads

    out_dir = ROOT / ".rfsqbench-out"
    h = harness.Harness(ROOT, args.seed, bool(args.trace), out_dir)
    if h.tracer is not None:
        tracing.install(h.tracer)
    cycle, min_steps = workloads.WORKLOADS[args.workload](h)
    first = cycle(0)
    workloads.warm_up(h)
    return h, cycle, first, min_steps


def _measure_setup(args):
    """Median wall time of fresh processes doing the set-up alone."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
            raise SystemExit(f"set-up failed with exit code {proc.returncode}")
    return statistics.median(times)


def _import_stats(h):
    """Fresh-interpreter import time, module count and scipy's share."""
    import tracing

    times, modules, scipy = [], [], []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=h.env,
                             cwd=h.tmp, capture_output=True, text=True, timeout=120)
        seconds, count = out.stdout.split()
        times.append(float(seconds))
        modules.append(int(count))
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import rfsq"],
                             env=h.env, cwd=h.tmp, capture_output=True, text=True,
                             timeout=120).stderr
        scipy.append(tracing.parse_importtime(err))
    return {"rfsq_s": statistics.median(times), "modules": max(modules),
            "scipy_s": statistics.median(scipy)}


def _end_to_end(h, setup_s):
    figures = [h.mean(f"figure{n}_s") for n in range(2, 8)]
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (h.peak_rss_mib(), "MiB"),
        "point_cmd_s": (h.mean("point_cmd_s"), "s"),
        "verify_s": (h.mean("verify_s"), "s"),
        "drive_scan_mnodes_per_s": (
            h.rate("drive_scan_nodes", "drive_scan_s", 1e6), "Mnodes/s"),
        "reservoir_scan_mnodes_per_s": (
            h.rate("reservoir_scan_nodes", "reservoir_scan_s", 1e6), "Mnodes/s"),
        "scan_file_s": (h.mean("scan_file_s"), "s"),
        "scan_stdout_s": (h.mean("scan_stdout_s"), "s"),
        "figures_s": (sum(figures) if None not in figures else None, "s"),
        "csv_read_mb_per_s": (h.rate("read_bytes", "read_s", 1e6), "MB/s"),
    }


def main(argv=None):
    # a terminated run raises SystemExit, so subprocess.run kills and reaps
    # the child it is waiting for and the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = _parse_args(argv)
    if not (ROOT / "src" / "rfsq" / "__init__.py").is_file():
        print(f"error: no rfsq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_only:
        h = _setup(args)[0]
        shutil.rmtree(h.tmp, ignore_errors=True)
        return 0

    import harness

    setup_s = _measure_setup(args)
    h, cycle, first, min_steps = _setup(args)
    try:
        t0 = time.perf_counter()
        steps = harness.run_steps(h, cycle, first, args.seconds, min_steps)
        wall = time.perf_counter() - t0
        e2e = _end_to_end(h, setup_s)
        result = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "steps": steps, "measure_wall_s": wall,
            "attempted": h.attempted, "failed": h.failed,
            "failures": h.failures[:20], "problems": h.problems[:20],
            "end_to_end": e2e, "samples": dict(h.samples),
        }
        if args.trace:
            import tracing

            spans = h.all_spans()
            result["per_layer"] = tracing.layer_metrics(spans, _import_stats(h))
            (h.out_dir / f"trace-{args.workload}-{args.seed}.json").write_text(
                json.dumps(spans))
    finally:
        shutil.rmtree(h.tmp, ignore_errors=True)

    (h.out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))
    table = result["per_layer"] if args.trace else e2e
    missing = [name for name, (value, _) in table.items() if value is None]
    for line in h.failures[:5] + h.problems[:5]:
        print(line, file=sys.stderr)
    correct = not h.problems and not missing
    if missing:
        print(f"no samples for {missing}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": h.attempted, "failed": h.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in table.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
