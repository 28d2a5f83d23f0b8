"""Timing, process control and bookkeeping shared by the workloads."""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import tracing

#: a cold command that takes longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 120.0


class Failed(Exception):
    """The program failed an operation (as opposed to answering wrongly)."""


class Harness:
    """One benchmark run: samples, counters, correctness problems and spans."""

    def __init__(self, root: Path, seed: int, trace: bool, out_dir: Path):
        self.root = root
        self.bench = Path(__file__).resolve().parent
        self.seed = seed
        self.out_dir = out_dir
        self.tmp = out_dir / f"tmp-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        TMPDIR=str(self.tmp), PYTHONHASHSEED="0")
        self.samples = defaultdict(list)
        #: draws the grid nodes that a checker compares with the reference
        self.rng = np.random.default_rng((seed, 1 << 31))
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.problems = []
        self.child_spans = []
        self.tracer = tracing.Tracer() if trace else None
        self._spans_file = self.tmp / "child-spans.json"

    # -- running the program ------------------------------------------------

    def cli(self, argv):
        """Run one cold `rfsq` process; returns (seconds, stdout, stderr, code).

        Untraced runs start ``python -m rfsq.cli``; traced runs start the
        bootstrap in child.py, which records spans and then calls the same
        ``rfsq.cli.main``.
        """
        if self.tracer is None:
            cmd = [sys.executable, "-m", "rfsq.cli", *argv]
        else:
            cmd = [sys.executable, str(self.bench / "child.py"),
                   str(self._spans_file), *argv]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.tmp, env=self.env,
                                  capture_output=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise Failed(f"rfsq {argv[0]} timed out after {exc.timeout} s") from exc
        seconds = time.perf_counter() - t0
        if self.tracer is not None and self._spans_file.exists():
            self.child_spans.append(json.loads(self._spans_file.read_text()))
            self._spans_file.unlink()
        return (seconds, proc.stdout.decode("utf-8", "replace"),
                proc.stderr.decode("utf-8", "replace"), proc.returncode)

    def cli_ok(self, argv):
        """Run a cold command that must succeed; returns (seconds, stdout)."""
        seconds, out, err, code = self.cli(argv)
        if code != 0:
            tail = err.strip().splitlines()[-1:] or ["no stderr"]
            raise Failed(f"rfsq {' '.join(argv)} exited {code}: {tail[0]}")
        return seconds, out

    def timed(self, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        return time.perf_counter() - t0, result

    # -- bookkeeping ----------------------------------------------------------

    def expect(self, label, problems):
        """Record wrong answers; an operation with problems is not correct."""
        for problem in problems[:3]:
            self.problems.append(f"{label}: {problem}")

    def run_op(self, label, fn):
        """Run ``fn(self)`` as one attempted operation."""
        self.attempted += 1
        try:
            fn(self)
        except Failed as exc:
            self.failed += 1
            self.failures.append(f"{label}: {exc}")
        except Exception as exc:  # noqa: BLE001 - output a checker cannot read is wrong
            self.problems.append(f"{label}: unreadable output: {exc!r}")

    def mean(self, name):
        values = self.samples.get(name)
        return statistics.fmean(values) if values else None

    def rate(self, work, seconds, unit):
        """Total work over total time of two sample lists, in units, or None."""
        total = sum(self.samples.get(seconds, ()))
        return sum(self.samples[work]) / total / unit if total else None

    def peak_rss_mib(self):
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return max(own, kids) / 1024.0

    def all_spans(self):
        own = [self.tracer.spans] if self.tracer is not None else []
        return own + self.child_spans


def run_steps(h: Harness, cycle, first, seconds: float, min_steps: int):
    """Run the steps of cycles 0, 1, 2, ... until the time is used.

    ``cycle(k)`` returns the steps of cycle k, each a list of (label, fn)
    operations that run together; ``first`` is cycle 0, made in set-up.
    The first ``min_steps`` steps always run, so every metric has samples.
    After them a step starts only when the time left is predicted to cover
    it: by the last duration of a step with the same labels, else by the
    mean duration of the steps so far. Returns the number of steps run.
    """
    start = time.perf_counter()
    last = {}
    done = 0
    k = 0
    steps = first
    while True:
        for step in steps:
            key = tuple(label for label, _ in step)
            guess = last.get(key, statistics.mean(last.values()) if last else 0.0)
            if done >= min_steps and time.perf_counter() - start + guess > seconds:
                return done
            t0 = time.perf_counter()
            for label, fn in step:
                h.run_op(label, fn)
            last[key] = time.perf_counter() - t0
            done += 1
        k += 1
        steps = cycle(k)
