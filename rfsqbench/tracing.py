"""Spans around calls into rfsq's public functions, kept in memory.

``install`` replaces each traced function in every loaded ``rfsq`` module
that refers to it (``from .bloch import steady_state`` makes a second
reference), so spans nest as the calls do. A span is
(name, start_ns, end_ns, parent_index, count), where count is the work
the call did (nodes or bytes) when that is meaningful, else 0.
``layer_metrics`` turns the spans of a whole run into the per-layer table.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time

#: verify check names, in the order `rfsq verify` prints them
VERIFY_CHECKS = (
    "maximal-family-floor", "quarter-phase-point", "detuned-inphase-minimum",
    "moderate-n-inphase-minimum", "input-benchmark-degree",
    "amplification-crossover", "pure-variance-law", "relaxation-oracle",
    "phase-optimality", "photon-number-certification", "rates-and-bounds",
    "stability-certificate", "scan-determinism", "csv-roundtrip",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.enabled = True

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = [name, t0, t1, parent, 0]
            if count is not None:
                self.spans[index][4] = count(result, args)
            return result

        return traced


def _nodes(result, _args):
    return int(result[0].size)


def _file_bytes(_result, args):
    return os.path.getsize(args[0])


#: (module, function, count) for every traced entry point; the span is
#: named module.function
TARGETS = (
    ("bloch", "steady_state", None),
    ("bloch", "relax_to_steady", None),
    ("bloch", "steady_state_grid", _nodes),
    ("backends", "steady_grid", _nodes),
    ("metrics", "full_report", None),
    ("scan", "scan", None),
    ("optimize", "minimize_variance", None),
    ("optimize", "certify_n_eighth", None),
    ("optimize", "find_crossover", None),
    ("pure", "find_pure_curve", None),
    ("figures", "build_figure", None),
    ("io", "write_csv", _file_bytes),
    ("io", "read_csv", _file_bytes),
    ("io", "write_json", _file_bytes),
)


def install(tracer: Tracer):
    """Import rfsq with every traced entry point wrapped; returns rfsq.cli."""
    import rfsq.cli
    import rfsq.verify

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "rfsq" or name.startswith("rfsq."))]
    for module_name, attr, count in TARGETS:
        name = f"{module_name}.{attr}"
        original = getattr(sys.modules[f"rfsq.{module_name}"], attr)
        traced = tracer.wrap(name, original, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)

    params_cls = sys.modules["rfsq.params"].AtomFieldParams
    params_cls.__post_init__ = tracer.wrap("params.validate",
                                           params_cls.__post_init__)
    rfsq.verify.CHECKS = tuple(
        (name, tracer.wrap(f"verify.{name}", fn)) for name, fn in rfsq.verify.CHECKS
    )

    build_parser = rfsq.cli.build_parser

    def traced_build_parser():
        parser = build_parser()
        parser.parse_args = tracer.wrap("cli.parse_args", parser.parse_args)
        return parser

    rfsq.cli.build_parser = tracer.wrap("cli.build_parser", traced_build_parser)
    return rfsq.cli


def parse_importtime(stderr: str) -> float:
    """Seconds spent importing scipy, from ``python -X importtime`` output.

    Sums the cumulative time of each scipy module not nested in another
    scipy module. Lines are printed children first, so they are read in
    reverse to see each parent before its children.
    """
    total_us = 0
    stack = []  # (depth, inside_scipy)
    for line in reversed(stderr.splitlines()):
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, label = line[len("import time:"):].split("|")
        depth = (len(label) - len(label.lstrip())) // 2
        name = label.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total_us += int(cumulative)
        stack.append((depth, inside or is_scipy))
    return total_us / 1e6


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(spans, imports):
    """Per-layer metric table from every span of a run.

    ``spans`` is a list of span lists, one per process; ``imports`` holds
    the fresh-interpreter import measurements. A layer the workload never
    called reads 0.
    """
    by_name = {}
    for process in spans:
        for span in process:
            by_name.setdefault(span[0], []).append(span)

    def durations(name):
        return [(s[2] - s[1]) / 1e9 for s in by_name.get(name, [])]

    def rate(name, unit_scale):
        items = by_name.get(name, [])
        busy = sum(s[2] - s[1] for s in items) / 1e9
        return sum(s[4] for s in items) / busy / unit_scale if busy else 0.0

    parse_per_process = []
    for process in spans:
        total = sum(s[2] - s[1] for s in process
                    if s[0] in ("cli.build_parser", "cli.parse_args")
                    and s[3] == -1)
        if total:
            parse_per_process.append(total / 1e6)

    # time and nodes of the kernel calls made directly by each scan() call
    kernel_s = overhead_s = 0.0
    nodes = 0
    for process in spans:
        scans = {i: 0 for i, s in enumerate(process) if s[0] == "scan.scan"}
        for s in process:
            if s[0] == "bloch.steady_state_grid" and s[3] in scans:
                scans[s[3]] += s[2] - s[1]
                nodes += s[4]
        for index, inside in scans.items():
            kernel_s += inside / 1e9
            overhead_s += (process[index][2] - process[index][1] - inside) / 1e9

    written = sum(s[4] for name in ("io.write_csv", "io.write_json")
                  for s in by_name.get(name, []))
    table = {
        "import.rfsq_s": (imports["rfsq_s"], "s"),
        "import.scipy_s": (imports["scipy_s"], "s"),
        "import.modules": (imports["modules"], "count"),
        "cli.parse_ms": (_median(parse_per_process), "ms"),
        "params.validate_us": (_median(durations("params.validate"), 1e6), "us"),
        "bloch.steady_state_us": (_median(durations("bloch.steady_state"), 1e6), "us"),
        "bloch.relax_to_steady_us": (
            _median(durations("bloch.relax_to_steady"), 1e6), "us"),
        "bloch.steady_state_grid_mnodes_per_s": (
            rate("bloch.steady_state_grid", 1e6), "Mnodes/s"),
        "backends.steady_grid_mnodes_per_s": (
            rate("backends.steady_grid", 1e6), "Mnodes/s"),
        "metrics.full_report_us": (_median(durations("metrics.full_report"), 1e6), "us"),
        "scan.kernel_s": (kernel_s, "s"),
        "scan.overhead_s": (overhead_s, "s"),
        "scan.nodes": (nodes, "count"),
        "optimize.minimize_variance_ms": (
            _median(durations("optimize.minimize_variance"), 1e3), "ms"),
        "optimize.certify_n_eighth_s": (
            _median(durations("optimize.certify_n_eighth")), "s"),
        "optimize.find_crossover_ms": (
            _median(durations("optimize.find_crossover"), 1e3), "ms"),
        "pure.find_pure_curve_ms": (_median(durations("pure.find_pure_curve"), 1e3), "ms"),
        "figures.build_figure_s": (_median(durations("figures.build_figure")), "s"),
        "io.write_csv_mb_per_s": (rate("io.write_csv", 1e6), "MB/s"),
        "io.read_csv_mb_per_s": (rate("io.read_csv", 1e6), "MB/s"),
        "io.write_json_ms": (_median(durations("io.write_json"), 1e3), "ms"),
        "io.bytes_written": (written, "count"),
    }
    for check in VERIFY_CHECKS:
        table[f"verify.{check}_s"] = (_median(durations(f"verify.{check}")), "s")
    return table
