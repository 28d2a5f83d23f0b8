"""Bundled figure datasets: named presets over the interesting regions.

Each preset evaluates a metric on a fixed grid and is written as a
versioned CSV plus a JSON sidecar recording axes, fixed parameters, the
artifact version and any per-node errors, so a dataset is reproducible
from its metadata alone. An optional gnuplot script renders the CSV.

Presets 2, 3 and 6 are two-axis surfaces stored in long form (axis1
outer); presets 4 and 7 sweep the drive strength for three photon
numbers; preset 5 compares the pure-state output variance with the
squeezed-vacuum input variance over the photon number.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

from .errors import ValidationError
from .io import write_csv, write_json
from .metrics import input_vacuum_variance, pure_state_variance
from .params import AtomFieldParams
from .scan import AxisSpec, ScanSpec, scan, scan_metadata

#: photon numbers of the three-panel presets
PANEL_NS = (0.05, 0.125, 0.5)


def _surface(metric, axis1, axis2, fixed):
    result = scan(ScanSpec(axis1=axis1, axis2=axis2, fixed=fixed, metric=metric))
    return result.columns(), result.metadata()


def _panels(metric, axis, template):
    columns = {axis.name: axis.values}
    errors = []
    for n in PANEL_NS:
        fixed = replace(template, n_sq=n)
        for m in (metric, "sigma"):
            result = scan(ScanSpec(axis1=axis, fixed=fixed, metric=m))
            column = f"{m}_N{n:g}"
            columns[column] = result.values
            errors += [(first, last, f"{column}: {message}")
                       for first, last, message in result.errors]
    meta = scan_metadata(metric, [axis], template, errors)
    meta["panels"] = list(PANEL_NS)
    return columns, meta


def build_figure(n: int):
    """Columns and metadata of preset n (2..7)."""
    if n == 2:
        columns, meta = _surface(
            "s_x",
            AxisSpec("omega", 0.0, 30.0, 301),
            AxisSpec("phi", 0.0, math.pi, 181),
            AtomFieldParams(n_sq=0.1, delta=10.0),
        )
    elif n == 3:
        columns, meta = _surface(
            "s_x",
            AxisSpec("omega", 0.0, 40.0, 301),
            AxisSpec("delta", 0.0, 25.0, 181),
            AtomFieldParams(n_sq=0.125, phi=math.pi),
        )
    elif n == 4:
        columns, meta = _panels("s_x", AxisSpec("omega", 0.0, 40.0, 601),
                                AtomFieldParams(phi=math.pi, delta=12.5))
    elif n == 5:
        axis = AxisSpec("n_sq", 0.001, 1.5, 600)
        ns = axis.values
        columns = {"n_sq": ns, "s_ps": pure_state_variance(ns),
                   "s_sv": input_vacuum_variance(ns)}
        meta = scan_metadata("s_ps,s_sv", [axis], AtomFieldParams(), [])
    elif n == 6:
        columns, meta = _surface(
            "s_pi4",
            AxisSpec("omega", 0.0, 3.0, 301),
            AxisSpec("delta", 0.0, 1.0, 181),
            AtomFieldParams(n_sq=0.125, phi=math.pi / 2.0),
        )
    elif n == 7:
        columns, meta = _panels("s_pi4", AxisSpec("omega", 0.0, 3.0, 601),
                                AtomFieldParams(phi=math.pi / 2.0, delta=0.25))
    else:
        raise ValidationError(f"no figure preset {n}; expected 2..7")
    meta["figure"] = n
    meta["columns"] = list(columns)
    return columns, meta


def _gnuplot_script(csv_path: Path, meta: dict) -> str:
    lines = [
        "set datafile separator ','",
        f"csv = '{csv_path.name}'",
    ]
    axes = meta["axes"]
    if len(axes) == 2:
        lines += [
            f"set xlabel '{axes[0]['name']}'",
            f"set ylabel '{axes[1]['name']}'",
            f"set dgrid3d {axes[1]['count']},{axes[0]['count']}",
            "set hidden3d",
            f"splot csv skip 2 using 1:2:3 with lines title '{meta['metric']}'",
        ]
    else:
        plots = ", ".join(
            f"csv skip 2 using 1:{k} with lines title '{name}'"
            for k, name in enumerate(meta["columns"][1:], start=2)
        )
        lines += [f"set xlabel '{axes[0]['name']}'", f"plot {plots}"]
    lines.append("pause -1")
    return "\n".join(lines) + "\n"


def emit_figure(n: int, out, script: bool = False) -> dict[str, Path]:
    """Write preset n as CSV + metadata JSON (+ optional gnuplot script).

    Returns the paths written, keyed 'csv', 'meta' and optionally
    'script'.
    """
    columns, meta = build_figure(n)
    out = Path(out)
    paths = {"csv": write_csv(out, columns)}
    paths["meta"] = write_json(out.with_suffix(out.suffix + ".meta.json"), meta)
    if script:
        gp = out.with_suffix(".gp")
        gp.write_text(_gnuplot_script(out, meta), encoding="utf-8")
        paths["script"] = gp
    return paths
