"""Command-line front end.

    rfsq steady|report|scan|figure|optimize|pure|crossover|verify [flags]

Angle-valued flags accept radians or multiples of pi ('0.5pi', 'pi').
Exit codes: 0 success, 1 validation error, 2 numerical error, 3
verification failure. Errors print a single line 'error: <kind>:
<detail>' on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from ._version import __version__
from .errors import NumericalError, RfsqError, ValidationError
from .figures import emit_figure
from .io import dump_csv, dump_json, parse_angle, write_csv, write_json
from .metrics import full_report
from .optimize import find_crossover, minimize_variance
from .params import AtomFieldParams
from .pure import (
    condition_phi0,
    condition_phi_half_pi,
    condition_phi_pi,
    find_pure_curve,
    is_pure_point,
    maximal_family,
)
from .bloch import steady_state
from .scan import AxisSpec, ScanSpec, scan
from .verify import run_verify


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags as validation errors (exit 1)."""

    def error(self, message):
        raise ValidationError(message)


def _flag_type(convert):
    """A ``type=`` converter whose ValueError message argparse prints
    (it replaces that of a plain ValueError with the function's name)."""
    def converted(text):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return converted


def _param_parent() -> argparse.ArgumentParser:
    parent = _Parser(add_help=False)
    group = parent.add_argument_group("physical parameters")
    group.add_argument("--gamma", type=float, default=1.0,
                       help="spontaneous decay rate (frequency unit, default 1)")
    group.add_argument("--n", dest="n_sq", type=float, default=0.0,
                       help="squeezed photon number N")
    group.add_argument("--eta", type=float, default=1.0,
                       help="squeezing ideality in [0, 1] (default 1)")
    group.add_argument("--phi", type=_flag_type(parse_angle), default=0.0,
                       help="relative phase (radians or e.g. '0.5pi')")
    group.add_argument("--omega", type=float, default=0.0,
                       help="Rabi frequency in units of gamma")
    group.add_argument("--delta", type=float, default=0.0,
                       help="detuning in units of gamma")
    out = parent.add_argument_group("output")
    out.add_argument("--out", type=Path, default=None,
                     help="output path (default: stdout)")
    out.add_argument("--format", dest="fmt", choices=("csv", "json"),
                     default="json", help="output format for scalar reports")
    out.add_argument("--seed", type=int, default=42,
                     help="seed for randomized verification sweeps")
    return parent


@_flag_type
def _parse_axis(text: str) -> AxisSpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValidationError(
            f"axis must look like name:start:stop:count, got {text!r}"
        )
    name = parts[0]
    scalar = parse_angle if name in ("phi", "theta") else float
    return AxisSpec(name, scalar(parts[1]), scalar(parts[2]), int(parts[3]))


@_flag_type
def _parse_box(text: str):
    sides = {}
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ValidationError(
                f"box side must look like name:lo:hi, got {chunk!r}"
            )
        sides[parts[0]] = (float(parts[1]), float(parts[2]))
    if set(sides) != {"omega", "delta"}:
        raise ValidationError(
            f"box must give omega and delta ranges, got {sorted(sides)}"
        )
    return sides["omega"], sides["delta"]


def build_parser() -> _Parser:
    parser = _Parser(prog="rfsq", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"rfsq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parent = _param_parent()

    sub.add_parser("steady", parents=[parent],
                   help="steady Bloch vector at one parameter point")
    sub.add_parser("report", parents=[parent],
                   help="full squeezing report at one parameter point")

    p_scan = sub.add_parser("scan", parents=[parent],
                            help="grid scan of one metric")
    p_scan.add_argument("--metric", required=True,
                        help="s_theta|s_x|s_y|s_pi4|s_opt|sigma|sz")
    p_scan.add_argument("--axis1", required=True, type=_parse_axis,
                        metavar="name:start:stop:count")
    p_scan.add_argument("--axis2", type=_parse_axis, default=None,
                        metavar="name:start:stop:count")
    p_scan.add_argument("--theta", type=_flag_type(parse_angle), default=0.0,
                        help="quadrature phase for the s_theta metric")

    p_fig = sub.add_parser("figure", parents=[parent],
                           help="emit a bundled figure dataset")
    p_fig.add_argument("number", type=int, choices=range(2, 8),
                       metavar="2..7")
    p_fig.add_argument("--script", action="store_true",
                       help="also write a gnuplot script next to the CSV")

    p_opt = sub.add_parser("optimize", parents=[parent],
                           help="minimise the optimal-quadrature variance over a box")
    p_opt.add_argument("--box", required=True, type=_parse_box,
                       metavar="omega:lo:hi,delta:lo:hi")

    p_pure = sub.add_parser("pure", parents=[parent],
                            help="pure-state drive conditions")
    p_pure.add_argument("--solve-omega", action="store_true",
                        help="maximise purity over the drive strength numerically")

    sub.add_parser("crossover", parents=[parent],
                   help="photon number where output stops beating input")

    p_verify = sub.add_parser("verify", parents=[parent],
                              help="run the self-verification suite")
    p_verify.add_argument("--fast", action="store_true",
                          help="smaller sweeps, same checks")
    return parser


def _emit(args, payload: dict) -> None:
    if args.fmt == "csv":
        columns = {k: [float(v)] for k, v in payload.items()
                   if isinstance(v, (int, float))}
        if args.out is None:
            dump_csv(sys.stdout, columns)
        else:
            write_csv(args.out, columns)
    else:
        if args.out is None:
            print(dump_json(payload))
        else:
            write_json(args.out, payload)


def _cmd_steady(args, params: AtomFieldParams) -> int:
    state = steady_state(params)
    _emit(args, {
        "sx": state.sx, "sy": state.sy, "sz": state.sz,
        "sigma": state.sigma, "inputs": params.inputs(),
    })
    return 0


def _cmd_report(args, params: AtomFieldParams) -> int:
    payload = full_report(params).as_dict()
    payload["inputs"] = params.inputs()
    _emit(args, payload)
    return 0


def _cmd_scan(args, params: AtomFieldParams) -> int:
    result = scan(ScanSpec(axis1=args.axis1, axis2=args.axis2, fixed=params,
                           metric=args.metric, theta=args.theta))
    if args.out is None:
        dump_csv(sys.stdout, result.columns())
    else:
        write_csv(args.out, result.columns())
        write_json(args.out.with_suffix(args.out.suffix + ".meta.json"),
                   {**result.metadata(), "theta": args.theta})
    if result.errors:
        raise NumericalError(
            f"{len(result.errors)} of {result.values.size} scan nodes failed "
            f"to evaluate (first at {list(result.errors[0][0])})"
        )
    return 0


def _cmd_figure(args, params: AtomFieldParams) -> int:
    out = args.out or Path(f"fig{args.number}.csv")
    for kind, path in emit_figure(args.number, out, script=args.script).items():
        print(f"{kind}: {path}")
    return 0


def _cmd_optimize(args, params: AtomFieldParams) -> int:
    report = minimize_variance(params.n_sq, params.phi, args.box, eta=params.eta)
    payload = report.as_dict()
    payload["inputs"] = params.inputs()
    _emit(args, payload)
    if not report.converged:
        print("error: NoConvergence: optimizer hit its iteration cap",
              file=sys.stderr)
        return 2
    return 0


def _cmd_pure(args, params: AtomFieldParams) -> int:
    if args.solve_omega:
        omega, sigma = find_pure_curve(params.phi, params.n_sq, params.delta,
                                       eta=params.eta)
        _emit(args, {
            "omega": omega, "sigma": sigma, "pure": is_pure_point(sigma),
            "inputs": params.inputs(),
        })
        return 0
    if abs(params.phi) < 1e-12:
        sol = condition_phi0(params.n_sq, eta=params.eta)
    elif abs(params.phi - math.pi / 2.0) < 1e-12:
        sol = condition_phi_half_pi(params.n_sq, eta=params.eta)
    elif abs(params.phi - math.pi) < 1e-12:
        sol = condition_phi_pi(params.n_sq, params.delta, eta=params.eta)
    elif params.n_sq == 0.125:
        sol = maximal_family(params.phi, eta=params.eta)
    else:
        raise ValidationError(
            "no closed-form condition for this phi and N; "
            "use --solve-omega to search numerically"
        )
    _emit(args, sol.as_dict())
    return 0


def _cmd_crossover(args, params: AtomFieldParams) -> int:
    _emit(args, {"n_star": find_crossover(eta=params.eta)})
    return 0


def _cmd_verify(args, params: AtomFieldParams) -> int:
    return 0 if run_verify(seed=args.seed, fast=args.fast) else 3


_COMMANDS = {
    "steady": _cmd_steady,
    "report": _cmd_report,
    "scan": _cmd_scan,
    "figure": _cmd_figure,
    "optimize": _cmd_optimize,
    "pure": _cmd_pure,
    "crossover": _cmd_crossover,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        params = AtomFieldParams(
            gamma=args.gamma, n_sq=args.n_sq, eta=args.eta,
            phi=args.phi, omega=args.omega, delta=args.delta,
        )
        return _COMMANDS[args.command](args, params)
    except ValidationError as exc:
        print(f"error: Validation: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        kind = type(exc).__name__.removesuffix("Error")
        print(f"error: {kind}: {exc}", file=sys.stderr)
        return 2
    except RfsqError as exc:  # pragma: no cover - defensive
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
