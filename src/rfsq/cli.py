"""Command-line front end.

    rfsq steady|report|scan|figure|optimize|pure|crossover|verify [flags]

Angle-valued flags accept radians or multiples of pi ('0.5pi', 'pi').
Each command takes only the flags it reads, and rejects any other as a
validation error: the physical flags go to steady, report and scan, and
of them optimize reads --n, --eta and --phi, pure also --delta, and
crossover --eta alone; --format goes to the commands that print a
scalar report (not scan or figure), --seed to verify alone.
Exit codes: 0 success, 1 validation error, 2 numerical error, 3
verification failure, 141 stdout closed by its reader (as after a
SIGPIPE). An output path that cannot be written (an --out under a file,
or naming a directory) exits 1 with the operating system's reason as
its kind, such as 'error: IsADirectory: ...'. Errors print a single
line 'error: <kind>: <detail>' on stderr, and warnings one line each,
'warning: <kind>: <detail>'.

Each command imports what it runs when it runs: report, steady, pure,
optimize, crossover, --help, --version and every validation error never
load numpy, while scan, figure, verify and --format csv do.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

from ._version import __version__
from .errors import NumericalError, RfsqError, ValidationError
from .io import dump_csv, dump_json, parse_angle, write_csv, write_json
from .params import AtomFieldParams


def _is_negative_number(token: str) -> bool:
    """A minus sign followed by a float or an angle ('-1e3', '-inf', '-pi')."""
    body = token[1:]
    if not token.startswith("-") or not body or body[0] in "+-" or body[0].isspace():
        return False
    for convert in (float, parse_angle):
        try:
            convert(body)
        except ValueError:
            continue
        return True
    return False


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags as validation errors (exit 1).

    A flag's value may be any negative number that float or parse_angle
    accepts: argparse's own pattern knows neither exponents nor 'pi', and
    would take '--delta -1e3' or '--phi -pi' for a missing value.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = argparse.Namespace(match=_is_negative_number)

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


@_flag_type
def _parse_seed(text: str) -> int:
    """A seed for numpy's default_rng, which takes integers >= 0 only."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValidationError(f"expected a non-negative integer, got {text!r}")
    return seed


#: the physical flags by destination: (flag, converter, default, help)
_PARAM_FLAGS = {
    "n_sq": ("--n", float, 0.0, "squeezed photon number N"),
    "eta": ("--eta", float, 1.0, "squeezing ideality in [0, 1] (default 1)"),
    "phi": ("--phi", _flag_type(parse_angle), 0.0,
            "relative phase (radians or e.g. '0.5pi')"),
    "omega": ("--omega", float, 0.0, "Rabi frequency over the decay rate gamma"),
    "delta": ("--delta", float, 0.0, "detuning over the decay rate gamma"),
}


def _add_params(parser, *names) -> None:
    """The physical flags a command reads; the others stay at their defaults."""
    group = parser.add_argument_group("physical parameters")
    for name in names:
        flag, convert, default, text = _PARAM_FLAGS[name]
        group.add_argument(flag, dest=name, type=convert, default=default,
                           help=text)


def _add_output(parser, fmt: bool = True,
                out_help: str = "output path (default: stdout)") -> None:
    """--out, and --format for the commands that print a scalar report."""
    group = parser.add_argument_group("output")
    group.add_argument("--out", type=Path, default=None, help=out_help)
    if fmt:
        group.add_argument("--format", dest="fmt", choices=("csv", "json"),
                           default="json", help="output format for scalar reports")


@_flag_type
def _parse_axis(text: str):
    from .scan import AxisSpec

    parts = text.split(":")
    if len(parts) != 4:
        raise ValidationError(
            f"axis must look like name:start:stop:count, got {text!r}"
        )
    name = parts[0]
    scalar = parse_angle if name in ("phi", "theta") else float
    try:
        count = int(parts[3])
    except ValueError:
        raise ValidationError(
            f"axis {name} count must be an integer, got {parts[3]!r}") from None
    return AxisSpec(name, scalar(parts[1]), scalar(parts[2]), count)


@_flag_type
def _parse_box(text: str):
    from .optimize import check_box_side

    sides = {}
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ValidationError(
                f"box side must look like name:lo:hi, got {chunk!r}"
            )
        name, bounds = parts[0], (float(parts[1]), float(parts[2]))
        if name in sides:
            raise ValidationError(f"box side {name} is given twice")
        check_box_side(name, *bounds, spelled=chunk)
        sides[name] = bounds
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

    for name, text in (("steady", "steady Bloch vector at one parameter point"),
                       ("report", "full squeezing report at one parameter point")):
        p_point = sub.add_parser(name, help=text)
        _add_params(p_point, *_PARAM_FLAGS)
        _add_output(p_point)

    p_scan = sub.add_parser("scan", help="grid scan of one metric")
    _add_params(p_scan, *_PARAM_FLAGS)
    _add_output(p_scan, fmt=False)
    p_scan.add_argument("--metric", required=True,
                        help="s_theta|s_x|s_y|s_pi4|s_opt|sigma|sz")
    p_scan.add_argument("--axis1", required=True, type=_parse_axis,
                        metavar="name:start:stop:count")
    p_scan.add_argument("--axis2", type=_parse_axis, default=None,
                        metavar="name:start:stop:count")
    p_scan.add_argument("--theta", type=_flag_type(parse_angle), default=0.0,
                        help="quadrature phase for the s_theta metric")

    p_fig = sub.add_parser("figure", help="emit a bundled figure dataset")
    _add_output(p_fig, fmt=False,
                out_help="output CSV path, its sidecar next to it (default: "
                "figN.csv in the working directory)")
    p_fig.add_argument("number", type=int, choices=range(2, 8),
                       metavar="2..7")
    p_fig.add_argument("--script", action="store_true",
                       help="also write a gnuplot script next to the CSV")

    p_opt = sub.add_parser("optimize",
                           help="minimise the optimal-quadrature variance over a box")
    _add_params(p_opt, "n_sq", "eta", "phi")
    _add_output(p_opt)
    p_opt.add_argument("--box", required=True, type=_parse_box,
                       metavar="omega:lo:hi,delta:lo:hi")

    p_pure = sub.add_parser("pure", help="pure-state drive conditions")
    _add_params(p_pure, "n_sq", "eta", "phi", "delta")
    _add_output(p_pure)
    p_pure.add_argument("--solve-omega", action="store_true",
                        help="the drive strength of maximal purity at --delta "
                        "(closed form, any eta)")

    p_cross = sub.add_parser("crossover",
                             help="photon number where the pure-state output stops "
                             "beating the input")
    _add_params(p_cross, "eta")
    _add_output(p_cross)

    p_verify = sub.add_parser("verify", help="run the self-verification suite")
    p_verify.add_argument("--seed", type=_parse_seed, default=42,
                          help="seed for randomized verification sweeps")
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
    from .bloch import steady_state

    state = steady_state(params)
    _emit(args, {
        "sx": state.sx, "sy": state.sy, "sz": state.sz,
        "sigma": state.sigma, "inputs": params.inputs(),
    })
    return 0


def _cmd_report(args, params: AtomFieldParams) -> int:
    from .metrics import full_report

    payload = full_report(params).as_dict()
    payload["inputs"] = params.inputs()
    _emit(args, payload)
    return 0


def _cmd_scan(args, params: AtomFieldParams) -> int:
    from .scan import ScanSpec, scan

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
            f"{result.failed_nodes()} of {result.values.size} scan nodes failed "
            f"to evaluate (first at {list(result.errors[0][0])})"
        )
    return 0


def _cmd_figure(args, params: AtomFieldParams) -> int:
    from .figures import emit_figure

    out = args.out or Path(f"fig{args.number}.csv")
    for kind, path in emit_figure(args.number, out, script=args.script).items():
        print(f"{kind}: {path}")
    return 0


def _cmd_optimize(args, params: AtomFieldParams) -> int:
    from .optimize import minimize_variance

    report = minimize_variance(params.n_sq, params.phi, args.box, eta=params.eta)
    _emit(args, {**report.as_dict(), "inputs": params.inputs()})
    return 0


def _cmd_pure(args, params: AtomFieldParams) -> int:
    from .pure import (
        condition_phi_pi,
        find_pure_curve,
        is_opposed_phase,
        is_pure_point,
        pure_state,
    )

    if args.solve_omega:
        omega, sigma = find_pure_curve(params.phi, params.n_sq, params.delta,
                                       eta=params.eta)
        _emit(args, {
            "omega": omega, "sigma": sigma, "pure": is_pure_point(sigma),
            "inputs": params.inputs(),
        })
        return 0
    if is_opposed_phase(params.phi):
        sol = condition_phi_pi(params.n_sq, params.delta, eta=params.eta,
                               phi=params.phi)
    else:
        sol = pure_state(params.n_sq, params.phi, eta=params.eta)
    _emit(args, sol.as_dict())
    return 0


def _cmd_crossover(args, params: AtomFieldParams) -> int:
    from .optimize import find_crossover

    _emit(args, {"n_star": find_crossover(eta=params.eta)})
    return 0


def _cmd_verify(args, params: AtomFieldParams) -> int:
    from .verify import run_verify

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


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """Print a warning as one line, 'warning: <kind>: <detail>', on stderr."""
    kind = category.__name__.removesuffix("Warning")
    print(f"warning: {kind}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        params = AtomFieldParams(**{name: value for name, value in vars(args).items()
                                    if name in _PARAM_FLAGS})
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            code = _COMMANDS[args.command](args, params)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`rfsq scan ... | head`): point
        # stdout at devnull so that the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:
        # an output path that cannot be created or written
        kind = type(exc).__name__.removesuffix("Error")
        print(f"error: {kind}: {exc}", file=sys.stderr)
        return 1
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
