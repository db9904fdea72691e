"""Command line front end: signal generation, transforms, verification.

Exit codes are a stable contract: 0 success, 1 a verification check
failed, 2 input/config error or out of memory, 3 shape mismatch.  A bad
output path or extension exits 2 before any input is loaded or any work
is done.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import FormatError, ParameterError, ShapeError
from .fileio import _check_output, load_signal, save_field, save_signal
from .grid import (Axis, _check_memory, chirp_signal, gaussian_signal, impulse_signal,
                   pointwise_mul)
from .qft import _MODES, QftPlan, qft_forward
from .qolct import OlctParams, QolctPlan, qolct_forward
from .quaternion import quat
from .stqolct import _ROUTES, StqolctPlan, stqolct_forward
from .verify import (RunConfig, format_report_table, gated_failures, load_report,
                     run_verification, write_report)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qtfa",
        description="Quaternion time-frequency analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a test signal file")
    gen.add_argument("--kind", required=True,
                     choices=["gaussian", "chirp", "impulse", "product"])
    gen.add_argument("--n", type=int, default=64, help="samples per axis")
    gen.add_argument("--n2", type=int, default=None, help="samples on axis 2")
    gen.add_argument("--extent", type=float, default=8.0, help="half-width per axis")
    gen.add_argument("--extent2", type=float, default=None)
    gen.add_argument("--alpha", type=float, default=1.0, help="gaussian width")
    gen.add_argument("--amplitude", default=None,
                     help="gaussian amplitude quaternion 'q0,q1,q2,q3'")
    gen.add_argument("--rate1", type=float, default=0.0)
    gen.add_argument("--rate2", type=float, default=0.0)
    gen.add_argument("--freq1", type=float, default=0.0)
    gen.add_argument("--freq2", type=float, default=0.0)
    gen.add_argument("--at", default=None, help="impulse cell 'k1,k2'")
    gen.add_argument("--a", default=None, help="left factor file for --kind product")
    gen.add_argument("--b", default=None, help="right factor file for --kind product")
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=_cmd_gen)

    tr = sub.add_parser("transform", help="apply a transform to a signal file")
    tr.add_argument("transform", choices=["qft", "qolct", "stqolct"])
    tr.add_argument("-i", "--input", required=True)
    tr.add_argument("-o", "--output", required=True)
    tr.add_argument("--A1", default=None, help="axis-1 parameters 'a,b,c,d,p,q'")
    tr.add_argument("--A2", default=None, help="axis-2 parameters 'a,b,c,d,p,q'")
    tr.add_argument("--mode", default=None, choices=_MODES,
                    help="qft and qolct (default fast)")
    tr.add_argument("--route", default=None, choices=_ROUTES,
                    help="stqolct (default via_qolct)")
    tr.add_argument("--window", default=None, help="window signal file (stqolct)")
    tr.add_argument("--u-stride", type=int, default=None, dest="u_stride",
                    help="stqolct translation stride (default 1)")
    tr.set_defaults(func=_cmd_transform)

    ver = sub.add_parser("verify", help="run the verification corpus")
    ver.add_argument("--config", default=None, help="JSON config file")
    ver.add_argument("--out", default="report.jsonl", help="report output path")
    ver.add_argument("--only", default=None,
                     help="comma-separated check names to run")
    ver.add_argument("--n", type=int, default=None)
    ver.add_argument("--seed", type=int, default=None)
    ver.set_defaults(func=_cmd_verify)

    rep = sub.add_parser("report", help="pretty-print a .jsonl report")
    rep.add_argument("report", help="report file to display")
    rep.set_defaults(func=_cmd_report)
    return parser


def _parse_quat(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise ParameterError(f"expected 'q0,q1,q2,q3', got {text!r}")
    try:
        return quat(*(float(v) for v in parts))
    except ValueError:
        raise ParameterError(f"unparsable quaternion {text!r}") from None


def _gen_axes(args):
    ax1 = Axis.centered(args.n, args.extent)
    ax2 = Axis.centered(args.n if args.n2 is None else args.n2,
                        args.extent if args.extent2 is None else args.extent2)
    return ax1, ax2


def _cmd_gen(args):
    _check_output(args.output, "signal")
    if args.kind == "product":
        if not args.a or not args.b:
            raise ParameterError("--kind product needs --a and --b input files")
        f = pointwise_mul(load_signal(args.a), load_signal(args.b))
    else:
        ax1, ax2 = _gen_axes(args)
        # four float64 components per sample
        _check_memory(32 * ax1.n * ax2.n, f"a {args.kind} signal of shape ({ax1.n}, {ax2.n}, 4)")
        if args.kind == "gaussian":
            amplitude = _parse_quat(args.amplitude) if args.amplitude else None
            f = gaussian_signal(ax1, ax2, args.alpha, amplitude)
        elif args.kind == "chirp":
            f = chirp_signal(ax1, ax2, args.rate1, args.rate2, args.freq1, args.freq2)
        else:
            if not args.at:
                raise ParameterError("--kind impulse needs --at k1,k2")
            try:
                k1, k2 = (int(v) for v in args.at.split(","))
            except ValueError:
                raise ParameterError(f"unparsable impulse cell {args.at!r}") from None
            f = impulse_signal(ax1, ax2, k1, k2)
    save_signal(f, args.output)
    return 0


#: the optional flags each transform reads, by their argparse names
_TRANSFORM_FLAGS = {
    "qft": {"mode"},
    "qolct": {"A1", "A2", "mode"},
    "stqolct": {"A1", "A2", "route", "window", "u_stride"},
}


def _cmd_transform(args):
    # a flag the chosen transform does not read is an error, not a no-op
    flags = set().union(*_TRANSFORM_FLAGS.values()) - _TRANSFORM_FLAGS[args.transform]
    unread = sorted("--" + flag.replace("_", "-") for flag in flags
                    if getattr(args, flag) is not None)
    if unread:
        raise ParameterError(f"transform {args.transform} does not read {', '.join(unread)}")
    _check_output(args.output, "field" if args.transform == "stqolct" else "signal")
    mode = args.mode or "fast"
    f = load_signal(args.input)
    if args.transform != "stqolct":
        # a fast transform holds the two channel arrays and its output:
        # measured at 1.88 to 1.89 times the input's bytes (n = 1024, 2048)
        _check_memory(2 * f.data.nbytes, f"transform {args.transform} of {args.input}")
    if args.transform == "qft":
        out = qft_forward(f, QftPlan.for_axes(f.ax1, f.ax2), mode=mode)
        save_signal(out, args.output)
        return 0
    if args.A1 is None or args.A2 is None:
        raise ParameterError(f"transform {args.transform} needs --A1 and --A2")
    params1 = OlctParams.from_text(args.A1)
    params2 = OlctParams.from_text(args.A2)
    if args.transform == "qolct":
        plan = QolctPlan.for_axes(params1, params2, f.ax1, f.ax2)
        out = qolct_forward(f, plan, mode=mode)
        save_signal(out, args.output)
        return 0
    if not args.window:
        raise ParameterError("transform stqolct needs --window")
    window = load_signal(args.window)
    plan = StqolctPlan.create(params1, params2, f.ax1, f.ax2, window,
                              stride=1 if args.u_stride is None else args.u_stride)
    field = stqolct_forward(f, plan, route=args.route or "via_qolct")
    save_field(field, args.output)
    return 0


def _cmd_verify(args):
    _check_output(args.out)
    raw = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ParameterError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ParameterError("config must be a JSON object")
        raw.update(loaded)
    for key in ("n", "seed"):
        value = getattr(args, key)
        if value is not None:
            raw[key] = value
    config = RunConfig.from_dict(raw)
    only = (None if args.only is None
            else [s.strip() for s in args.only.split(",") if s.strip()])
    results = run_verification(config, only=only)
    write_report(results, args.out)
    failures = gated_failures(results)
    for res in results:
        state = "pass" if res.passed else "FAIL"
        print(f"[{state}] {res.name} lhs={res.lhs:.6g} rhs={res.rhs:.6g} "
              f"margin={res.margin:.3g}")
    print(f"{len(results)} checks, {len(failures)} gated failures -> report {args.out}")
    return 1 if failures else 0


def _cmd_report(args):
    print(format_report_table(load_report(args.report)))
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ShapeError as exc:
        print(f"shape error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
