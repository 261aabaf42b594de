"""Command-line front end: evaluate, tabulate, verify, find the sine zero,
and integrate, with json/csv/plain output.

Every float-valued argument, ``--poly``'s coefficients, ``--eps`` and
``--xmax`` included, goes through ``_number`` (a finite float or p/q).  A
command writes its output or raises; ``main`` alone reports a failure and picks
the exit code: 0 success, 2 usage or parse failure, 3 domain or numeric error
(an infinite quotient value, an integral that overflows or whose node ratio is
too close to 1, an exact value too long to print, a failing ``verify`` suite),
4 no root found.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction

from .calculus import integral_value
from .errors import LucasError, NoRootFound, UnknownIdentityId
from .functions import FnKind, find_pi_u, fn_value_info
from .identities import run_suite
from .scalars import GaussianRational, exact_triple, lucas_u, lucas_v, make_params
from .series import TruncatedSeries

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NO_ROOT = 4

# the most rows one ``table`` call evaluates; a larger grid exits 2
_MAX_TABLE_ROWS = 100_000
# the parse error of every scalar option, ``seq --exact``'s included
_NOT_A_NUMBER = "{} expects a finite number or p/q, got {!r}"


def _number(option: str, text: str) -> float:
    """Parse the float or p/q rational literal given to ``option`` into a finite float."""
    try:
        value = float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(_NOT_A_NUMBER.format(option, text))
    return value


def _positive(option: str, text: str) -> float:
    """``_number`` for tolerances and bounds, which must also be above zero."""
    value = _number(option, text)
    if value <= 0:
        raise ValueError(f"{option} expects a number above 0, got {text!r}")
    return value


def _jsonable(value):
    if isinstance(value, (Fraction, GaussianRational)):
        try:
            return str(value)
        except ValueError:  # an integer past the interpreter's int-to-str digit limit
            digits = round(max(map(abs, exact_triple(value))).bit_length() * math.log10(2))
            raise LucasError(f"an exact value of about {digits} digits is too long to print") from None
    return value


def _emit(rows: list[dict], fmt: str, out) -> None:
    """Render a list of uniform records as json, csv, or aligned plain text."""
    rows = [{k: _jsonable(v) for k, v in row.items()} for row in rows]
    if fmt == "json":
        json.dump(rows if len(rows) != 1 else rows[0], out, indent=2, default=str)
        out.write("\n")
    elif fmt == "csv":
        if rows:
            writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
    else:
        for row in rows:
            out.write("\t".join(f"{k}={v}" if len(rows) == 1 else str(v) for k, v in row.items()))
            out.write("\n")


def _cmd_seq(args) -> int:
    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    if args.exact:
        exact = []
        for option, text in (("--s", args.s), ("--t", args.t)):
            try:
                exact.append(Fraction(text))
            except (ValueError, ZeroDivisionError):
                raise ValueError(_NOT_A_NUMBER.format(option, text)) from None
        params = make_params(*exact)
    else:
        params = make_params(_number("--s", args.s), _number("--t", args.t))
    term = lucas_v if args.companion else lucas_u
    rows = []
    for k in range(args.n + 1):
        value = term(k, params)
        if not (args.exact or math.isfinite(value)):  # stop before building the rows past it
            raise LucasError(f"term {k} overflows the float range; try --exact")
        rows.append({"k": k, "value": value})
    _emit(rows, args.format, sys.stdout)
    return EXIT_OK


def _cmd_eval(args) -> int:
    params = make_params(_number("--s", args.s), _number("--t", args.t))
    x, u = _number("--x", args.x), _number("--u", args.u)
    info = fn_value_info(FnKind(args.fn), x, u, params, _positive("--eps", args.eps))
    rows = [
        {
            "fn": args.fn,
            "s": params.s,
            "t": params.t,
            "u": u,
            "x": x,
            "value": info.value,
            "termsUsed": info.terms_used,
        }
    ]
    _emit(rows, args.format, sys.stdout)
    return EXIT_OK


def _cmd_table(args) -> int:
    start, stop, step = (_number(f"--{name}", getattr(args, name)) for name in ("from", "to", "step"))
    if step <= 0 or start > stop:
        raise ValueError("table range needs step > 0 and from <= to")
    steps = (stop - start) / step
    if not math.isfinite(steps):
        raise ValueError("table span --to minus --from over --step is not a finite number")
    count = math.floor(steps + 1e-9) + 1  # the slack absorbs rounding when the grid ends on --to
    if count > _MAX_TABLE_ROWS:
        raise ValueError(f"table grid has {count} rows, more than the {_MAX_TABLE_ROWS} allowed")
    params = make_params(_number("--s", args.s), _number("--t", args.t))
    kind, u, eps = FnKind(args.fn), _number("--u", args.u), _positive("--eps", args.eps)
    rows = []
    for x in (start + i * step for i in range(count)):
        try:
            value = fn_value_info(kind, x, u, params, eps).value
            rows.append({"x": x, "value": value, "diverged": False})
        except LucasError:
            rows.append({"x": x, "value": None, "diverged": True})
    _emit(rows, args.format, sys.stdout)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.order < 1:  # the report schema's order floor; run_suite itself accepts 0
        raise ValueError("--order must be at least 1")
    selection = "all" if args.suite == "all" else [token.strip() for token in args.suite.split(",")]
    report = run_suite(selection, trials=args.trials, order=args.order, seed=args.seed)
    if args.format == "json":
        json.dump(report.to_dict(), sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif args.format == "csv":
        rows = [
            dict(id=r.id, group=r.group, status=r.status, trials=r.trials, seed=r.seed,
                 failures=len(r.failures), wall_time_s=f"{r.wall_time_s:.4f}")
            for r in report.results
        ]
        _emit(rows, "csv", sys.stdout)
    else:
        for r in report.results:
            print(f"{r.status.upper():4} {r.id} (trials={r.trials}, {r.wall_time_s:.3f}s)")
            for f in r.failures[:3]:
                print(f"     counterexample {f.params} lhs={f.lhs} rhs={f.rhs}")
        passed = sum(1 for r in report.results if r.status == "pass")
        print(f"suite: {'PASS' if report.all_passed else 'FAIL'} "
              f"({passed}/{len(report.results)} identities, {report.wall_time_s:.1f}s, seed={report.seed})")
    return EXIT_OK if report.all_passed else EXIT_DOMAIN


def _cmd_piu(args) -> int:
    params = make_params(_number("--s", args.s), _number("--t", args.t))
    u = _number("--u", args.u)
    root = find_pi_u(params, u, x_max=_positive("--xmax", args.xmax))
    rows = [{"s": params.s, "t": params.t, "u": u, "piU": root.value, "residual": root.residual}]
    _emit(rows, args.format, sys.stdout)
    return EXIT_OK


def _cmd_integrate(args) -> int:
    coeffs = [_number("--poly", c) for c in args.poly.split(",")]
    params = make_params(_number("--s", args.s), _number("--t", args.t))
    a, b = _number("--a", args.a), _number("--b", args.b)
    value = integral_value(TruncatedSeries(coeffs).eval_at, a, b, params, _positive("--eps", args.eps))
    rows = [{"poly": args.poly, "s": params.s, "t": params.t, "a": a, "b": b, "value": value}]
    _emit(rows, args.format, sys.stdout)
    return EXIT_OK


def _add_common(sub, *, u: bool = False) -> None:
    sub.add_argument("--s", required=True, help="first sequence parameter (float or p/q)")
    sub.add_argument("--t", required=True, help="second sequence parameter (float or p/q)")
    if u:
        sub.add_argument("--u", required=True, help="deformation parameter (float or p/q)")
    sub.add_argument("--format", choices=("plain", "json", "csv"), default="plain")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lucascalc",
        description="Sequence calculus, deformed special functions, and the identity suite.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    seq = subs.add_parser("seq", help="tabulate the sequence {0..n} or its companion")
    _add_common(seq)
    seq.add_argument("--n", type=int, required=True, help="last index to print")
    seq.add_argument("--companion", action="store_true", help="print the companion sequence")
    seq.add_argument("--exact", action="store_true", help="exact rational arithmetic")
    seq.set_defaults(func=_cmd_seq)

    ev = subs.add_parser("eval", help="evaluate a function family member at a point")
    ev.add_argument("--fn", required=True, choices=[k.value for k in FnKind])
    _add_common(ev, u=True)
    ev.add_argument("--x", required=True, help="evaluation point")
    ev.add_argument("--eps", default="1e-12")
    ev.set_defaults(func=_cmd_eval)

    table = subs.add_parser("table", help="tabulate a function over a grid")
    table.add_argument("--fn", required=True, choices=[k.value for k in FnKind])
    _add_common(table, u=True)
    table.add_argument("--from", required=True, help="grid start")
    table.add_argument("--to", required=True, help="grid end (inclusive)")
    table.add_argument("--step", required=True, help="grid step")
    table.add_argument("--eps", default="1e-12")
    table.set_defaults(func=_cmd_table)

    verify = subs.add_parser("verify", help="run the identity suite")
    verify.add_argument("--suite", default="all", help="all, a group name, an id, or a comma list")
    verify.add_argument("--trials", type=int, default=25)
    verify.add_argument("--order", type=int, default=16)
    verify.add_argument("--seed", type=int, default=7)
    verify.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    verify.set_defaults(func=_cmd_verify)

    piu = subs.add_parser("piu", help="first positive zero of the sine family member")
    _add_common(piu, u=True)
    piu.add_argument("--xmax", default="10.0")
    piu.set_defaults(func=_cmd_piu)

    integrate = subs.add_parser("integrate", help="definite node-series integral of a polynomial")
    integrate.add_argument("--poly", required=True, help="comma-separated coefficients, constant first")
    _add_common(integrate)
    integrate.add_argument("--a", required=True, help="lower endpoint")
    integrate.add_argument("--b", required=True, help="upper endpoint")
    integrate.add_argument("--eps", default="1e-12")
    integrate.set_defaults(func=_cmd_integrate)

    return parser


def main(argv=None) -> int:
    """Run one command; the only place that reports a failure and picks its exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (LucasError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NoRootFound):
            return EXIT_NO_ROOT
        usage = isinstance(exc, UnknownIdentityId) or not isinstance(exc, LucasError)
        return EXIT_USAGE if usage else EXIT_DOMAIN


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
