"""Command-line front end.

Subcommands: tail (classify one statistic and evaluate its approximation),
matrix (dump a quadratic-form matrix), regions (scan the AR(2) parameter
plane), simulate (Monte Carlo tail experiment), calibrate (risk along a grid
of alternatives), dist (innovation-law queries).

Every run echoes its configuration as a '#'-prefixed header line (every
option in parser order, then the values it resolved), reals carry 17
significant digits, and line endings are LF; the number format, header
lines and CSV rows come from the shared text module _text.  Exit codes:
0 on success, 2 on usage errors, 1 on domain errors (the message names the
violated precondition), on arithmetic failures such as overflow and on
output files that cannot be written; a failed run leaves an earlier --out
file as it was.
HEAVYTAIL_THREADS, the one worker setting, caps the thread pool of
simulate (calibrate runs serially); results do not depend on it.
"""

import argparse
import os
import sys
from contextlib import contextmanager, suppress

import numpy as np

from ._text import fmt, write_header, write_rows
from .ar_quadform import ArModel, Statistic, autocov_matrix, test_matrix
from .ar2_regions import region_grid, write_region_csv
from .monte_carlo import (DEFAULT_A_GRID, McConfig, calibrate_risk,
                          run_tail_experiment, write_risk_csv, write_tail_csv)
from .student_dist import (cdf, density, make_law, normal_quantile,
                           quantile_tail, survival, tail_constant,
                           upper_quantile)
from .tail_formulas import check_span, evaluate, statistic_tail


def _config_line(args, **resolved):
    """'config cmd=<name> option=value ...': every option of the parsed args
    in parser order, with resolved values replacing theirs or appended."""
    echo = {k: v for k, v in vars(args).items() if k not in ("cmd", "handler", "out")}
    echo.update(resolved)
    return "config cmd=%s %s" % (args.cmd, " ".join(
        "%s=%s" % (k.replace("_", "-"), fmt(v)) for k, v in echo.items()))


@contextmanager
def _open_out(args):
    """stdout, or <out>.partial moved onto --out once the run succeeds."""
    if not args.out:
        yield sys.stdout
        return
    partial = args.out + ".partial"
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(partial, args.out)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(partial)
        raise


def _model(args):
    theta = (args.a,) if args.b is None else (args.a, args.b)
    return ArModel(theta, args.n)


def _lag(args):
    """--k as given, or lag 1 where neither --k nor --a0 is."""
    return 1 if args.k is None and args.a0 is None else args.k


def _cmd_tail(args, fh):
    write_header(fh, [_config_line(args)])
    tail = statistic_tail(Statistic(_model(args), k=args.k), args.alpha)
    fh.write("regime=%s coef=%s\n" % (tail.regime, fmt(tail.coef)))
    if tail.note:
        fh.write("# note: %s\n" % tail.note)
    if args.t is not None:
        raw = evaluate(tail, args.t)
        fh.write("t=%s p=%s raw=%s\n"
                 % (fmt(args.t), fmt(min(max(raw, 0.0), 1.0)), fmt(raw)))


def _cmd_matrix(args, fh):
    k = _lag(args)
    write_header(fh, [_config_line(args, k=k)])
    stat = Statistic(_model(args), k=k, a0=args.a0)
    form = (autocov_matrix(stat.model, stat.k) if stat.a0 is None
            else test_matrix(args.a, stat.a0, args.n))
    write_rows(fh, form.entries)


def _cmd_regions(args, fh):
    write_region_csv(region_grid(args.a_min, args.a_max, args.b_min, args.b_max, args.steps,
                                 kmax=args.kmax), fh, header_lines=[_config_line(args)])


def _cmd_simulate(args, fh):
    k = _lag(args)
    cfg = McConfig(statistic=Statistic(_model(args), k=k, a0=args.a0),
                   law=make_law(args.alpha), replicas=args.replicas, seed=args.seed,
                   t_min=args.t_min, t_max=args.t_max, points=args.points)
    est = run_tail_experiment(cfg)
    write_tail_csv(est, fh, header_lines=[_config_line(args, k=k)])


def _cmd_calibrate(args, fh):
    custom = [args.a_min, args.a_max, args.steps]
    if any(v is not None for v in custom):
        if any(v is None for v in custom):
            raise ValueError("need all of --a-min, --a-max, --steps "
                             "for a custom grid")
        if not args.a_min < args.a_max:
            raise ValueError("need a_min < a_max")
        if args.steps < 2:
            raise ValueError("need steps >= 2")
        grid = np.linspace(*check_span("a", args.a_min, args.a_max), args.steps).tolist()
    else:
        grid = list(DEFAULT_A_GRID)
    rows = calibrate_risk(grid, args.a0, args.n, args.alpha, args.eta,
                          replicas=args.replicas, seed=args.seed)
    write_risk_csv(rows, fh, header_lines=[_config_line(args, grid_size=len(grid))])


def _cmd_dist(args, fh):
    write_header(fh, [_config_line(args)])
    law = make_law(args.alpha)
    fh.write("alpha=%s\n" % fmt(law.alpha))
    fh.write("k_s=%s\n" % fmt(law.k_s))
    fh.write("tail_constant=%s\n" % fmt(tail_constant(law)))
    if args.x is not None:
        fh.write("density=%s\n" % fmt(density(law, args.x)))
        fh.write("cdf=%s\n" % fmt(cdf(law, args.x)))
        fh.write("survival=%s\n" % fmt(survival(law, args.x)))
    if args.u is not None:
        fh.write("quantile_tail=%s\n" % fmt(quantile_tail(law, args.u)))
        if args.u < 0.5:
            fh.write("upper_quantile=%s\n" % fmt(upper_quantile(law, args.u)))
        fh.write("normal_quantile=%s\n" % fmt(normal_quantile(args.u)))


def _add_out(sub):
    sub.add_argument("--out", help="write output to this file instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="heavytail",
        description="Finite-sample tail approximations for autocovariances "
                    "of AR processes with heavy-tailed innovations.")
    subs = parser.add_subparsers(dest="cmd", required=True)

    sub = subs.add_parser("tail", help="classify one statistic's tail regime")
    sub.add_argument("--alpha", type=float, required=True)
    sub.add_argument("--a", type=float, required=True)
    sub.add_argument("--b", type=float, default=None)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, default=1)
    sub.add_argument("--t", type=float, default=None,
                     help="also evaluate the approximation at this threshold")
    _add_out(sub)
    sub.set_defaults(handler=_cmd_tail)

    sub = subs.add_parser("matrix", help="dump a quadratic-form matrix")
    sub.add_argument("--a", type=float, required=True)
    sub.add_argument("--b", type=float, default=None)
    sub.add_argument("--a0", type=float, default=None,
                     help="dump the test-statistic matrix for this reference")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, default=None,
                     help="autocovariance lag (default 1 without --a0)")
    _add_out(sub)
    sub.set_defaults(handler=_cmd_matrix)

    sub = subs.add_parser("regions", help="scan the AR(2) parameter plane")
    sub.add_argument("--a-min", type=float, default=-2.0)
    sub.add_argument("--a-max", type=float, default=2.0)
    sub.add_argument("--b-min", type=float, default=-2.0)
    sub.add_argument("--b-max", type=float, default=1.0)
    sub.add_argument("--steps", type=int, default=41)
    sub.add_argument("--kmax", type=int, default=200)
    _add_out(sub)
    sub.set_defaults(handler=_cmd_regions)

    sub = subs.add_parser("simulate", help="Monte Carlo tail experiment")
    sub.add_argument("--alpha", type=float, required=True)
    sub.add_argument("--a", type=float, required=True)
    sub.add_argument("--b", type=float, default=None)
    sub.add_argument("--a0", type=float, default=None,
                     help="simulate the test statistic instead of a lag")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, default=None,
                     help="autocovariance lag (default 1 without --a0)")
    sub.add_argument("--replicas", type=int, default=McConfig.replicas)
    sub.add_argument("--seed", type=int, default=McConfig.seed)
    sub.add_argument("--t-min", type=float, default=McConfig.t_min)
    sub.add_argument("--t-max", type=float, default=McConfig.t_max)
    sub.add_argument("--points", type=int, default=McConfig.points)
    _add_out(sub)
    sub.set_defaults(handler=_cmd_simulate)

    sub = subs.add_parser("calibrate", help="risk along a grid of alternatives")
    sub.add_argument("--alpha", type=float, required=True)
    sub.add_argument("--a0", type=float, default=0.5)
    sub.add_argument("--n", type=int, default=20)
    sub.add_argument("--eta", type=float, default=0.05)
    sub.add_argument("--replicas", type=int, default=McConfig.replicas)
    sub.add_argument("--seed", type=int, default=McConfig.seed)
    sub.add_argument("--a-min", type=float, default=None)
    sub.add_argument("--a-max", type=float, default=None)
    sub.add_argument("--steps", type=int, default=None)
    _add_out(sub)
    sub.set_defaults(handler=_cmd_calibrate)

    sub = subs.add_parser("dist", help="innovation-law queries")
    sub.add_argument("--alpha", type=float, required=True)
    sub.add_argument("--x", type=float, default=None)
    sub.add_argument("--u", type=float, default=None)
    _add_out(sub)
    sub.set_defaults(handler=_cmd_dist)

    return parser


# built on the first main call and reused: parsing leaves the parser as is
_parser = None


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        with _open_out(args) as fh:
            args.handler(args, fh)
        return 0
    except (ValueError, OSError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
