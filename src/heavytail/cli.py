"""Command-line front end.

Subcommands: tail (classify one statistic and evaluate its approximation),
matrix (dump a quadratic-form matrix), regions (scan the AR(2) parameter
plane), simulate (Monte Carlo tail experiment), calibrate (risk along a grid
of alternatives), dist (innovation-law queries).

Each handler runs its checks and computation and returns the values it
resolved and a writer of its body; main alone writes output: the
configuration echo as one '#'-prefixed line (every option in parser
order, then the resolved values), then the body, so a run that fails a
check writes nothing.  Reals carry 17 significant digits, line endings
are LF, and the number format and CSV rows come from the shared text
module _text.  Exit codes: 0 on success, 2 on usage errors, 1 on domain
errors (the message names the violated precondition), on arithmetic
failures such as overflow and on output files that cannot be written; a
failed run leaves an earlier --out file as it was.
HEAVYTAIL_THREADS, the one worker setting, caps the thread pool of
simulate and calibrate; results do not depend on it.  While calibrate's
blocks run, numpy's OpenBLAS is held to one thread (process-wide).
"""

import argparse
import os
import sys
from contextlib import contextmanager, suppress

import numpy as np

from ._text import fmt, write_rows
from .ar_quadform import ArModel, Statistic, autocov_matrix, test_matrix
from .ar2_regions import region_grid, write_region_csv
from .monte_carlo import (DEFAULT_A_GRID, McConfig, calibrate_risk,
                          run_tail_experiment, write_risk_csv, write_tail_csv)
from .student_dist import (cdf, density, make_law, normal_quantile,
                           quantile_tail, survival, tail_constant,
                           upper_quantile)
from .tail_formulas import check_span, evaluate, statistic_tail


def _config_line(args, **resolved):
    """The '# config cmd=<name> option=value ...' line: every option of args
    in parser order, with resolved values replacing theirs or appended."""
    echo = {k: v for k, v in vars(args).items() if k not in ("cmd", "handler", "out")}
    echo.update(resolved)
    return "# config cmd=%s %s\n" % (args.cmd, " ".join(
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


def _statistic(args):
    """The Statistic of --a, --b, --a0, --n and --k: lag 1 where neither --k nor --a0 is."""
    a0 = getattr(args, "a0", None)  # tail takes no pivot
    theta = (args.a,) if args.b is None else (args.a, args.b)
    return Statistic(ArModel(theta, args.n), k=1 if args.k is None and a0 is None else args.k,
                     a0=a0)


def _cmd_tail(args):
    stat = _statistic(args)
    tail = statistic_tail(stat, args.alpha)
    text = "regime=%s coef=%s\n" % (tail.regime, fmt(tail.coef))
    if tail.note:
        text += "# note: %s\n" % tail.note
    if args.t is not None:
        raw = evaluate(tail, args.t)
        text += "t=%s p=%s raw=%s\n" % (fmt(args.t), fmt(min(max(raw, 0.0), 1.0)), fmt(raw))
    return {"k": stat.k}, lambda fh: fh.write(text)


def _cmd_matrix(args):
    stat = _statistic(args)
    form = (autocov_matrix(stat.model, stat.k) if stat.a0 is None
            else test_matrix(args.a, stat.a0, args.n))
    return {"k": stat.k}, lambda fh: write_rows(fh, form.entries)


def _cmd_regions(args):
    scan = region_grid(args.a_min, args.a_max, args.b_min, args.b_max, args.steps,
                       kmax=args.kmax)
    return {}, lambda fh: write_region_csv(scan, fh)


def _cmd_simulate(args):
    cfg = McConfig(statistic=_statistic(args),
                   law=make_law(args.alpha), replicas=args.replicas, seed=args.seed,
                   t_min=args.t_min, t_max=args.t_max, points=args.points)
    est = run_tail_experiment(cfg)
    return {"k": cfg.statistic.k}, lambda fh: write_tail_csv(est, fh)


def _cmd_calibrate(args):
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
    return {"grid_size": len(grid)}, lambda fh: write_risk_csv(rows, fh)


def _cmd_dist(args):
    law = make_law(args.alpha)
    values = [("alpha", law.alpha), ("k_s", law.k_s), ("tail_constant", tail_constant(law))]
    if args.x is not None:
        values += [("density", density(law, args.x)), ("cdf", cdf(law, args.x)),
                   ("survival", survival(law, args.x))]
    if args.u is not None:
        values.append(("quantile_tail", quantile_tail(law, args.u)))
        if args.u < 0.5:
            values.append(("upper_quantile", upper_quantile(law, args.u)))
        values.append(("normal_quantile", normal_quantile(args.u)))
    return {}, lambda fh: fh.writelines("%s=%s\n" % (name, fmt(v)) for name, v in values)


def _add_out(sub):
    sub.add_argument("--out", help="write output to this file instead of stdout")


def _add_statistic(sub, pivot):
    """--a, --b, with pivot --a0, --n and --k: the options _statistic reads."""
    sub.add_argument("--a", type=float, required=True)
    sub.add_argument("--b", type=float)
    if pivot:
        sub.add_argument("--a0", type=float, help="the test statistic at this a0, not a lag")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, help="autocovariance lag (default 1 without --a0)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="heavytail",
        description="Finite-sample tail approximations for autocovariances "
                    "of AR processes with heavy-tailed innovations.")
    subs = parser.add_subparsers(dest="cmd", required=True)

    sub = subs.add_parser("tail", help="classify one statistic's tail regime")
    sub.add_argument("--alpha", type=float, required=True)
    _add_statistic(sub, pivot=False)
    sub.add_argument("--t", type=float, default=None,
                     help="also evaluate the approximation at this threshold")
    _add_out(sub)
    sub.set_defaults(handler=_cmd_tail)

    sub = subs.add_parser("matrix", help="dump a quadratic-form matrix")
    _add_statistic(sub, pivot=True)
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
    _add_statistic(sub, pivot=True)
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
        with _open_out(args) as fh:  # an unwritable --out fails before the handler runs
            resolved, write = args.handler(args)
            fh.write(_config_line(args, **resolved))
            write(fh)
        return 0
    except (ValueError, OSError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
