"""Command line front end: solve, convergence, tabulate-exit, verify."""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys

import numpy as np

from . import benchmarks, checks, exit_time, experiment, solver


def _parse_n_list(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad n list {text!r}: {exc}") from None


def _config_help(name: str, text: str) -> str:
    """text, then the default of ExperimentConfig's field name, read off the
    dataclass so that no value is restated here."""
    default = next(f.default for f in dataclasses.fields(experiment.ExperimentConfig)
                   if f.name == name)
    if isinstance(default, tuple):
        default = ",".join(map(str, default))
    return text if default is None else f"{text} (default: {default})"


def _check_out(path: str) -> None:
    """Refuse, before any work, an empty --out or one that names a directory or sits in none."""
    if not path:
        raise ValueError("--out is empty")
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise ValueError(f"--out {path} is a directory")
    if not os.path.isdir(folder):
        raise ValueError(f"--out {path}: no directory {folder}")


@contextlib.contextmanager
def _usage_errors(parser):
    """Report a ValueError from a command's inputs as a usage error."""
    try:
        yield
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_solve(args, usage) -> int:
    solve = solver.solve_implicit if args.scheme == "implicit" else solver.solve_explicit
    with usage:  # solve_implicit refuses a broken contraction with a ValueError
        case = benchmarks.make_case(args.case, args.T)
        problem = case.problem(args.n)
        exact = {"Y": case.exact.y_fn(0.0, 0.0)}
        if case.exact.z_fn is not None:
            exact["Z"] = case.exact.z_fn(0.0, 0.0)
        # the truth can overflow where the lattice does not (exp case,
        # T > 202.8): refused before the sweep
        if not all(math.isfinite(v) for v in exact.values()):
            raise FloatingPointError(f"non-finite exact root at T={args.T}: "
                                     + ", ".join(f"{k}(0,0)={v}" for k, v in exact.items()))
        y0, z0 = solve(problem).root()
    print(f"case={args.case} n={args.n} T={args.T} scheme={args.scheme}")
    print(f"Y0 = {y0:.12g}")
    print(f"Z0 = {z0:.12g}")
    for name, value in exact.items():
        print(f"exact {name}(0,0) = {value:.12g}")
    return 0


def _cmd_convergence(args, usage) -> int:
    fields = {f.name for f in dataclasses.fields(experiment.ExperimentConfig)}
    with usage:
        _check_out(args.out)
        config = experiment.ExperimentConfig(
            **{name: value for name, value in vars(args).items() if name in fields})
        if len(config.n_list) < 3:  # ExperimentConfig already refuses a repeated n
            raise ValueError(f"a slope fit needs at least 3 distinct n, got {config.n_list}")
    series = experiment.run_mc(config)
    regressions = experiment.fit_slopes(series)
    experiment.emit_csv(series, regressions, args.out)
    alpha = series.meta["alpha"]
    for label, reg in regressions.items():
        note = ""
        if experiment.slope_flag(reg.slope, alpha):
            note = f"  [flag: above -alpha/2 + {experiment.SLOPE_SLACK}]"
        print(f"slope_{label} = {reg.slope:+.4f}  (r2 = {reg.r2:.4f}){note}")
    print(f"theory slope = {-0.5 * alpha:+.4f}   wrote {args.out}")
    return 0


def _cmd_tabulate_exit(args, usage) -> int:
    with usage:
        _check_out(args.out)
        cdf = exit_time.tabulate(args.h)
    np.savetxt(args.out, np.column_stack((cdf.grid, cdf.values)), fmt="%.17g", delimiter=",",
               header="t,F", comments="")
    print(f"wrote {cdf.grid.size} rows to {args.out}")
    return 0


def _cmd_verify(args, usage) -> int:
    ok = True
    for check in checks.CHECKS:
        result = check()
        print(result.line(), flush=True)
        ok &= result.ok
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rwbsde",
        description="Random-walk BSDE lattice solver and convergence harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one lattice and print the root values")
    p.add_argument("--case", required=True, choices=benchmarks.CASE_NAMES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--scheme", choices=solver.SCHEMES, default="explicit")
    p.set_defaults(func=_cmd_solve)

    # a flag left out stays out of args: ExperimentConfig's default applies
    p = sub.add_parser("convergence", help="Monte Carlo L2 errors and log-log slopes",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--case", required=True, choices=benchmarks.CASE_NAMES)
    p.add_argument("--T", type=float, help=_config_help("T", "horizon"))
    p.add_argument("--t-eval", type=float, dest="t_eval",
                   help=_config_help("t_eval", "evaluation time (default: T/2)"))
    p.add_argument("--n", type=_parse_n_list, dest="n_list", metavar="N",
                   help=_config_help("n_list", "comma-separated step counts"))
    p.add_argument("--M", type=int, help=_config_help("M", "replications per n"))
    p.add_argument("--seed", type=int, help=_config_help("seed", "master seed"))
    p.add_argument("--scheme", choices=solver.SCHEMES,
                   help=_config_help("scheme", "backward sweep rule"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("tabulate-exit", help="write the exit-time CDF table as CSV")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_tabulate_exit)

    p = sub.add_parser("verify", help="run acceptance criteria 1-9; exit status 1 if any fails")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, _usage_errors(parser))


if __name__ == "__main__":
    sys.exit(main())
