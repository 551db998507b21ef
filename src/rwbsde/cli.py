"""Command line front end: solve, convergence, tabulate-exit, verify."""
from __future__ import annotations

import argparse
import contextlib
import sys

from . import benchmarks, checks, exit_time, experiment, solver


def _parse_n_list(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad n list {text!r}: {exc}") from None


@contextlib.contextmanager
def _usage_errors(parser):
    """Report a ValueError from building a command's inputs as a usage error."""
    try:
        yield
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_solve(args, usage) -> int:
    with usage:
        case = benchmarks.make_case(args.case, args.T)
        problem = case.problem(args.n)
        if args.scheme == "implicit":
            solver.check_contraction(problem)
    solve = solver.solve_implicit if args.scheme == "implicit" else solver.solve_explicit
    solution = solve(problem)
    y0, z0 = solution.root()
    print(f"case={args.case} n={args.n} T={args.T} scheme={args.scheme}")
    print(f"Y0 = {y0:.12g}")
    print(f"Z0 = {z0:.12g}")
    print(f"exact Y(0,0) = {case.exact.y_fn(0.0, 0.0):.12g}")
    if case.exact.z_fn is not None:
        print(f"exact Z(0,0) = {case.exact.z_fn(0.0, 0.0):.12g}")
    return 0


def _cmd_convergence(args, usage) -> int:
    with usage:
        config = experiment.ExperimentConfig(
            case=args.case,
            n_list=args.n,
            M=args.M,
            T=args.T,
            t_eval=args.t_eval,
            seed=args.seed,
            scheme=args.scheme,
        )
        if len(config.n_list) < 3:  # ExperimentConfig already refuses a repeated n
            raise ValueError(f"a slope fit needs at least 3 distinct n, got {config.n_list}")
    series = experiment.run_mc(config)
    regressions = {"Y": experiment.regress_loglog(series, "e_y")}
    if series.rows[0].e_z is not None:
        regressions["Z"] = experiment.regress_loglog(series, "e_z")
    experiment.emit_csv(series, regressions, args.out)
    alpha = series.meta["alpha"]
    for label, reg in regressions.items():
        note = ""
        if experiment.slope_flag(reg.slope, alpha):
            note = f"  [flag: above -alpha/2 + {experiment.SLOPE_SLACK}]"
        print(f"slope_{label} = {reg.slope:+.4f}  (r2 = {reg.r_squared:.4f}){note}")
    print(f"theory slope = {-0.5 * alpha:+.4f}   wrote {args.out}")
    return 0


def _cmd_tabulate_exit(args, usage) -> int:
    with usage:
        cdf = exit_time.tabulate(args.h)
    with open(args.out, "w") as fh:
        fh.write("t,F\n")
        for t, f in zip(cdf.grid, cdf.values):
            fh.write(f"{t:.17g},{f:.17g}\n")
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
    p.add_argument("--scheme", choices=("explicit", "implicit"), default="explicit")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("convergence", help="Monte Carlo L2 errors and log-log slopes")
    p.add_argument("--case", required=True, choices=benchmarks.CASE_NAMES)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--t-eval", type=float, default=None, dest="t_eval")
    p.add_argument("--n", type=_parse_n_list, default=experiment.DEFAULT_N_LIST)
    p.add_argument("--M", type=int, default=experiment.DEFAULT_M)
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--scheme", choices=("explicit", "implicit"), default="explicit")
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
