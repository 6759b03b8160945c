"""Command-line front end.

Subcommands: solve (run the Newton solver on an FBQP file), validate (problem
assumption checks), oracle (active-set enumeration reference solve), mpc
(bundled closed-loop cold, warm and shifted warm start experiments). Exit
codes: 0 success, 1 solver or validation failure, 2 usage and parse errors,
including flag values out of range.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from .errors import FbrsError, InvalidConfig, InvalidProblem, InvalidSpec, ParseError
from .mpc import BUNDLED_EXAMPLES, run_sequence
from .newton import SolverConfig, Status, fbrs_solve
from .oracle import solve_by_enumeration, verify_kkt
from .problem import PrimalDualPoint, objective, validate_problem
from .qpfile import parse_qp, serialize_qp

TRACE_HEADER = "iter,norm_Feps,norm_F0,norm_Fnr,t,delta,eps,backtracks"


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _load_problem(path: str):
    with open(path) as fh:
        return parse_qp(fh.read())


def write_trace_csv(path: str, trace) -> None:
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for r in trace:
            fh.write(
                f"{r.k},{_fmt(r.norm_Feps)},{_fmt(r.norm_F0)},{_fmt(r.norm_Fnr)},"
                f"{_fmt(r.t)},{_fmt(r.delta)},{_fmt(r.eps)},{r.backtracks}\n"
            )


def _print_point(x: PrimalDualPoint) -> None:
    print("z " + " ".join(_fmt(v) for v in x.z))
    print("v " + " ".join(_fmt(v) for v in x.v))


def _cmd_solve(args) -> int:
    problem, embedded_x0 = _load_problem(args.input)
    x0 = PrimalDualPoint.zeros(problem.n, problem.q)
    if args.warmstart:
        _, warm = _load_problem(args.warmstart)
        if warm is None:
            print(f"error: {args.warmstart} carries no x0 row", file=sys.stderr)
            return 2
        x0 = warm
    elif embedded_x0 is not None:
        x0 = embedded_x0
    result = fbrs_solve(problem, x0, SolverConfig(tol=args.tol, max_iters=args.max_iters))
    print(f"status {result.status.value}")
    print(f"iterations {result.iterations}")
    print(f"objective {_fmt(objective(problem, result.x.z))}")
    print(f"norm_F0 {_fmt(result.final_norm_F0)}")
    print(f"norm_Fnr {_fmt(result.final_norm_Fnr)}")
    _print_point(result.x)
    if args.trace:
        write_trace_csv(args.trace, result.trace)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(serialize_qp(problem, result.x))
    return 0 if result.status == Status.SOLVED else 1


def _cmd_validate(args) -> int:
    problem, _ = _load_problem(args.input)
    report = validate_problem(problem, tol=args.tol)
    print(f"symmetry_defect {_fmt(report.symmetry_defect)}")
    print(f"sigma_min {_fmt(report.sigma_min)}")
    print(f"sigma_max {_fmt(report.sigma_max)}")
    print(f"symmetry {'ok' if report.symmetry_ok else 'FAIL'}")
    print(f"A3 {'ok' if report.a3_ok else 'FAIL'}")
    for note in report.notes:
        print(f"note: {note}")
    print(f"result {'pass' if report.passed else 'fail'}")
    return 0 if report.passed else 1


def _cmd_oracle(args) -> int:
    problem, _ = _load_problem(args.input)
    x = solve_by_enumeration(problem)
    # the measures of the exact point grow with the data, so the check is
    # relative to its largest entry; verify_kkt itself is absolute
    scale = max(1.0, *(float(abs(M).max()) for M in (problem.H, problem.f, problem.A, problem.b)))
    report = verify_kkt(problem, x, 1e-8 * scale)
    print(f"objective {_fmt(objective(problem, x.z))}")
    print(f"kkt {'pass' if report.passed else 'fail'}")
    _print_point(x)
    return 0 if report.passed else 1


def _cmd_mpc(args) -> int:
    # an absent --horizon or --tol passes nothing, so the example builder and
    # run_sequence apply their own defaults
    spec = BUNDLED_EXAMPLES[args.example](**({} if args.horizon is None else {"horizon": args.horizon}))
    cfg = None if args.tol is None else SolverConfig(tol=args.tol)
    trajectory, stats = run_sequence(spec, args.steps, start_mode=args.mode, cfg=cfg)
    print(f"example {args.example}")
    print(f"steps {args.steps} mode {args.mode}")
    print(f"mean_iterations {stats.mean_iterations:.3f}")
    print(f"max_iterations {stats.max_iterations}")
    print(f"mean_time {stats.mean_time:.6f}")
    print(f"max_time {stats.max_time:.6f}")
    print(f"final_state_norm {_fmt(float((trajectory.states[-1] ** 2).sum() ** 0.5))}")
    if args.stats:
        stats.write_csv(args.stats)
    return 0


def _default(func, name: str):
    # the library's own default, so the CLI does not repeat it
    return inspect.signature(func).parameters[name].default


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbrs",
        description="Dense convex QP solver (smoothed Fischer-Burmeister Newton method)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an FBQP file")
    solve.add_argument("--input", required=True)
    solve.add_argument("--tol", type=float, default=SolverConfig.tol)
    solve.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
    solve.add_argument("--warmstart", help="FBQP file whose x0 row seeds the solve")
    solve.add_argument("--trace", help="write per-iteration CSV here")
    solve.add_argument("--output", help="write the problem with x0 = solution here")
    solve.set_defaults(func=_cmd_solve)

    validate = sub.add_parser("validate", help="check problem assumptions")
    validate.add_argument("--input", required=True)
    validate.add_argument("--tol", type=float, default=_default(validate_problem, "tol"))
    validate.set_defaults(func=_cmd_validate)

    oracle = sub.add_parser("oracle", help="reference solve by active-set enumeration")
    oracle.add_argument("--input", required=True)
    oracle.set_defaults(func=_cmd_oracle)

    mpc = sub.add_parser("mpc", help="closed-loop cold/warm/shift experiment on a bundled plant")
    mpc.add_argument("--example", choices=sorted(BUNDLED_EXAMPLES), required=True)
    mpc.add_argument("--horizon", type=int)
    mpc.add_argument("--steps", type=int, default=50)
    mpc.add_argument("--mode", choices=["cold", "warm", "shift"], default=_default(run_sequence, "start_mode"))
    mpc.add_argument("--stats", help="write per-QP CSV here")
    mpc.add_argument("--tol", type=float)
    mpc.set_defaults(func=_cmd_mpc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, InvalidProblem, InvalidConfig, InvalidSpec, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FbrsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
