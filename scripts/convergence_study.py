#!/usr/bin/env python3
"""Convergence behavior on random strictly convex QPs.

Solves a batch of random instances from infeasible starts, then reports the
iteration distribution, the tail contraction factors of the smoothed residual,
and the fraction of unit steps near the solution.
"""

import argparse
import math

import numpy as np

from fbrs.newton import SolverConfig, Status, fbrs_solve
from fbrs.oracle import random_infeasible_start, random_strictly_convex_qp


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=100)
    parser.add_argument("--starts", type=int, default=3)
    parser.add_argument("-n", type=int, default=20)
    parser.add_argument("-q", type=int, default=40)
    parser.add_argument("--tol", type=float, default=1e-10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    for flag, value in [("--instances", args.instances), ("--starts", args.starts), ("-n", args.n), ("-q", args.q)]:
        if value < 1:
            parser.error(f"{flag} must be >= 1, got {value}")
    if not 0 < args.tol < math.inf:
        parser.error(f"--tol must be a finite real > 0, got {args.tol:g}")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")

    rng = np.random.default_rng(args.seed)
    cfg = SolverConfig(tol=args.tol, max_iters=100)
    iterations = []
    contractions = []
    unit_tail_steps = total_tail_steps = 0
    failures = 0
    for _ in range(args.instances):
        p = random_strictly_convex_qp(args.n, args.q, rng)
        for _ in range(args.starts):
            result = fbrs_solve(p, random_infeasible_start(p, rng), cfg)
            if result.status != Status.SOLVED:
                failures += 1
                continue
            iterations.append(result.iterations)
            tail = [
                (a, b)
                for a, b in zip(result.trace, result.trace[1:])
                if a.t > 0 and a.norm_Feps <= 1e-3
            ]
            contractions.extend(b.norm_Feps / a.norm_Feps for a, b in tail)
            total_tail_steps += len(tail)
            unit_tail_steps += sum(a.t == 1.0 for a, _ in tail)

    total = args.instances * args.starts
    print(f"solved {total - failures}/{total} (n={args.n}, q={args.q}, tol={args.tol:g})")
    if iterations:
        iterations = np.array(iterations)
        print(
            f"iterations: mean {iterations.mean():.2f}, median {np.median(iterations):.0f},"
            f" max {iterations.max()}"
        )
    if contractions:
        contractions = np.array(contractions)
        print(
            f"tail contraction ||F|| ratios: median {np.median(contractions):.2e},"
            f" worst {contractions.max():.2e}"
        )
        print(f"unit steps in the tail: {unit_tail_steps}/{total_tail_steps}")


if __name__ == "__main__":
    main()
