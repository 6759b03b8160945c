#!/usr/bin/env python3
"""The fbrs benchmark: time one workload and print every metric by name and unit.

    python3 perfbench/run.py --workload qp-small --seed 1 --seconds 35 --trace 0

Run it from anywhere; it imports `fbrs` from the `src/` directory next to
`perfbench/` and fails (exit code 2, no result line) when that is missing.
`--trace 0` prints the end-to-end metrics; `--trace 1` runs every operation
untraced and then traced, prints the per-layer metrics and writes the spans
to `perfbench/out/`. The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Fixed before numpy loads: OpenBLAS at its default of one thread per core
# measures the scheduler as much as the solver, and makes reduction order,
# and so iteration counts, vary from run to run.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("qp-small", "qp-large", "mpc-warm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time budget; whole passes over the pool")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes and one set-up probe, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    return args


def setup_probe(args) -> float:
    """Set-up time of a fresh interpreter: import, instance generation and one
    warm-up solve, measured inside a child process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"] + (["--smoke"] if args.smoke else [])
    child = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if child.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{child.stderr}")
    return float(child.stdout.split()[-1])


def environment() -> dict:
    import numpy
    import scipy

    def openblas(show_config):
        try:
            return show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "?")
        except (TypeError, KeyError):
            return "?"

    return {
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "numpy": numpy.__version__,
        "numpy_blas": openblas(numpy.show_config),
        "scipy": scipy.__version__,
        "scipy_blas": openblas(scipy.show_config),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def end_to_end(tally, setup: list[float]) -> dict:
    solve_ms = [1e3 * s for s in tally.solve_s.values()]
    step_ms = [1e3 * s for s in tally.step_s.values()]
    return {
        "solve_ms.p50": (statistics.median(solve_ms), "ms", len(solve_ms)),
        "solve_ms.p90": (statistics.quantiles(solve_ms, n=10, method="inclusive")[-1], "ms", len(solve_ms)),
        "step_ms.p50": (statistics.median(step_ms), "ms", len(step_ms)),
        "iterations.mean": (statistics.fmean(tally.iterations), "count", len(tally.iterations)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def per_layer(tally, tr) -> dict:
    solves = max(tally.traced_solves, 1)
    iters = max(tally.traced_iterations, 1)
    n, q = tally.shape

    def ratio(a, b):
        return a / b if b else 0.0

    def per_iter(name):
        return (tr.calls(name) / iters, "count", tr.calls(name))

    def ms_solve(seconds, name):
        return (1e3 * seconds / solves, "ms", tr.calls(name))

    def ms_call(name):
        return (1e3 * ratio(tr.total_s(name), tr.calls(name)), "ms", tr.calls(name))

    ls_calls = tr.calls("linesearch")
    # each linesearch call evaluates theta(x) once, then once per trial step
    trials = max(tr.pairs[("linesearch", "merit")] - ls_calls, 0)
    accepted = ls_calls - tr.errors("linesearch")
    # Schur product A'(WA), Cholesky, two triangular solves, mat-vecs and the
    # residual check, computed from n and q rather than measured
    flops = 2 * q * n * n + n**3 / 3 + 6 * n * n + 9 * q * n
    condensed = tr.calls("solve_condensed")
    overhead = ratio(statistics.median(tally.traced_s.values()), statistics.median(tally.solve_s.values())) - 1.0
    return {
        "fbrs_solve.self_ms_per_solve": ms_solve(tr.self_s("fbrs_solve"), "fbrs_solve"),
        "residual_map.calls_per_iter": per_iter("residual_map"),
        "residual_map.ms_per_solve": ms_solve(tr.total_s("residual_map"), "residual_map"),
        "natural_residual.calls_per_iter": per_iter("natural_residual"),
        "natural_residual.ms_per_solve": ms_solve(tr.total_s("natural_residual"), "natural_residual"),
        "assemble_system.calls_per_iter": per_iter("assemble_system"),
        "assemble_system.self_ms_per_solve": ms_solve(tr.self_s("assemble_system"), "assemble_system"),
        "fb_coefficients.calls_per_iter": per_iter("fb_coefficients"),
        "fb_coefficients.self_ms_per_solve": ms_solve(tr.self_s("fb_coefficients"), "fb_coefficients"),
        "phi_eps.calls_per_iter": per_iter("phi_eps"),
        "phi_eps.self_ms_per_solve": ms_solve(tr.self_s("phi_eps"), "phi_eps"),
        "linesearch.trials_per_call": (ratio(trials, ls_calls), "count", ls_calls),
        "linesearch.accept_ratio": (ratio(accepted, trials), "ratio", trials),
        "linesearch.failures": (tr.errors("linesearch") / solves, "count/solve", solves),
        "merit_gradient.calls": (tr.calls("merit_gradient") / solves, "count/solve", solves),
        "linesearch.self_ms_per_solve": ms_solve(tr.self_s("linesearch"), "linesearch"),
        "solve_condensed.calls_per_iter": per_iter("solve_condensed"),
        "solve_condensed.self_ms_per_solve": ms_solve(tr.self_s("solve_condensed"), "solve_condensed"),
        "solve_full.calls_per_iter": per_iter("solve_full"),
        "lu_fallback_frac": (ratio(tr.calls("solve_full"), condensed), "ratio", condensed),
        "solve_condensed.gflops_computed": (
            ratio(flops * condensed, tr.total_s("solve_condensed")) / 1e9, "GFLOP/s", condensed),
        "cho_factor.ms_per_call": ms_call("cho_factor"),
        "cho_solve.ms_per_call": ms_call("cho_solve"),
        "condense.share_of_step": (
            ratio(tr.total_s("condense"), tr.total_s("run_sequence")), "ratio", tr.calls("run_sequence")),
        "trace.overhead_frac": (overhead, "ratio", len(tally.traced_s)),
    }


def main(argv=None) -> int:
    t_start = time.perf_counter()
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    args = parse_args(argv)
    if not (SRC / "fbrs" / "__init__.py").is_file():
        print(f"error: no fbrs package at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy and fbrs, after the BLAS thread count is fixed

    wl = (workloads.SMOKE if args.smoke else workloads.WORKLOADS)[args.workload]
    if args.setup_probe:
        wl.warmup(args.seed)
        print(time.perf_counter() - t_start)
        return 0

    import fbrs

    if Path(fbrs.__file__).resolve().parent != SRC / "fbrs":
        print(f"error: imported fbrs from {fbrs.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import Tracer

    wl.warmup(args.seed)
    tally = workloads.Tally()
    if args.trace:
        tracer = Tracer()
        workloads.run(wl, args.seed, args.seconds, tally, tracer)
        metrics = per_layer(tally, tracer)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path)
        notes = [f"# spans: {len(tracer.spans)} kept, {tracer.dropped} dropped, written to {path}"]
    else:
        # Set-up probes alternate with slices of the measurement, so that a
        # slow phase of the machine lasting a few seconds cannot hit most of them.
        probes = 1 if args.smoke else SETUP_PROBES
        setup = []
        for k in range(probes):
            setup.append(setup_probe(args))
            workloads.run(wl, args.seed, (k + 1) * args.seconds / probes - tally.elapsed_s, tally)
        metrics = end_to_end(tally, setup)
        notes = []

    print("# env " + json.dumps(environment()))
    print("# workload " + json.dumps({"name": wl.name, "seed": args.seed, **wl.describe()}))
    print(f"# passes {tally.passes}, operations attempted {tally.attempted}, failed {tally.failed}"
          f" (fail_frac {tally.failed / max(tally.attempted, 1):.6g}), worst KKT measure {tally.worst_kkt:.3e}")
    for line in notes + [f"# failure: {err}" for err in tally.errors]:
        print(line)
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit:12s} n={samples}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
