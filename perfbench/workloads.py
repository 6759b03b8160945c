"""The benchmark's workloads and the loops that time them.

Every workload is a fixed pool of instances, generated once and kept for
later passes. QP instance i is drawn from `numpy.random.default_rng([seed, i])`,
so it is the same on every pass and in every process; `mpc-warm` repeats the
mass-spring chain's own scenario. A run cycles through the pool until the time
budget is spent and always completes the first pass, over which
`iterations.mean` is taken, so it is exact for a given seed. The solver sees only the generated
`QpProblem` and start point (or the MPC spec).
"""

from __future__ import annotations

import dataclasses
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from fbrs import mpc, newton, oracle
from fbrs.errors import MpcSequenceError
from fbrs.problem import QpProblem

from tracing import Tracer, installed

KKT_TOL = 1e-6


@dataclass(frozen=True)
class QpWorkload:
    """Random strictly convex QPs solved from random infeasible starts."""

    name: str
    n: int
    q: int
    pool: int
    config: dict = field(default_factory=lambda: {"tol": 1e-8, "max_iters": 100})

    def instance(self, seed: int, i: int):
        rng = np.random.default_rng([seed, i])
        p = oracle.random_strictly_convex_qp(self.n, self.q, rng)
        return p, oracle.random_infeasible_start(p, rng)

    def warmup(self, seed: int) -> None:
        p, x0 = self.instance(seed, 0)
        newton.fbrs_solve(p, x0, newton.SolverConfig(**self.config))

    def describe(self) -> dict:
        return {
            "generator": f"oracle.random_strictly_convex_qp(n={self.n}, q={self.q}, rng)"
            " + oracle.random_infeasible_start(p, rng)",
            "rng": "numpy.random.default_rng([seed, i]) for instance i",
            "shape": {"n": self.n, "q": self.q},
            "pool": self.pool,
            "config": f"SolverConfig({', '.join(f'{k}={v!r}' for k, v in self.config.items())})",
        }


@dataclass(frozen=True)
class MpcWorkload:
    """Warm-started closed-loop episodes on the mass-spring chain.

    Every episode is the chain's own scenario, from its initial state
    (+2, 0, -2, 0, 0, 0), so the seed does not enter. Seeded starting states
    were tried: the mix of early, many-iteration solves then changed with the
    seed by enough to move p90 by 10-20% and `iterations.mean` by 4-9%
    between seeds, while timing every one of their solves often enough left
    too few passes per solve to filter the machine's slow phases.
    """

    name: str
    horizon: int
    steps: int
    pool: int
    config: dict = field(default_factory=lambda: {"tol": 1e-6})

    def instance(self, seed: int, i: int) -> mpc.LtiMpcSpec:
        return mpc.mass_spring_chain(horizon=self.horizon)

    def warmup(self, seed: int) -> None:
        mpc.run_sequence(self.instance(seed, 0), 1, "warm", newton.SolverConfig(**self.config))

    def describe(self) -> dict:
        return {
            "generator": f"mpc.mass_spring_chain(horizon={self.horizon})",
            "rng": "none: the chain's own initial state in every episode",
            "shape": {"n": 2 * self.horizon, "q": 4 * self.horizon},
            "pool": self.pool,
            "episode": f"mpc.run_sequence(spec, {self.steps}, 'warm', cfg)",
            "config": f"SolverConfig({', '.join(f'{k}={v!r}' for k, v in self.config.items())})",
        }


# Why each was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "qp-small": QpWorkload("qp-small", n=20, q=40, pool=100),
    "qp-large": QpWorkload("qp-large", n=300, q=600, pool=25),
    "mpc-warm": MpcWorkload("mpc-warm", horizon=40, steps=50, pool=1),
}

# Tiny sizes for the benchmark's own smoke test.
SMOKE = {
    "qp-small": dataclasses.replace(WORKLOADS["qp-small"], n=6, q=12, pool=6),
    "qp-large": dataclasses.replace(WORKLOADS["qp-large"], n=30, q=60, pool=3),
    "mpc-warm": dataclasses.replace(WORKLOADS["mpc-warm"], horizon=6, steps=8, pool=1),
}


@dataclass
class Tally:
    """Samples and outcomes of one run.

    Times are kept per operation (a QP of the pool, or one step of an episode)
    as the fastest of the run's passes, as `timeit` does: exogenous slow
    phases of a shared machine, which last seconds and only ever slow a solve,
    then move the reported percentiles far less than they would move raw
    samples. `traced_s` holds the traced twins (traced runs only).
    `iterations` covers the first pass over the pool, which every later pass
    repeats. `kept` holds the pool's instances.
    """

    passes: int = 0
    cursor: int = 0
    elapsed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    solve_s: dict = field(default_factory=dict)
    step_s: dict = field(default_factory=dict)
    traced_s: dict = field(default_factory=dict)
    iterations: list = field(default_factory=list)
    kept: dict = field(default_factory=dict)
    traced_iterations: int = 0
    traced_solves: int = 0
    shape: tuple = (0, 0)
    worst_kkt: float = 0.0
    errors: list = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)

    def check(self, p: QpProblem, result) -> None:
        """Count a non-Solved status or a point failing verify_kkt as a failure."""
        if result.status is not newton.Status.SOLVED:
            self.fail(f"status {result.status.value}")
            return
        rep = oracle.verify_kkt(p, result.x, KKT_TOL)
        worst = max(rep.stationarity_norm, rep.primal_infeasibility, rep.dual_infeasibility, rep.complementarity)
        self.worst_kkt = max(self.worst_kkt, worst)
        if not rep.passed:
            self.fail(f"verify_kkt failed: worst measure {worst:.3e}")


def _keep_fastest(times: dict, key, seconds: float) -> None:
    times[key] = min(seconds, times.get(key, math.inf))


def run(wl, seed: int, seconds: float, tally: Tally, tracer: Tracer | None = None) -> None:
    """Cycle through the pool, resuming where the last call on `tally` stopped,
    until `seconds` have elapsed; stops between operations, but never before
    the first pass is complete. The time spent is added to `tally.elapsed_s`.

    With a tracer, each operation runs untraced and then again traced, so the
    tracing overhead is measured on identical inputs.
    """
    once = _qp_once if isinstance(wl, QpWorkload) else _mpc_once
    start = time.perf_counter()
    while tally.passes == 0 or time.perf_counter() - start < seconds:
        i = tally.cursor
        if i not in tally.kept:
            tally.kept[i] = wl.instance(seed, i)
        item = tally.kept[i]
        once(wl, i, item, tally, None)
        if tracer is not None:
            once(wl, i, item, tally, tracer)
        tally.cursor = (i + 1) % wl.pool
        tally.passes += tally.cursor == 0
    tally.elapsed_s += time.perf_counter() - start


def _qp_once(wl: QpWorkload, i: int, item, tally: Tally, tracer: Tracer | None) -> None:
    p, x0 = item
    cfg = newton.SolverConfig(**wl.config)
    tally.attempted += 1
    tally.shape = (p.n, p.q)
    try:
        if tracer is None:
            t0 = time.perf_counter()
            problem = QpProblem(p.H, p.f, p.A, p.b)
            t1 = time.perf_counter()
            result = newton.fbrs_solve(problem, x0, cfg)
            t2 = time.perf_counter()
            _keep_fastest(tally.step_s, i, t2 - t0)
            _keep_fastest(tally.solve_s, i, t2 - t1)
            if tally.passes == 0:
                tally.iterations.append(result.iterations)
        else:
            problem = p
            with installed(tracer):
                t1 = time.perf_counter()
                result = tracer.call("fbrs_solve", newton.fbrs_solve, problem, x0, cfg)
                t2 = time.perf_counter()
            _keep_fastest(tally.traced_s, i, t2 - t1)
            tally.traced_solves += 1
            tally.traced_iterations += result.iterations
    except Exception as exc:  # any exception is a failed operation, not a crash
        tally.fail(f"{type(exc).__name__}: {exc}")
        return
    tally.check(problem, result)


def _mpc_once(wl: MpcWorkload, i: int, spec, tally: Tally, tracer: Tracer | None) -> None:
    """One closed-loop episode. A pass-through wrapper on `fbrs.mpc.fbrs_solve`
    keeps each (QP, result) pair for verify_kkt and the time each solve
    returned, which splits the episode into steps: step k runs from the return
    of solve k-1 (from the start, for k = 0) to the return of solve k, so it
    covers advancing the state, condensing and solving; the last step also
    takes the tail of `run_sequence`. The steps add up to its wall time."""
    cfg = newton.SolverConfig(**wl.config)
    captured = []
    returned = []
    with installed(tracer) if tracer is not None else nullcontext():
        solve = mpc.fbrs_solve

        def capturing(qp, x0, c):
            result = solve(qp, x0, c)
            returned.append(time.perf_counter())
            captured.append((qp, result))
            return result

        mpc.fbrs_solve = capturing
        try:
            t0 = time.perf_counter()
            if tracer is None:
                _, stats = mpc.run_sequence(spec, wl.steps, "warm", cfg)
            else:
                _, stats = tracer.call("run_sequence", mpc.run_sequence, spec, wl.steps, "warm", cfg)
            t1 = time.perf_counter()
        except MpcSequenceError as exc:
            tally.attempted += exc.step + 1
            tally.fail(f"MpcSequenceError: {exc}")
            return
        except Exception as exc:  # any exception is a failed operation, not a crash
            tally.attempted += max(1, len(captured))
            tally.fail(f"{type(exc).__name__}: {exc}")
            return
        finally:
            mpc.fbrs_solve = solve
    tally.attempted += len(stats.records)
    if tracer is None:
        bounds = [t0] + returned[:-1] + [t1]
        for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
            _keep_fastest(tally.step_s, (i, k), b - a)
        for r in stats.records:
            _keep_fastest(tally.solve_s, (i, r.step), r.solve_time)
        if tally.passes == 0:
            tally.iterations.extend(r.iterations for r in stats.records)
    else:
        for r in stats.records:
            _keep_fastest(tally.traced_s, (i, r.step), r.solve_time)
        tally.traced_solves += len(stats.records)
        tally.traced_iterations += sum(r.iterations for r in stats.records)
    if len(captured) != len(stats.records):
        tally.fail(f"captured {len(captured)} solves for {len(stats.records)} steps")
    for qp, result in captured:
        tally.shape = (qp.n, qp.q)
        tally.check(qp, result)
