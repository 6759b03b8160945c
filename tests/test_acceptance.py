"""Acceptance gate: each test pins one release criterion at its stated
tolerance and prints a pass/fail line. Run with `pytest tests/test_acceptance.py -s`
to see the lines directly."""

import math
import time

import numpy as np
import pytest

from fbrs import PrimalDualPoint, QpProblem
from fbrs.cli import TRACE_HEADER, main
from fbrs.fb import _coefficients, _evaluate
from fbrs.mpc import double_integrator, run_sequence
from fbrs.newton import (
    SolverConfig,
    Status,
    _merit_gradient,
    fbrs_solve,
    solve_condensed,
)
from fbrs.oracle import (
    random_infeasible_start,
    random_strictly_convex_qp,
    solve_by_enumeration,
)
from fbrs.qpfile import parse_qp, serialize_qp

from conftest import lu_step, tail_pairs

# traces accumulated by the suites; the monotone-descent criterion replays them
_TRACES: list[tuple[float, list]] = []


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def hard_suite():
    """100 strictly convex instances (n=20, q=40) with 5 infeasible starts each."""
    rng = np.random.default_rng(424242)
    suite = []
    for _ in range(100):
        p = random_strictly_convex_qp(20, 40, rng)
        starts = [random_infeasible_start(p, rng) for _ in range(5)]
        suite.append((p, starts))
    return suite


def test_oracle_equivalence():
    rng = np.random.default_rng(1001)
    cfg = SolverConfig(tol=1e-8)
    matches = 0
    tic = time.perf_counter()
    for _ in range(200):
        n, q = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        p = random_strictly_convex_qp(n, q, rng)
        star = solve_by_enumeration(p)
        result = fbrs_solve(p, PrimalDualPoint.zeros(n, q), cfg)
        _TRACES.append((cfg.sigma, result.trace))
        ok_z = np.linalg.norm(result.x.z - star.z) <= 1e-6 * (1 + np.linalg.norm(star.z))
        ok_v = np.linalg.norm(result.x.v - star.v) <= 1e-6 * (1 + np.linalg.norm(star.v))
        matches += result.status == Status.SOLVED and ok_z and ok_v
    elapsed = time.perf_counter() - tic
    ok = matches == 200 and elapsed < 10.0
    assert _report("oracle-equivalence", ok, f"{matches}/200 matched, {elapsed:.2f}s")


def test_global_convergence(hard_suite):
    cfg = SolverConfig(tol=1e-8, max_iters=100)
    solved = 0
    iterations = []
    for p, starts in hard_suite:
        for x0 in starts:
            result = fbrs_solve(p, x0, cfg)
            _TRACES.append((cfg.sigma, result.trace))
            solved += result.status == Status.SOLVED and result.iterations <= 100
            iterations.append(result.iterations)
    assert _report(
        "global-convergence",
        solved == 500,
        f"{solved}/500 solved, iterations mean {np.mean(iterations):.2f},"
        f" median {np.median(iterations):.0f}, max {max(iterations)}",
    )


def test_quadratic_tail_with_unit_steps(hard_suite):
    cfg = SolverConfig(tol=1e-12, max_iters=100)
    solved = 0
    contraction_ok = True
    ratios = []
    unit_steps = tail_steps = 0
    for p, starts in hard_suite:
        for x0 in starts:
            result = fbrs_solve(p, x0, cfg)
            _TRACES.append((cfg.sigma, result.trace))
            solved += result.status == Status.SOLVED
            tail = tail_pairs(result.trace)
            for a, b in tail[-2:]:
                ratio = b.norm_Feps / a.norm_Feps
                ratios.append(ratio)
                contraction_ok &= ratio <= 0.1
            unit_steps += sum(a.t == 1.0 for a, _ in tail)
            tail_steps += len(tail)
    ok = solved == 500 and contraction_ok and unit_steps == tail_steps
    assert _report(
        "quadratic-tail",
        ok,
        f"{solved}/500 solved, contraction median {np.median(ratios):.2e},"
        f" worst {max(ratios):.2e}, unit steps {unit_steps}/{tail_steps}",
    )


def test_design_ablation(monkeypatch):
    # the abstract: "regularization and smoothing are applied to improve the
    # practical performance". Each setting patches the regularization cap
    # delta0 and the smoothing eps (1e-300 stands in for 0, since the FB
    # coefficients divide by r = hypot(hypot(v, y), eps)); a smaller eps
    # only shrinks the gap sqrt(q) eps that the stop certificate allows for
    settings = {
        "shipped": (SolverConfig.delta0, SolverConfig.effective_eps),
        "delta0=0": (0.0, SolverConfig.effective_eps),
        "eps=1e-300": (SolverConfig.delta0, lambda self, q: 1e-300),
        "both": (0.0, lambda self, q: 1e-300),
    }
    pools = {}
    for n, q, count in ((20, 40, 30), (100, 200, 5)):
        pools[n, q] = []
        for i in range(count):
            rng = np.random.default_rng([1, i])
            p = random_strictly_convex_qp(n, q, rng)
            pools[n, q].append((p, random_infeasible_start(p, rng)))
    cfg = SolverConfig(tol=1e-8, max_iters=100)
    rows = {}
    for name, (delta0, effective_eps) in settings.items():
        monkeypatch.setattr(SolverConfig, "delta0", delta0)
        monkeypatch.setattr(SolverConfig, "effective_eps", effective_eps)
        for size, pool in pools.items():
            results = [fbrs_solve(p, x0, cfg) for p, x0 in pool]
            solved = sum(r.status == Status.SOLVED for r in results)
            rows[name, size] = (solved, len(pool), np.mean([r.iterations for r in results]))
    # the paper's claims only: as shipped, both pools are solved, and
    # without regularization the (20, 40) pool loses Solved instances
    shipped_solves = all(rows["shipped", size][0] == len(pool) for size, pool in pools.items())
    ok = shipped_solves and rows["delta0=0", (20, 40)][0] < len(pools[20, 40])
    table = "; ".join(
        f"{name} " + ", ".join(f"{s}/{c} in {m:.1f}" for s, c, m in (rows[name, size] for size in pools))
        for name in settings
    )
    assert _report("design-ablation", ok, f"(20, 40) and (100, 200) solved in mean iterations: {table}")


def test_smoothing_bound():
    rng = np.random.default_rng(2002)
    violations = 0
    worst = -np.inf
    for _ in range(10_000):
        n, q = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        p = random_strictly_convex_qp(n, q, rng)
        x = PrimalDualPoint(5 * rng.standard_normal(n), 5 * rng.standard_normal(q))
        eps = 10.0 ** rng.uniform(-6, 0)
        gap = float(np.linalg.norm(_evaluate(p, x.as_vector(), eps).F - _evaluate(p, x.as_vector(), 0.0).F))
        bound = math.sqrt(p.q) * eps
        worst = max(worst, gap - bound)
        violations += gap > bound + 1e-14
    assert _report(
        "smoothing-bound", violations == 0, f"{violations} violations, worst excess {worst:.2e}"
    )


def test_merit_gradient_identity():
    rng = np.random.default_rng(3003)
    h = 1e-6
    failures = 0
    worst = 0.0
    for _ in range(1000):
        n, q = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        p = random_strictly_convex_qp(n, q, rng)
        x = PrimalDualPoint(2 * rng.standard_normal(n), 2 * rng.standard_normal(q))
        eps = 10.0 ** rng.uniform(-4, 0)
        point = _evaluate(p, x.as_vector(), eps)
        F, y, r = point.F, point.y, point.r
        g = _merit_gradient(p, F, *_coefficients(y, x.v, r, 0.0))
        vec = x.as_vector()
        fd = np.empty_like(g)
        for i in range(n + q):
            e = np.zeros(n + q)
            e[i] = h
            F_up = _evaluate(p, vec + e, eps).F
            F_down = _evaluate(p, vec - e, eps).F
            fd[i] = (0.5 * float(F_up @ F_up) - 0.5 * float(F_down @ F_down)) / (2 * h)
        rel = np.linalg.norm(g - fd) / (1 + np.linalg.norm(g))
        worst = max(worst, rel)
        failures += rel > 1e-5
    assert _report(
        "merit-gradient", failures == 0, f"{failures} failures, worst relative error {worst:.2e}"
    )


def test_solve_path_equivalence():
    rng = np.random.default_rng(4004)
    failures = 0
    mismatches = 0
    worst = 0.0
    for _ in range(1000):
        n, q = int(rng.integers(2, 13)), int(rng.integers(1, 21))
        p = random_strictly_convex_qp(n, q, rng)
        x = PrimalDualPoint(3 * rng.standard_normal(n), 3 * rng.standard_normal(q))
        eps = 10.0 ** rng.uniform(-6, 0)
        delta = 10.0 ** rng.uniform(-10, -2)
        point = _evaluate(p, x.as_vector(), eps)
        F, y, r = point.F, point.y, point.r
        gamma, mu = _coefficients(y, x.v, r, delta)
        try:
            dx_full = lu_step(p, gamma, mu, -F)
            dx_cond = solve_condensed(p, gamma, mu, -F)
        except Exception:
            failures += 1
            continue
        diff = np.linalg.norm(dx_full - dx_cond) / (1 + np.linalg.norm(dx_full))
        worst = max(worst, diff)
        mismatches += diff > 1e-8
    ok = failures == 0 and mismatches == 0
    assert _report(
        "solve-path-equivalence",
        ok,
        f"{failures} factorization failures, {mismatches} mismatches, worst {worst:.2e}",
    )


def test_warmstart_dominance():
    spec = double_integrator()
    cfg = SolverConfig(tol=1e-6)
    tic = time.perf_counter()
    _, cold = run_sequence(spec, 50, "cold", cfg)
    _, warm = run_sequence(spec, 50, "warm", cfg)
    elapsed = time.perf_counter() - tic
    all_solved = all(r.status == "Solved" for r in cold.records + warm.records)
    ratio = warm.mean_iterations / cold.mean_iterations
    ok = all_solved and ratio <= 0.6 and elapsed < 5.0
    assert _report(
        "warmstart-dominance",
        ok,
        f"warm/cold iteration ratio {ratio:.3f} "
        f"({warm.mean_iterations:.2f}/{cold.mean_iterations:.2f}), {elapsed:.2f}s",
    )


def test_monotone_descent_across_suites():
    # a few MPC-sequence traces join the registry so every suite is covered
    spec = double_integrator()
    cfg = SolverConfig(tol=1e-6)
    from fbrs.mpc import condense

    state = spec.x_init
    previous = None
    for _ in range(15):
        qp = condense(spec, state)
        x0 = previous if previous is not None else PrimalDualPoint.zeros(qp.n, qp.q)
        result = fbrs_solve(qp, x0, cfg)
        _TRACES.append((cfg.sigma, result.trace))
        state = spec.Ad @ state + spec.Bd @ result.x.z[: spec.nu]
        previous = result.x

    assert len(_TRACES) >= 1000
    steps_checked = 0
    violations = 0
    for sigma, trace in _TRACES:
        for a, b in zip(trace, trace[1:]):
            theta_a = 0.5 * a.norm_Feps**2
            theta_b = 0.5 * b.norm_Feps**2
            steps_checked += 1
            if not (theta_b < theta_a and theta_b < (1.0 - 2.0 * a.t * sigma) * theta_a):
                violations += 1
    assert _report(
        "monotone-descent",
        violations == 0,
        f"{violations} violations over {steps_checked} recorded steps",
    )


def test_cli_round_trip(tmp_path, capsys):
    source = tmp_path / "toy.qp"
    source.write_text(
        "FBQP 1\nn 1\nq 1\nH\n1.0\nf\n-1.0\nA\n1.0\nb\n0.5\n"
    )
    emitted = tmp_path / "solution.qp"
    trace = tmp_path / "trace.csv"
    code = main(["solve", "--input", str(source), "--output", str(emitted), "--trace", str(trace)])
    capsys.readouterr()
    header_ok = trace.read_text().splitlines()[0] == TRACE_HEADER

    problem, x0 = parse_qp(emitted.read_text())
    reserialized = serialize_qp(problem, x0)
    problem2, x0_2 = parse_qp(reserialized)
    warm = fbrs_solve(problem2, x0_2, SolverConfig(tol=1e-8))
    ok = (
        code == 0
        and header_ok
        and warm.status == Status.SOLVED
        and warm.iterations == 0
    )
    assert _report(
        "cli-round-trip",
        ok,
        f"warmstarted iterations {warm.iterations}, header match {header_ok}",
    )
