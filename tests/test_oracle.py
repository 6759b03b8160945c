import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from fbrs import (
    DegenerateKkt,
    EnumerationTooLarge,
    InfeasibleProblem,
    PrimalDualPoint,
    QpProblem,
    SolverConfig,
    Status,
    UnboundedProblem,
    fbrs_solve,
    validate_problem,
)
from fbrs.oracle import (
    random_infeasible_start,
    random_strictly_convex_qp,
    solve_by_enumeration,
    verify_kkt,
)

ROOT = Path(__file__).resolve().parents[1]


def test_verify_kkt_passes_at_solution(qp_1d):
    report = verify_kkt(qp_1d, PrimalDualPoint([0.5], [0.5]), 1e-10)
    assert report.passed
    assert report.stationarity_norm <= 1e-15


def test_verify_kkt_stationarity_failure(qp_1d):
    report = verify_kkt(qp_1d, PrimalDualPoint([0.0], [0.0]), 1e-10)
    assert not report.passed
    assert report.stationarity_norm == pytest.approx(1.0)


def test_verify_kkt_flags_negative_dual(qp_box_2d):
    report = verify_kkt(qp_box_2d, PrimalDualPoint([1.0, 1.0], [1.0, -0.5]), 1e-10)
    assert report.dual_infeasibility == pytest.approx(0.5)
    assert not report.passed


def test_verify_kkt_flags_primal_violation(qp_1d):
    report = verify_kkt(qp_1d, PrimalDualPoint([2.0], [0.0]), 1e-10)
    assert report.primal_infeasibility == pytest.approx(1.5)


def test_verify_kkt_overflow_reads_inf_without_a_warning():
    p = QpProblem([[1.0]], [-1.0], [[1.0]], [0.5])
    report = verify_kkt(p, PrimalDualPoint([1e200], [1e200]), 1e-6)
    assert report.stationarity_norm == np.inf
    assert report.complementarity == np.inf
    assert not report.passed


def test_verify_kkt_complementarity_is_unscaled():
    # the solve meets ||F_0|| <= 1e-8, but the inactive row's slack of 1e8
    # times its multiplier of about -1e-13 fails the 1e-6 complementarity check
    p = QpProblem([[1.0]], [-1.0], [[1.0], [1.0]], [0.5, 1e8])
    result = fbrs_solve(p, PrimalDualPoint([3.0], [-1.0, 2.0]), SolverConfig(tol=1e-8))
    assert result.status == Status.SOLVED and result.final_norm_F0 <= 1e-8
    report = verify_kkt(p, result.x, 1e-6)
    assert report.stationarity_norm <= 1e-6 and report.dual_infeasibility <= 1e-6
    assert report.complementarity > 1e-6
    assert not report.passed


def test_enumeration_1d(qp_1d):
    star = solve_by_enumeration(qp_1d)
    assert star.z == pytest.approx([0.5])
    assert star.v == pytest.approx([0.5])


def test_enumeration_box(qp_box_2d):
    star = solve_by_enumeration(qp_box_2d)
    assert star.z == pytest.approx([1.0, 1.0])
    assert star.v == pytest.approx([1.0, 1.0])


def test_enumeration_interior(qp_interior):
    star = solve_by_enumeration(qp_interior)
    assert star.z == pytest.approx([0.0])
    assert star.v == pytest.approx([0.0])


def test_enumeration_budget():
    with pytest.raises(EnumerationTooLarge):
        solve_by_enumeration(QpProblem(np.eye(9), np.zeros(9), np.ones((1, 9)), [1.0]))
    with pytest.raises(EnumerationTooLarge):
        solve_by_enumeration(
            QpProblem(np.eye(2), np.zeros(2), np.ones((17, 2)), np.ones(17))
        )


def test_enumeration_infeasible():
    # z <= 0 and z >= 1 cannot both hold
    p = QpProblem([[1.0]], [0.0], [[1.0], [-1.0]], [0.0, -1.0])
    with pytest.raises(InfeasibleProblem):
        solve_by_enumeration(p)


def test_enumeration_unbounded():
    # minimize z subject to z <= 0 with no curvature
    p = QpProblem([[0.0]], [1.0], [[1.0]], [0.0])
    with pytest.raises(UnboundedProblem):
        solve_by_enumeration(p)


def test_enumeration_degenerate():
    # zero Hessian and a zero constraint row leave every bordered system singular
    p = QpProblem([[0.0]], [1.0], [[0.0]], [1.0])
    with pytest.raises(DegenerateKkt):
        solve_by_enumeration(p)


def test_enumeration_is_invariant_under_uniform_scaling():
    # scaling H, f, A and b by one factor leaves z and v unchanged; an absolute
    # feasibility test rejected the true active set of most of these at 1e7
    # and 1e8 and reported them unbounded
    for seed in range(20):
        p = random_strictly_convex_qp(4, 8, np.random.default_rng(seed))
        star = solve_by_enumeration(p)
        for s in (1e6, 1e7, 1e8):
            scaled = solve_by_enumeration(QpProblem(s * p.H, s * p.f, s * p.A, s * p.b))
            assert scaled.z == pytest.approx(star.z, rel=1e-12, abs=1e-12)
            assert scaled.v == pytest.approx(star.v, rel=1e-12, abs=1e-12)


def test_oracle_outputs_self_consistent():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n, q = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        p = random_strictly_convex_qp(n, q, rng)
        star = solve_by_enumeration(p)
        assert verify_kkt(p, star, 1e-8).passed


def test_generator_instances_satisfy_assumptions():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n, q = int(rng.integers(1, 8)), int(rng.integers(1, 12))
        p = random_strictly_convex_qp(n, q, rng)
        assert np.min(np.linalg.eigvalsh(p.H)) >= 1e-2 - 1e-12
        assert validate_problem(p, 1e-10).passed


def test_infeasible_start_is_infeasible():
    rng = np.random.default_rng(5)
    p = random_strictly_convex_qp(3, 6, rng)
    x0 = random_infeasible_start(p, rng)
    assert np.max(p.A @ x0.z - p.b) > 0


def test_import_leaves_scipy_optimize_unloaded_until_the_lp_runs():
    # a fresh interpreter: other test modules load scipy.optimize into this one
    child = textwrap.dedent(
        """
        import json, sys
        import fbrs, fbrs.cli
        from fbrs.oracle import solve_by_enumeration
        heavy = ("scipy.optimize", "scipy.sparse", "scipy.special")
        at_import = [m for m in heavy if m in sys.modules]
        try:
            solve_by_enumeration(fbrs.QpProblem([[1.0]], [0.0], [[1.0], [-1.0]], [0.0, -1.0]))
            outcome = "solved"
        except fbrs.InfeasibleProblem:
            outcome = "infeasible"
        print(json.dumps([at_import, outcome, "scipy.optimize" in sys.modules]))
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    at_import, outcome, lp_loaded = json.loads(proc.stdout)
    assert at_import == []
    assert outcome == "infeasible"  # z <= 0 and z >= 1
    assert lp_loaded
