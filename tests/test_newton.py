import math

import numpy as np
import pytest

from fbrs import (
    CholeskyFailure,
    InvalidConfig,
    LinesearchError,
    PrimalDualPoint,
    QpProblem,
    SingularSystem,
    Status,
)
from fbrs import newton
from fbrs.fb import residual_map
from fbrs.newton import (
    NewtonSystem,
    SolverConfig,
    assemble_system,
    fbrs_solve,
    kkt_matrix,
    linesearch,
    merit,
    merit_gradient,
    solve_condensed,
    solve_full,
)
from fbrs.oracle import (
    random_infeasible_start,
    random_strictly_convex_qp,
    solve_by_enumeration,
)


# --- configuration ----------------------------------------------------------

def test_config_defaults():
    cfg = SolverConfig()
    assert (cfg.tol, cfg.max_iters) == (1e-8, 30)
    assert (cfg.sigma, cfg.beta, cfg.delta0, cfg.max_backtracks) == (1e-4, 0.7, 1e-8, 40)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(tol=0.0),
        dict(max_iters=0),
        dict(tol=-1e-8),
        dict(tol=math.nan),
        dict(tol=math.inf),
        dict(tol=-math.inf),
        dict(max_iters=-1),
        dict(max_iters=2.5),
        dict(max_iters=math.nan),
        dict(max_iters=math.inf),
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(InvalidConfig):
        SolverConfig(**kwargs)


def test_config_constants_are_not_settings():
    with pytest.raises(TypeError):
        SolverConfig(sigma=0.01)


def test_effective_eps_policies():
    assert SolverConfig(tol=1e-8).effective_eps(4) == pytest.approx(1e-8 / 4.0)
    assert SolverConfig(tol=1e-6).effective_eps(1) == pytest.approx(5e-7)


# --- system assembly --------------------------------------------------------

def test_assemble_frozen_values(qp_1d):
    # independent scripted evaluation of the coefficient and residual formulas
    # at (z, v) = (0, 0), eps = 0.1: y = 0.5, r = sqrt(0.26)
    sys = assemble_system(qp_1d, PrimalDualPoint.zeros(1, 1), 0.1, 0.0)
    assert sys.gamma[0] == pytest.approx(0.01941932430907989, abs=1e-15)
    assert sys.mu[0] == pytest.approx(1.0)
    assert sys.r_s[0] == pytest.approx(1.0)
    assert sys.r_c[0] == pytest.approx(0.009901951359278516, abs=1e-15)


def _qp_1d_root(eps):
    # F_eps = [z - 1 + v; phi_eps(v, 0.5 - z)] vanishes where v = 1 - z and
    # 2 v y = eps^2 with y = 0.5 - z: 2 y^2 + y - eps^2 = 0
    y = 2.0 * eps**2 / (1.0 + math.sqrt(1.0 + 8.0 * eps**2))
    return PrimalDualPoint([0.5 - y], [0.5 + y])


def test_assemble_rhs_vanishes_at_root(qp_1d):
    # at eps = 1 the root is (z, v) = (0, 1), exact in floating point
    sys = assemble_system(qp_1d, PrimalDualPoint([0.0], [1.0]), 1.0, 0.0)
    assert sys.r_s[0] == 0.0 and sys.r_c[0] == 0.0
    for eps in (0.1, 1e-4):
        sys = assemble_system(qp_1d, _qp_1d_root(eps), eps, 0.0)
        assert abs(sys.r_s[0]) <= 1e-15
        assert abs(sys.r_c[0]) <= 1e-15


def test_assemble_delta_shift(qp_1d):
    x = PrimalDualPoint([0.2], [-0.3])
    base = assemble_system(qp_1d, x, 0.1, 0.0)
    reg = assemble_system(qp_1d, x, 0.1, 1e-3)
    assert reg.gamma == pytest.approx(base.gamma + 1e-3)
    assert reg.mu == pytest.approx(base.mu + 1e-3)
    assert np.array_equal(reg.r_s, base.r_s)
    assert np.array_equal(reg.r_c, base.r_c)


def _toy_system(r_s=0.3, r_c=-0.7):
    return NewtonSystem(
        H=np.array([[2.0]]),
        A=np.array([[1.0]]),
        gamma=np.array([1.0]),
        mu=np.array([1.0]),
        r_s=np.array([r_s]),
        r_c=np.array([r_c]),
    )


def test_solve_full_closed_form():
    sys = _toy_system()
    dx, residual = solve_full(sys)
    assert dx[0] == pytest.approx((0.3 - (-0.7)) / 3.0)
    assert dx[1] == pytest.approx((0.3 + 2 * (-0.7)) / 3.0)
    assert residual <= 1e-15


def test_solve_condensed_matches_full_on_toy():
    sys = _toy_system()
    dx_full, _ = solve_full(sys)
    dx_cond, residual = solve_condensed(sys)
    assert dx_cond == pytest.approx(dx_full)
    assert residual <= 1e-14


def test_solve_full_raises_on_singular():
    sys = NewtonSystem(
        H=np.zeros((1, 1)), A=np.zeros((1, 1)),
        gamma=np.ones(1), mu=np.ones(1),
        r_s=np.ones(1), r_c=np.ones(1),
    )
    with pytest.raises(SingularSystem):
        solve_full(sys)


def test_solve_condensed_raises_on_indefinite_schur():
    sys = NewtonSystem(
        H=np.array([[-2.0]]), A=np.array([[1.0]]),
        gamma=np.ones(1), mu=np.ones(1),
        r_s=np.ones(1), r_c=np.ones(1),
    )
    with pytest.raises(CholeskyFailure):
        solve_condensed(sys)
    zero_mu = NewtonSystem(
        H=np.eye(1), A=np.eye(1), gamma=np.ones(1), mu=np.zeros(1),
        r_s=np.ones(1), r_c=np.ones(1),
    )
    with pytest.raises(CholeskyFailure):
        solve_condensed(zero_mu)


def test_full_lu_accuracy_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n, q = int(rng.integers(2, 10)), int(rng.integers(1, 15))
        p = random_strictly_convex_qp(n, q, rng)
        x = PrimalDualPoint(rng.standard_normal(n), rng.standard_normal(q))
        sys = assemble_system(p, x, 0.1, 1e-8)
        _, residual = solve_full(sys)
        assert residual <= 1e-10


def test_jacobian_nonsingular_under_a3():
    # unregularized systems (delta = 0) stay solvable for any eps > 0
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n, q = int(rng.integers(1, 8)), int(rng.integers(1, 12))
        p = random_strictly_convex_qp(n, q, rng)
        x = PrimalDualPoint(3 * rng.standard_normal(n), 3 * rng.standard_normal(q))
        eps = 10.0 ** rng.uniform(-3, 0)
        _, residual = solve_full(assemble_system(p, x, eps, 0.0))
        assert residual <= 1e-10


def test_condensed_full_agreement_random():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n, q = int(rng.integers(2, 10)), int(rng.integers(1, 8))  # includes q < n
        p = random_strictly_convex_qp(n, q, rng)
        x = PrimalDualPoint(3 * rng.standard_normal(n), 3 * rng.standard_normal(q))
        sys = assemble_system(p, x, 10.0 ** rng.uniform(-6, 0), 10.0 ** rng.uniform(-10, -2))
        dx_full, _ = solve_full(sys)
        dx_cond, _ = solve_condensed(sys)
        assert np.linalg.norm(dx_full - dx_cond) <= 1e-8 * (1 + np.linalg.norm(dx_full))


def test_condensed_survives_tiny_mu():
    # strongly active rows: y_i = 0, v_i large, so mu_i collapses to delta
    rng = np.random.default_rng(8)
    p = random_strictly_convex_qp(4, 6, rng)
    z = np.zeros(4)
    p = QpProblem(p.H, p.f, p.A, p.A @ z)  # all slacks zero at z
    sys = assemble_system(p, PrimalDualPoint(z, 1e4 * np.ones(6)), 1e-8, 1e-8)
    assert sys.mu.min() <= 1e-7
    dx, residual = solve_condensed(sys)
    assert np.all(np.isfinite(dx))
    assert residual <= 1e-6


# --- merit function and linesearch -----------------------------------------

def test_merit_basics(qp_1d):
    star = PrimalDualPoint([0.5], [0.5])
    assert merit(qp_1d, star, 0.0) <= 1e-30
    x = PrimalDualPoint([0.1], [-0.4])
    r = residual_map(qp_1d, x, 0.05)
    assert merit(qp_1d, x, 0.05) == pytest.approx(0.5 * r @ r)
    assert merit(qp_1d, x, 0.05) >= 0.0


def test_merit_gradient_zero_at_root(qp_1d):
    for eps in (1.0, 0.1, 1e-4):
        g = merit_gradient(qp_1d, _qp_1d_root(eps), eps)
        assert np.linalg.norm(g) <= 1e-14


def test_merit_gradient_frozen_1d(qp_1d):
    # independent evaluation: V = [[1, 1], [-gamma, mu]], F = (-1, phi)
    x = PrimalDualPoint.zeros(1, 1)
    gamma = 1.0 - 0.5 / math.sqrt(0.26)
    phi = 0.5 - math.sqrt(0.26)
    expected = np.array([1.0 * -1.0 + (-gamma) * phi, 1.0 * -1.0 + 1.0 * phi])
    assert merit_gradient(qp_1d, x, 0.1) == pytest.approx(expected, abs=1e-15)


def test_merit_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n, q = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        p = random_strictly_convex_qp(n, q, rng)
        x = PrimalDualPoint(2 * rng.standard_normal(n), 2 * rng.standard_normal(q))
        eps = 10.0 ** rng.uniform(-4, 0)
        g = merit_gradient(p, x, eps)
        vec, h = x.as_vector(), 1e-6
        fd = np.empty_like(g)
        for i in range(n + q):
            e = np.zeros(n + q)
            e[i] = h
            fd[i] = (
                merit(p, PrimalDualPoint.from_vector(vec + e, n), eps)
                - merit(p, PrimalDualPoint.from_vector(vec - e, n), eps)
            ) / (2 * h)
        assert np.linalg.norm(g - fd) <= 1e-5 * (1 + np.linalg.norm(g))


def test_linesearch_unit_step_near_solution(qp_1d):
    x = PrimalDualPoint([0.5 + 1e-5], [0.5 - 1e-5])
    eps = 1e-9
    dx, _ = solve_full(assemble_system(qp_1d, x, eps, 0.0))
    t, backtracks, *_ = linesearch(qp_1d, x.z, x.v, residual_map(qp_1d, x, eps), dx, eps, 1e-4, 0.7, 40)
    assert t == 1.0
    assert backtracks == 0


def test_linesearch_newton_step_decreases_merit():
    rng = np.random.default_rng(12)
    p = random_strictly_convex_qp(4, 6, rng)
    x = PrimalDualPoint(rng.standard_normal(4), rng.standard_normal(6))
    dx, _ = solve_full(assemble_system(p, x, 0.01, 1e-8))
    _, _, z, v, *_ = linesearch(p, x.z, x.v, residual_map(p, x, 0.01), dx, 0.01, 1e-4, 0.7, 40)
    assert merit(p, PrimalDualPoint(z, v), 0.01) < merit(p, x, 0.01)


def test_linesearch_backtracks_on_overshoot(qp_1d):
    x = PrimalDualPoint([100.0], [50.0])
    dx, _ = solve_full(assemble_system(qp_1d, x, 0.1, 0.0))
    t, backtracks, *_ = linesearch(qp_1d, x.z, x.v, residual_map(qp_1d, x, 0.1), 3.0 * dx, 0.1, 0.499, 0.7, 40)
    assert backtracks >= 1
    assert t == pytest.approx(0.7**backtracks)


def test_linesearch_fails_on_ascent_direction(qp_1d):
    x = PrimalDualPoint([100.0], [50.0])
    up = merit_gradient(qp_1d, x, 0.1)
    with pytest.raises(LinesearchError):
        linesearch(qp_1d, x.z, x.v, residual_map(qp_1d, x, 0.1), up, 0.1, 1e-4, 0.7, 10)


# --- the full solve ---------------------------------------------------------

def test_solve_1d(qp_1d):
    result = fbrs_solve(qp_1d, PrimalDualPoint.zeros(1, 1), SolverConfig(tol=1e-8))
    assert result.status == Status.SOLVED
    assert result.iterations <= 10
    assert result.x.z == pytest.approx([0.5], abs=1e-7)
    assert result.x.v == pytest.approx([0.5], abs=1e-7)


def test_solve_box(qp_box_2d):
    result = fbrs_solve(qp_box_2d, PrimalDualPoint.zeros(2, 2))
    assert result.status == Status.SOLVED
    assert result.x.z == pytest.approx([1.0, 1.0], abs=1e-7)
    assert result.x.v == pytest.approx([1.0, 1.0], abs=1e-7)


def test_solve_interior_from_infeasible_start(qp_interior):
    result = fbrs_solve(qp_interior, PrimalDualPoint([5.0], [3.0]))
    assert result.status == Status.SOLVED
    assert result.x.z == pytest.approx([0.0], abs=1e-7)
    assert result.x.v == pytest.approx([0.0], abs=1e-7)


def test_solve_paths_agree(monkeypatch):
    # when every Cholesky factorization fails, fbrs_solve falls back to
    # solve_full once per Newton step (none needs recovery here) and reaches
    # the same point as the condensed step and the enumeration oracle
    rng = np.random.default_rng(22)
    p = random_strictly_convex_qp(4, 8, rng)
    x0 = random_infeasible_start(p, rng)
    cfg = SolverConfig(tol=1e-10)
    condensed = fbrs_solve(p, x0, cfg)
    calls = []

    def fail_cholesky(sys):
        raise CholeskyFailure("forced")

    def counting_solve_full(sys):
        calls.append(sys)
        return solve_full(sys)

    monkeypatch.setattr(newton, "solve_condensed", fail_cholesky)
    monkeypatch.setattr(newton, "solve_full", counting_solve_full)
    full = fbrs_solve(p, x0, cfg)
    assert condensed.status == full.status == Status.SOLVED
    assert full.iterations > 0 and len(calls) == full.iterations
    star = solve_by_enumeration(p)
    for result in (condensed, full):
        assert result.x.z == pytest.approx(star.z, abs=1e-8)
        assert result.x.v == pytest.approx(star.v, abs=1e-8)


def test_max_iters_returns_best_iterate(qp_1d):
    result = fbrs_solve(qp_1d, PrimalDualPoint.zeros(1, 1), SolverConfig(max_iters=2))
    assert result.status == Status.MAX_ITERS
    assert result.iterations == 2
    assert len(result.trace) == 3
    # still made progress toward the solution
    assert result.final_norm_F0 < result.trace[0].norm_F0


def test_warmstart_at_solution_takes_zero_iterations(qp_1d):
    first = fbrs_solve(qp_1d, PrimalDualPoint.zeros(1, 1))
    again = fbrs_solve(qp_1d, first.x)
    assert again.status == Status.SOLVED
    assert again.iterations == 0
    assert len(again.trace) == 1


def test_non_finite_step_returns_invalid_problem(qp_1d):
    # at this start the residual overflows and the Newton direction is not
    # finite: the solve reports it and keeps the last finite iterate
    x0 = PrimalDualPoint([1.7e308], [1.7e308])
    with np.errstate(over="ignore", invalid="ignore"):
        result = fbrs_solve(qp_1d, x0)
    assert result.status == Status.INVALID_PROBLEM
    assert result.iterations == 0
    assert np.array_equal(result.x.z, x0.z) and np.array_equal(result.x.v, x0.v)


def test_trace_shape_and_delta_monotonicity():
    rng = np.random.default_rng(14)
    for _ in range(20):
        p = random_strictly_convex_qp(4, 8, rng)
        x0 = random_infeasible_start(p, rng)
        result = fbrs_solve(p, x0, SolverConfig(tol=1e-10, max_iters=100))
        assert result.status == Status.SOLVED
        assert len(result.trace) == result.iterations + 1
        deltas = [rec.delta for rec in result.trace]
        assert all(a >= b for a, b in zip(deltas, deltas[1:]))
        for rec in result.trace:
            assert rec.delta <= rec.norm_Feps * (1 + 1e-15)
            if rec.t > 0:
                assert rec.linear_solve_residual <= 1e-6


def test_monotone_armijo_descent_along_trace():
    rng = np.random.default_rng(15)
    sigma = 1e-4
    for _ in range(20):
        p = random_strictly_convex_qp(5, 10, rng)
        x0 = random_infeasible_start(p, rng)
        result = fbrs_solve(p, x0, SolverConfig(tol=1e-8, max_iters=100))
        assert result.status == Status.SOLVED
        for a, b in zip(result.trace, result.trace[1:]):
            theta_a, theta_b = 0.5 * a.norm_Feps**2, 0.5 * b.norm_Feps**2
            assert theta_b < (1.0 - 2.0 * a.t * sigma) * theta_a


def test_recovery_keeps_descent_and_shrinks_delta(monkeypatch):
    # one backtrack per linesearch forces the delta shrinks and the
    # merit-gradient fallback, which the fixed constants rarely reach
    monkeypatch.setattr(SolverConfig, "max_backtracks", 1)
    rng = np.random.default_rng(3)
    cfg = SolverConfig()
    fallbacks = 0
    for _ in range(100):
        p = random_strictly_convex_qp(6, 12, rng)
        result = fbrs_solve(p, random_infeasible_start(p, rng), cfg)
        assert result.status in (Status.SOLVED, Status.LINESEARCH_FAILURE)
        for a, b in zip(result.trace, result.trace[1:]):
            theta_a, theta_b = 0.5 * a.norm_Feps**2, 0.5 * b.norm_Feps**2
            assert theta_b < (1.0 - 2.0 * a.t * cfg.sigma) * theta_a
            assert b.delta <= a.delta
        # a gradient step is the only accepted step without a linear solve
        fallbacks += any(rec.t > 0 and rec.linear_solve_residual == 0.0 for rec in result.trace)
    assert fallbacks >= 1


def test_termination_sandwich():
    rng = np.random.default_rng(16)
    for _ in range(20):
        p = random_strictly_convex_qp(3, 6, rng)
        result = fbrs_solve(p, PrimalDualPoint.zeros(3, 6), SolverConfig(tol=1e-8))
        assert result.status == Status.SOLVED
        assert result.final_norm_F0 <= 1e-8
        eps = result.trace[-1].eps
        assert result.final_norm_F0 <= result.final_norm_Feps + math.sqrt(p.q) * eps + 1e-14


def test_quadratic_tail_and_unit_steps():
    rng = np.random.default_rng(18)
    for _ in range(20):
        p = random_strictly_convex_qp(6, 12, rng)
        x0 = random_infeasible_start(p, rng)
        result = fbrs_solve(p, x0, SolverConfig(tol=1e-12, max_iters=100))
        assert result.status == Status.SOLVED
        pairs = [
            (a, b)
            for a, b in zip(result.trace, result.trace[1:])
            if a.t > 0 and a.norm_Feps <= 1e-3
        ]
        for a, b in pairs[-2:]:
            assert b.norm_Feps <= 0.1 * a.norm_Feps
        assert all(a.t == 1.0 for a, _ in pairs)


def test_global_convergence_from_many_starts():
    rng = np.random.default_rng(19)
    cfg = SolverConfig(tol=1e-8, max_iters=100)
    for _ in range(4):
        p = random_strictly_convex_qp(6, 12, rng)
        for _ in range(50):
            result = fbrs_solve(p, random_infeasible_start(p, rng), cfg)
            assert result.status == Status.SOLVED


def test_solver_matches_oracle_and_warmstart_helps():
    rng = np.random.default_rng(21)
    cold_iters, warm_iters = [], []
    for _ in range(100):
        n, q = int(rng.integers(2, 5)), int(rng.integers(2, 9))
        p = random_strictly_convex_qp(n, q, rng)
        base = fbrs_solve(p, PrimalDualPoint.zeros(n, q))
        star = solve_by_enumeration(p)
        assert np.linalg.norm(base.x.z - star.z) <= 1e-6 * (1 + np.linalg.norm(star.z))
        perturbed = QpProblem(p.H, p.f, p.A, p.b + 1e-3 * rng.standard_normal(q))
        warm = fbrs_solve(perturbed, base.x)
        cold = fbrs_solve(perturbed, PrimalDualPoint.zeros(n, q))
        assert warm.status == Status.SOLVED and cold.status == Status.SOLVED
        warm_iters.append(warm.iterations)
        cold_iters.append(cold.iterations)
    assert np.mean(warm_iters) < np.mean(cold_iters)
