import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linprog

from fbrs import (
    InvalidConfig,
    PrimalDualPoint,
    QpProblem,
    Status,
    objective,
    validate_problem,
)
from fbrs import mass_spring_chain, mpc, newton, run_sequence
from fbrs.fb import _coefficients, _evaluate
from fbrs.newton import (
    SolverConfig,
    _merit_gradient,
    fbrs_solve,
    linesearch,
    solve_condensed,
)
from fbrs.oracle import (
    random_infeasible_start,
    random_strictly_convex_qp,
    solve_by_enumeration,
    verify_kkt,
)
from fbrs.problem import _box_solve

from conftest import kkt_matrix, lu_step, tail_pairs


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
        dict(max_iters=True),
        dict(tol=True),
        dict(tol="1e-8"),
        dict(tol=10**400),
        dict(tol=10**5000),
        dict(max_iters=-10**5000),
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(InvalidConfig, match=next(iter(kwargs))):
        SolverConfig(**kwargs)


@pytest.mark.parametrize("cfg", [{"tol": 1e-8}, {}, 1e-8], ids=["dict", "empty-dict", "float"])
def test_solve_rejects_a_config_that_is_not_solver_config(qp_1d, cfg):
    with pytest.raises(InvalidConfig, match="cfg must be a SolverConfig"):
        fbrs_solve(qp_1d, PrimalDualPoint.zeros(1, 1), cfg)


def test_config_constants_are_not_settings():
    with pytest.raises(TypeError):
        SolverConfig(sigma=0.01)


def test_effective_eps_policies():
    assert SolverConfig(tol=1e-8).effective_eps(4) == pytest.approx(1e-8 / 4.0)
    assert SolverConfig(tol=1e-6).effective_eps(1) == pytest.approx(5e-7)


# --- the Newton system at a point -------------------------------------------

def _system(p, x, eps, delta):
    # the Newton system the solve loop builds at x: (gamma, mu, rhs = -F_eps)
    point = _evaluate(p, x.as_vector(), eps)
    return (*_coefficients(point.y, x.v, point.r, delta), -point.F)


def _theta(p, z, v, eps):
    # the merit 0.5 ||F_eps||^2 at (z, v)
    return 0.5 * _evaluate(p, np.concatenate([z, v]), eps).ff


def _gradient(p, x, eps):
    # grad theta_eps at x, as the loop's merit-gradient fallback forms it
    point = _evaluate(p, x.as_vector(), eps)
    return _merit_gradient(p, point.F, *_coefficients(point.y, x.v, point.r, 0.0))


def test_system_frozen_values(qp_1d):
    # independent scripted evaluation of the coefficient and residual formulas
    # at (z, v) = (0, 0), eps = 0.1: y = 0.5, r = sqrt(0.26)
    gamma, mu, rhs = _system(qp_1d, PrimalDualPoint.zeros(1, 1), 0.1, 0.0)
    assert gamma[0] == pytest.approx(0.01941932430907989, abs=1e-15)
    assert mu[0] == pytest.approx(1.0)
    assert rhs[0] == pytest.approx(1.0)
    assert rhs[1] == pytest.approx(0.009901951359278516, abs=1e-15)


def _qp_1d_root(eps):
    # F_eps = [z - 1 + v; phi_eps(v, 0.5 - z)] vanishes where v = 1 - z and
    # 2 v y = eps^2 with y = 0.5 - z: 2 y^2 + y - eps^2 = 0
    y = 2.0 * eps**2 / (1.0 + math.sqrt(1.0 + 8.0 * eps**2))
    return PrimalDualPoint([0.5 - y], [0.5 + y])


def test_system_rhs_vanishes_at_root(qp_1d):
    # at eps = 1 the root is (z, v) = (0, 1), exact in floating point
    rhs = _system(qp_1d, PrimalDualPoint([0.0], [1.0]), 1.0, 0.0)[2]
    assert rhs[0] == 0.0 and rhs[1] == 0.0
    for eps in (0.1, 1e-4):
        rhs = _system(qp_1d, _qp_1d_root(eps), eps, 0.0)[2]
        assert abs(rhs[0]) <= 1e-15
        assert abs(rhs[1]) <= 1e-15


def test_system_delta_shift(qp_1d):
    x = PrimalDualPoint([0.2], [-0.3])
    base = _system(qp_1d, x, 0.1, 0.0)
    reg = _system(qp_1d, x, 0.1, 1e-3)
    assert reg[0] == pytest.approx(base[0] + 1e-3)
    assert reg[1] == pytest.approx(base[1] + 1e-3)
    assert np.array_equal(reg[2], base[2])


def _toy_system(r_s=0.3, r_c=-0.7):
    # H = 2, A = 1, gamma = mu = 1; f and b do not enter the linear solve
    p = QpProblem([[2.0]], [0.0], [[1.0]], [0.0])
    return p, np.array([1.0]), np.array([1.0]), np.array([r_s, r_c])


def _solve_residual(p, gamma, mu, rhs, dx):
    # relative residual ||K dx - rhs|| / (1 + ||rhs||) of a linear solve
    return np.linalg.norm(kkt_matrix(p, gamma, mu) @ dx - rhs) / (1.0 + np.linalg.norm(rhs))


def test_lu_reference_closed_form():
    sys = _toy_system()
    dx = lu_step(*sys)
    assert dx[0] == pytest.approx((0.3 - (-0.7)) / 3.0)
    assert dx[1] == pytest.approx((0.3 + 2 * (-0.7)) / 3.0)
    assert _solve_residual(*sys, dx) <= 1e-15


def test_solve_condensed_matches_lu_reference_on_toy():
    sys = _toy_system()
    dx_full = lu_step(*sys)
    dx_cond = solve_condensed(*sys)
    assert dx_cond == pytest.approx(dx_full)
    assert _solve_residual(*sys, dx_cond) <= 1e-14


def _assert_a_failed_newton_step(p, dx, monkeypatch):
    # a direction that is not finite makes every trial's merit non-finite,
    # so no Armijo test accepts one and linesearch returns None, and
    # fbrs_solve, given dx as its first Newton step, takes the merit-gradient
    # step in that pass
    assert not np.isfinite(dx).all()
    point = _evaluate(p, np.full(p.n + p.q, 3.0), 1e-9)
    with np.errstate(all="ignore"):
        assert not math.isfinite(_evaluate(p, point.x + dx, 1e-9).ff)
        assert linesearch(p, point, dx, 1e-9) is None
    directions, gradients = [dx], []

    def first_direction(*args):
        return directions.pop() if directions else solve_condensed(*args)

    def counting_gradient(*args):
        gradients.append(len(directions))
        return _merit_gradient(*args)

    monkeypatch.setattr(newton, "solve_condensed", first_direction)
    monkeypatch.setattr(newton, "_merit_gradient", counting_gradient)
    result = fbrs_solve(p, PrimalDualPoint(np.full(p.n, 3.0), np.full(p.q, 3.0)))
    assert result.status == Status.SOLVED
    assert gradients == [0] and result.trace[0].t > 0.0


def test_solve_condensed_returns_none_on_indefinite_schur(monkeypatch):
    # an indefinite Schur matrix gives None; a zero mu (D singular), which the
    # loop never passes (mu >= delta > 0, see test_fb), gives a direction
    # that is not finite, returned unchecked: the linesearch rejects it, and
    # the pass takes the merit-gradient step. Its division by zero is
    # silenced here as the loop silences it
    p = QpProblem([[-2.0]], [0.0], [[1.0]], [0.0])
    assert solve_condensed(p, np.ones(1), np.ones(1), np.ones(2)) is None
    p = QpProblem(np.eye(1), [0.0], np.eye(1), [0.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        dx = solve_condensed(p, np.ones(1), np.zeros(1), np.ones(2))
    _assert_a_failed_newton_step(p, dx, monkeypatch)


def test_lu_reference_accuracy_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n, q = int(rng.integers(2, 10)), int(rng.integers(1, 15))
        p = random_strictly_convex_qp(n, q, rng)
        x = PrimalDualPoint(rng.standard_normal(n), rng.standard_normal(q))
        sys = _system(p, x, 0.1, 1e-8)
        assert _solve_residual(p, *sys, lu_step(p, *sys)) <= 1e-10


def test_jacobian_nonsingular_under_a3():
    # unregularized systems (delta = 0) stay solvable for any eps > 0
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n, q = int(rng.integers(1, 8)), int(rng.integers(1, 12))
        p = random_strictly_convex_qp(n, q, rng)
        x = PrimalDualPoint(3 * rng.standard_normal(n), 3 * rng.standard_normal(q))
        eps = 10.0 ** rng.uniform(-3, 0)
        sys = _system(p, x, eps, 0.0)
        assert _solve_residual(p, *sys, lu_step(p, *sys)) <= 1e-10


def test_condensed_lu_reference_agreement_random():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n, q = int(rng.integers(2, 10)), int(rng.integers(1, 8))  # includes q < n
        p = random_strictly_convex_qp(n, q, rng)
        x = PrimalDualPoint(3 * rng.standard_normal(n), 3 * rng.standard_normal(q))
        sys = _system(p, x, 10.0 ** rng.uniform(-6, 0), 10.0 ** rng.uniform(-10, -2))
        dx_full = lu_step(p, *sys)
        dx_cond = solve_condensed(p, *sys)
        assert np.linalg.norm(dx_full - dx_cond) <= 1e-8 * (1 + np.linalg.norm(dx_full))


def test_the_finiteness_test_is_exact_and_silent(monkeypatch):
    # a merit gradient with inf, -inf or nan at any position, in any SIMD
    # tail, ends the solve InvalidProblem, and one with finite entries up to
    # the largest double does not: the gradient step's test is exact, with
    # no overflow. No warning escapes, from those solves or from a solve
    # whose first Newton direction is not finite, which the linesearch
    # rejects by its Armijo test. A gradient has n + q >= 2 entries
    def ends_invalid(p, gradient):
        with monkeypatch.context() as patched:
            patched.setattr(newton, "solve_condensed", lambda *args: None)
            patched.setattr(newton, "_merit_gradient", lambda *args: gradient)
            result = fbrs_solve(p, PrimalDualPoint.zeros(p.n, p.q), SolverConfig(max_iters=1))
        return result.status == Status.INVALID_PROBLEM

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for size in [*range(2, 18), 60, 240]:
            n = size // 2
            p = QpProblem(np.eye(n), np.ones(n), np.ones((size - n, n)), np.ones(size - n))
            signs = np.where(np.arange(size) % 3, 1.0, -1.0)
            for dx in (np.full(size, 1.7e308), 1.7e308 * signs, np.arange(size) - 0.5):
                assert not ends_invalid(p, dx)
                for bad in (np.inf, -np.inf, np.nan):
                    for i in range(size):
                        probe = dx.copy()
                        probe[i] = bad
                        assert ends_invalid(p, probe)
        p = QpProblem([[1.0]], [0.0], [[1.0]], [1.0])
        ones = np.ones(1)
        assert np.isfinite(solve_condensed(p, ones, ones, np.array([1.0, 0.0]))).all()
        for bad in (np.inf, -np.inf, np.nan):
            _assert_a_failed_newton_step(p, solve_condensed(p, ones, ones, np.array([bad, 0.0])), monkeypatch)


def test_condensed_survives_tiny_mu():
    # strongly active rows: y_i = 0, v_i large, so mu_i collapses to delta
    rng = np.random.default_rng(8)
    p = random_strictly_convex_qp(4, 6, rng)
    z = np.zeros(4)
    p = QpProblem(p.H, p.f, p.A, p.A @ z)  # all slacks zero at z
    sys = _system(p, PrimalDualPoint(z, 1e4 * np.ones(6)), 1e-8, 1e-8)
    assert sys[1].min() <= 1e-7
    dx = solve_condensed(p, *sys)
    assert np.all(np.isfinite(dx))
    assert _solve_residual(p, *sys, dx) <= 1e-6


def _dense_schur_step(p, gamma, mu, rhs):
    # the condensed step with the lower triangle of the dense Schur matrix
    # H + A'WA, through scipy's Cholesky wrappers
    r_s, r_c = rhs[:p.n], rhs[p.n:]
    S = p.H + p.A.T @ ((gamma / mu)[:, None] * p.A)
    c = scipy.linalg.cho_factor(0.5 * (S + S.T), lower=True)
    dz = scipy.linalg.cho_solve(c, r_s - p.A.T @ (r_c / mu))
    return np.concatenate([dz, (r_c + gamma * (p.A @ dz)) / mu])


def _syrk_schur_step(p, gamma, mu, rhs):
    # the condensed step with the lower triangle of H + (W^1/2 A)'(W^1/2 A)
    # from BLAS dsyrk, through scipy's Cholesky wrappers
    r_s, r_c = rhs[:p.n], rhs[p.n:]
    S = scipy.linalg.blas.dsyrk(1.0, (np.sqrt(gamma / mu)[:, None] * p.A).T, beta=1.0, c=p.H, trans=0, lower=1)
    dz = scipy.linalg.cho_solve(scipy.linalg.cho_factor(S, lower=True), r_s - p.A.T @ (r_c / mu))
    return np.concatenate([dz, (r_c + gamma * (p.A @ dz)) / mu])


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 20, 40, 80])
def test_direct_lapack_matches_scipy_wrappers(n):
    # the Schur solve calls syrk and posv itself; the scipy wrappers
    # around the same routines give the same bits
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        p = random_strictly_convex_qp(n, 2 * n, rng)
        x = PrimalDualPoint(3 * rng.standard_normal(n), 3 * rng.standard_normal(2 * n))
        gamma, mu, rhs = _system(p, x, 10.0 ** rng.uniform(-6, 0), 10.0 ** rng.uniform(-10, -2))
        assert np.array_equal(solve_condensed(p, gamma, mu, rhs), _syrk_schur_step(p, gamma, mu, rhs))


def test_the_schur_solve_is_owned_by_problem():
    # solve_condensed forms the right-hand side and back-substitutes; building,
    # pruning, factoring and solving with H + A'WA are fbrs.problem's
    assert not any(hasattr(newton, name) for name in ("_posv", "_potrf", "_potrs", "_schur", "scipy"))


def test_box_schur_matrix_gives_the_dense_bits():
    # A = [I; -I]: the dense product adds only exact zeros to w_j + w_{n+j}
    p = mpc.condense(mass_spring_chain(40))
    assert p._schur_solve.func is _box_solve
    rng = np.random.default_rng(40)
    for _ in range(20):
        gamma, mu = 10.0 ** rng.uniform(-8, 0.3, (2, p.q))
        rhs = rng.standard_normal(p.n + p.q)
        assert np.array_equal(solve_condensed(p, gamma, mu, rhs), _dense_schur_step(p, gamma, mu, rhs))


def test_box_schur_matrix_with_a_duplicated_bound_row():
    # three rows on one column may sum their weights in another order than the
    # dense product, so only the accuracy is checked
    base = mpc.condense(mass_spring_chain(8))
    p = QpProblem(base.H, base.f, np.vstack([base.A, base.A[:3]]), np.concatenate([base.b, base.b[:3]]))
    assert p._schur_solve.func is _box_solve
    rng = np.random.default_rng(41)
    for _ in range(20):
        gamma, mu = 10.0 ** rng.uniform(-3, 0.3, (2, p.q))
        rhs = rng.standard_normal(p.n + p.q)
        assert _solve_residual(p, gamma, mu, rhs, solve_condensed(p, gamma, mu, rhs)) <= 1e-12


@pytest.mark.parametrize("n, q, draws", [(1, 3, 20), (40, 10, 10), (20, 40, 10), (300, 600, 2)])
def test_syrk_schur_step_is_as_accurate_as_the_dense_product(n, q, draws):
    # the lower triangle of H + (W^1/2 A)'(W^1/2 A) rounds differently from
    # the symmetrized H + A'(WA), but the step it gives is as accurate, for
    # row weights w = gamma / mu over 1e-10 ... 1e10 (at (300, 600) the Schur
    # solve leaves out the rows that fall below rounding; the docstring of
    # problem._pruned_solve gives the bound); no argument is written
    rng = np.random.default_rng(n + q)
    for _ in range(draws):
        p = random_strictly_convex_qp(n, q, rng)
        gamma, mu = 10.0 ** rng.uniform(-10, 0, (2, q))
        rhs = rng.standard_normal(n + q)
        args = (p.H, p.A, gamma, mu, rhs)
        before = [a.copy() for a in args]
        dx = solve_condensed(p, gamma, mu, rhs)
        assert all(np.array_equal(a, b) for a, b in zip(args, before))
        reference = _solve_residual(p, gamma, mu, rhs, _dense_schur_step(p, gamma, mu, rhs))
        assert _solve_residual(p, gamma, mu, rhs, dx) <= 10.0 * reference


def test_box_schur_step_writes_neither_its_arguments_nor_the_shared_h(monkeypatch):
    # the box-only step adds the row weights onto a copy of H in place; a write
    # into H itself would silently change the QP of every later MPC step
    spec = mass_spring_chain(40)
    p = mpc.condense(spec)
    rng = np.random.default_rng(43)
    for _ in range(5):
        gamma, mu = 10.0 ** rng.uniform(-8, 0.3, (2, p.q))
        rhs = rng.standard_normal(p.n + p.q)
        args = (p.H, p.A, gamma, mu, rhs)
        before = [a.copy() for a in args]
        solve_condensed(p, gamma, mu, rhs)
        assert all(np.array_equal(a, b) for a, b in zip(args, before))
    qps = []

    def capturing(qp, x0, cfg):
        qps.append(qp)
        return fbrs_solve(qp, x0, cfg)

    monkeypatch.setattr(mpc, "fbrs_solve", capturing)
    run_sequence(spec, 20, "warm")
    # every step's QP shares the first one's bound solve, itself bound to the shared H
    assert all(qp.H is qps[0].H and qp._schur_solve is qps[0]._schur_solve for qp in qps)
    assert qps[0]._schur_solve.args[0] is qps[0].H
    assert np.array_equal(qps[0].H, mpc.condense(spec).H)


# --- merit function and linesearch -----------------------------------------

def test_merit_basics(qp_1d):
    assert _theta(qp_1d, np.array([0.5]), np.array([0.5]), 0.0) <= 1e-30
    # F_eps = (0.1 - 1 - 0.4, -sqrt(0.4^2 + 0.4^2 + 0.05^2)) = (-1.3, -sqrt(0.3225))
    assert _theta(qp_1d, np.array([0.1]), np.array([-0.4]), 0.05) == pytest.approx(1.00625)


def test_merit_gradient_zero_at_root(qp_1d):
    for eps in (1.0, 0.1, 1e-4):
        g = _gradient(qp_1d, _qp_1d_root(eps), eps)
        assert np.linalg.norm(g) <= 1e-14


def test_merit_gradient_frozen_1d(qp_1d):
    # independent evaluation: V = [[1, 1], [-gamma, mu]], F = (-1, phi)
    x = PrimalDualPoint.zeros(1, 1)
    gamma = 1.0 - 0.5 / math.sqrt(0.26)
    phi = 0.5 - math.sqrt(0.26)
    expected = np.array([1.0 * -1.0 + (-gamma) * phi, 1.0 * -1.0 + 1.0 * phi])
    assert _gradient(qp_1d, x, 0.1) == pytest.approx(expected, abs=1e-15)


def test_merit_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n, q = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        p = random_strictly_convex_qp(n, q, rng)
        x = PrimalDualPoint(2 * rng.standard_normal(n), 2 * rng.standard_normal(q))
        eps = 10.0 ** rng.uniform(-4, 0)
        g = _gradient(p, x, eps)
        vec, h = x.as_vector(), 1e-6
        fd = np.empty_like(g)
        for i in range(n + q):
            e = np.zeros(n + q)
            e[i] = h
            up, down = vec + e, vec - e
            fd[i] = (_theta(p, up[:n], up[n:], eps) - _theta(p, down[:n], down[n:], eps)) / (2 * h)
        assert np.linalg.norm(g - fd) <= 1e-5 * (1 + np.linalg.norm(g))


def test_linesearch_unit_step_near_solution(qp_1d):
    x = PrimalDualPoint([0.5 + 1e-5], [0.5 - 1e-5])
    eps = 1e-9
    dx = lu_step(qp_1d, *_system(qp_1d, x, eps, 0.0))
    t, backtracks, _ = linesearch(qp_1d, _evaluate(qp_1d, x.as_vector(), eps), dx, eps)
    assert t == 1.0
    assert backtracks == 0


def test_linesearch_newton_step_decreases_merit():
    rng = np.random.default_rng(12)
    p = random_strictly_convex_qp(4, 6, rng)
    x = PrimalDualPoint(rng.standard_normal(4), rng.standard_normal(6))
    dx = lu_step(p, *_system(p, x, 0.01, 1e-8))
    _, _, accepted = linesearch(p, _evaluate(p, x.as_vector(), 0.01), dx, 0.01)
    assert _theta(p, accepted.x[:4], accepted.x[4:], 0.01) < _theta(p, x.z, x.v, 0.01)


def test_linesearch_backtracks_on_overshoot(qp_1d, monkeypatch):
    monkeypatch.setattr(SolverConfig, "sigma", 0.499)
    x = PrimalDualPoint([100.0], [50.0])
    dx = lu_step(qp_1d, *_system(qp_1d, x, 0.1, 0.0))
    t, backtracks, _ = linesearch(qp_1d, _evaluate(qp_1d, x.as_vector(), 0.1), 3.0 * dx, 0.1)
    assert backtracks >= 1
    assert t == pytest.approx(0.7**backtracks)


def test_linesearch_fails_on_ascent_direction(qp_1d, monkeypatch):
    monkeypatch.setattr(SolverConfig, "max_backtracks", 10)
    x = PrimalDualPoint([100.0], [50.0])
    up = _gradient(qp_1d, x, 0.1)
    point = _evaluate(qp_1d, x.as_vector(), 0.1)
    trials = []

    def counting_evaluate(*args):
        trials.append(args)
        return _evaluate(*args)

    monkeypatch.setattr(newton, "_evaluate", counting_evaluate)
    assert linesearch(qp_1d, point, up, 0.1) is None
    # the unit step and 10 backtracks
    assert len(trials) == 11


def test_linesearch_rejects_a_non_finite_direction_by_the_armijo_test(monkeypatch):
    # the Armijo test alone decides: a finite dx whose unit step overflows the
    # merit backtracks on to an accepted step, a dx that is not finite has a
    # non-finite merit at every trial and is rejected after the unit step
    # and max_backtracks reductions, as is a finite ascent direction
    trials = []

    def counting_evaluate(*args):
        trials.append(args)
        return _evaluate(*args)

    monkeypatch.setattr(newton, "_evaluate", counting_evaluate)
    # F = [z; -2z] at v = 0 and z > 0, and [z; ~0] at z < 0: theta = 2.5e306
    # here, and the unit step's ||F||^2 = 4e308 overflows
    p = QpProblem([[1.0]], [0.0], [[1.0]], [0.0])
    point = _evaluate(p, np.array([1e153, 0.0]), 1e-9)
    cases = [([-2.1e154, 0.0], 6), ([np.nan, 0.0], None), ([np.inf, 0.0], None),
             ([-1e153, 0.0], 0), ([1e152, 0.0], None)]
    for dx, backtracks in cases:
        trials.clear()
        with np.errstate(all="ignore"):
            step = linesearch(p, point, np.array(dx), 1e-9)
            merits = [_evaluate(*args).ff for args in trials]
        if backtracks is None:
            assert step is None
            assert len(trials) == SolverConfig.max_backtracks + 1
            assert np.isfinite(dx).all() or not np.isfinite(merits).any()
        else:
            assert step[1] == backtracks and len(trials) == backtracks + 1
            assert math.isfinite(step[2].ff)


def test_linesearch_returns_the_evaluated_point(monkeypatch):
    # the loop reads every per-point quantity from the point the linesearch
    # returns: it must be _evaluate's point at x + t dx, field for field, and
    # each cached field must be the quantity it names
    points = []

    def checked_linesearch(p, point, dx, eps):
        t, backtracks, accepted = linesearch(p, point, dx, eps)
        fresh = _evaluate(p, point.x + t * dx, eps)
        for name in ("x", "F", "y", "r"):
            assert np.array_equal(getattr(accepted, name), getattr(fresh, name)), name
        assert accepted.ff == fresh.ff
        points.extend([point, accepted])
        return t, backtracks, accepted

    monkeypatch.setattr(newton, "linesearch", checked_linesearch)
    rng = np.random.default_rng(41)
    cfg = SolverConfig(tol=1e-10)
    for _ in range(5):
        p = random_strictly_convex_qp(20, 40, rng)
        assert fbrs_solve(p, random_infeasible_start(p, rng), cfg).status == Status.SOLVED
    assert len(points) >= 50
    eps = cfg.effective_eps(40)
    for point in points:
        assert np.array_equal(point.r, np.hypot(np.hypot(point.x[20:], point.y), eps))
        assert point.ff == point.F @ point.F


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
    # the condensed step reaches the enumeration oracle's point; when every
    # Cholesky factorization fails, each pass takes one merit-gradient step
    # instead, descends on the merit and ends in a status, not an exception
    rng = np.random.default_rng(22)
    p = random_strictly_convex_qp(4, 8, rng)
    x0 = random_infeasible_start(p, rng)
    cfg = SolverConfig(tol=1e-10)
    condensed = fbrs_solve(p, x0, cfg)
    assert condensed.status == Status.SOLVED
    star = solve_by_enumeration(p)
    assert condensed.x.z == pytest.approx(star.z, abs=1e-8)
    assert condensed.x.v == pytest.approx(star.v, abs=1e-8)
    calls = []

    def fail_cholesky(*args):
        return None

    def counting_gradient(*args):
        calls.append(args)
        return _merit_gradient(*args)

    monkeypatch.setattr(newton, "solve_condensed", fail_cholesky)
    monkeypatch.setattr(newton, "_merit_gradient", counting_gradient)
    gradient = fbrs_solve(p, x0, cfg)
    assert gradient.status == Status.MAX_ITERS
    assert len(calls) == gradient.iterations == cfg.max_iters
    for a, b in zip(gradient.trace, gradient.trace[1:]):
        assert 0.0 < a.t and b.norm_Feps < a.norm_Feps


def _record_cholesky_failures_and_gradient_steps(monkeypatch):
    # records "cholesky-failure" (solve_condensed returns None) and
    # "gradient" events in the order the loop meets them
    events = []
    solve, gradient = newton.solve_condensed, newton._merit_gradient

    def counting_solve(*args):
        dx = solve(*args)
        if dx is None:
            events.append("cholesky-failure")
        return dx

    def counting_gradient(*args):
        events.append("gradient")
        return gradient(*args)

    monkeypatch.setattr(newton, "solve_condensed", counting_solve)
    monkeypatch.setattr(newton, "_merit_gradient", counting_gradient)
    return events


def test_cholesky_failure_takes_a_gradient_step_and_reaches_solution(monkeypatch):
    # rank-n/2 PSD Hessians that pass the A3 check. On seed 58 every Schur
    # complement factors; on seed 96851 two on the way are not numerically
    # positive definite, so those passes take a merit-gradient step instead.
    # Both solves still reach the optimum.
    events = _record_cholesky_failures_and_gradient_steps(monkeypatch)
    for seed, dims, iterations, failures in [(58, (4, 6), 19, 0), (96851, (5, 6), 16, 2)]:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        q = int(rng.integers(n + 1, 2 * n + 3))
        M = rng.standard_normal((n // 2, n))
        A = rng.standard_normal((q, n))
        b = rng.uniform(0.1, 1, q)
        f = rng.standard_normal(n)
        p = QpProblem(M.T @ M, f, A, b)
        assert (n, q) == dims
        assert validate_problem(p).passed
        events.clear()
        result = fbrs_solve(p, PrimalDualPoint.zeros(n, q), SolverConfig(tol=1e-10, max_iters=100))
        assert result.status == Status.SOLVED
        assert result.iterations == iterations
        assert events.count("cholesky-failure") == failures
        for event, following in zip(events, events[1:] + [None]):
            assert event != "cholesky-failure" or following == "gradient"
        assert verify_kkt(p, result.x, 1e-8).passed
        star = solve_by_enumeration(p)
        assert objective(p, result.x.z) == pytest.approx(objective(p, star.z), abs=1e-10)


def test_spd_traffic_stays_on_the_cholesky_path(monkeypatch):
    # strictly convex QPs from infeasible starts and a warm closed loop take
    # every first Cholesky step: no failed factorization, no rejected
    # linesearch and no gradient step; the gradient step would otherwise hide
    # a broken Cholesky step behind correct answers
    calls = {"rejected": 0, "linesearch": 0}
    events = _record_cholesky_failures_and_gradient_steps(monkeypatch)

    def counting_linesearch(*args):
        calls["linesearch"] += 1
        step = linesearch(*args)
        calls["rejected"] += step is None
        return step

    monkeypatch.setattr(newton, "linesearch", counting_linesearch)
    cfg = SolverConfig(tol=1e-8, max_iters=100)
    for i in range(20):
        rng = np.random.default_rng([1, i])
        p = random_strictly_convex_qp(20, 40, rng)
        assert fbrs_solve(p, random_infeasible_start(p, rng), cfg).status == Status.SOLVED
    run_sequence(mass_spring_chain(40), 50, "warm", SolverConfig(tol=1e-6))
    assert calls["linesearch"] > 200
    assert (events.count("cholesky-failure"), calls["rejected"], events.count("gradient")) == (0, 0, 0)


def test_singular_newton_system_ends_with_linesearch_failure():
    # H = 0 and A = 0 violate A3 (the problem is unbounded): the Schur
    # complement is zero, so the Cholesky step fails, and the merit-gradient
    # step moves only v, which cannot reduce the stationarity residual
    p = QpProblem([[0.0]], [1.0], [[0.0]], [1.0])
    x0 = PrimalDualPoint.zeros(1, 1)
    result = fbrs_solve(p, x0)
    assert result.status == Status.LINESEARCH_FAILURE
    assert result.iterations == 0
    assert np.array_equal(result.x.z, x0.z) and np.array_equal(result.x.v, x0.v)


def test_unbounded_problem_is_not_reported_solved():
    # min -z s.t. -z <= 0 is unbounded: the iterates run off to z ~ 1e16,
    # where a + b - r cancelled to 0 in phi_eps and the solve claimed Solved
    result = fbrs_solve(QpProblem([[0.0]], [-1.0], [[-1.0]], [0.0]), PrimalDualPoint.zeros(1, 1))
    assert result.status == Status.LINESEARCH_FAILURE
    assert result.final_norm_F0 > 0.5


def test_max_iters_returns_best_iterate(qp_1d):
    result = fbrs_solve(qp_1d, PrimalDualPoint.zeros(1, 1), SolverConfig(max_iters=2))
    assert result.status == Status.MAX_ITERS
    assert result.iterations == 2
    assert len(result.trace) == 3
    # still made progress toward the solution
    assert result.final_norm_F0 < result.trace[0].norm_F0


def _assert_final_norms_of_returned_point(p, result, eps):
    # the loop reads its norms from the evaluated point it carries; they must
    # still be those of phi_eps at the returned point
    point = _evaluate(p, result.x.as_vector(), eps)
    F, y, v = point.F, point.y, result.x.v
    assert result.final_norm_F0 == np.linalg.norm(_evaluate(p, point.x, 0.0).F)
    assert result.final_norm_Feps == np.linalg.norm(F)
    assert result.final_norm_Fnr == np.linalg.norm(np.concatenate([F[:p.n], np.minimum(y, v)]))


def test_final_norms_belong_to_the_returned_point(monkeypatch):
    rng = np.random.default_rng(31)
    statuses = set()
    for max_iters in (3, 100, 5, 100):
        p = random_strictly_convex_qp(20, 40, rng)
        cfg = SolverConfig(tol=1e-8, max_iters=max_iters)
        result = fbrs_solve(p, random_infeasible_start(p, rng), cfg)
        statuses.add(result.status)
        _assert_final_norms_of_returned_point(p, result, cfg.effective_eps(p.q))
    assert statuses == {Status.SOLVED, Status.MAX_ITERS}
    solves = []

    def recording_solve(p, x0, cfg):
        solves.append((p, cfg, fbrs_solve(p, x0, cfg)))
        return solves[-1][2]

    monkeypatch.setattr(mpc, "fbrs_solve", recording_solve)
    run_sequence(mass_spring_chain(8), 10, "warm")
    assert len(solves) == 10
    for p, cfg, result in solves:
        _assert_final_norms_of_returned_point(p, result, cfg.effective_eps(p.q))


def test_record_norms_are_the_eager_formula_at_every_pass(monkeypatch):
    # each record forms ||F_0|| and ||F_nr|| when first read; they must be the
    # norms of pass k's own iterate: x0, then each point a linesearch accepted
    accepted = []

    def recording(p, point, dx, eps):
        out = linesearch(p, point, dx, eps)
        accepted.append(out[2].x)
        return out

    solves = []

    def recording_solve(p, x0, cfg):
        accepted.clear()
        result = fbrs_solve(p, x0, cfg)
        solves.append((p, cfg, result, [x0.as_vector()] + accepted))
        return result

    monkeypatch.setattr(newton, "linesearch", recording)
    rng = np.random.default_rng(32)
    for max_iters in (100, 4, 100, 2):
        p = random_strictly_convex_qp(20, 40, rng)
        recording_solve(p, random_infeasible_start(p, rng), SolverConfig(max_iters=max_iters))
    monkeypatch.setattr(mpc, "fbrs_solve", recording_solve)
    run_sequence(mass_spring_chain(8), 10, "warm")
    assert {result.status for _, _, result, _ in solves} == {Status.SOLVED, Status.MAX_ITERS}
    for p, cfg, result, xs in solves:
        assert len(xs) == len(result.trace)
        for rec, x in zip(result.trace, xs):
            point = _evaluate(p, x, cfg.effective_eps(p.q))
            F, y, v = point.F, point.y, x[p.n:]
            assert rec.norm_Feps == np.linalg.norm(F)
            assert rec.norm_F0 == np.linalg.norm(_evaluate(p, x, 0.0).F)
            assert rec.norm_Fnr == np.linalg.norm(np.concatenate([F[:p.n], np.minimum(y, v)]))


def _in_f0_band(rec, tol):
    # the passes whose ||F_0|| the loop forms: ||F_eps|| above the
    # certificate's _CERTIFIED tol, and not above 2 tol
    return newton._CERTIFIED * tol < rec.norm_Feps <= 2.0 * tol


def test_unread_trace_forms_the_f0_tail_only_near_tol(monkeypatch):
    # ||F_eps|| <= _CERTIFIED tol certifies the stop and ||F_0|| >= ||F_eps||
    # - tol / 2, so the loop forms the ||F_0|| tail only on passes with
    # _CERTIFIED tol < ||F_eps|| <= 2 tol, and none at exit; reading the
    # trace later forms each other tail once
    calls = []

    def counting(*args):
        calls.append(args)
        return norm_F0(*args)

    norm_F0 = newton._norm_F0
    monkeypatch.setattr(newton, "_norm_F0", counting)
    rng = np.random.default_rng(33)
    statuses, certified = set(), 0
    for max_iters in (100, 3, 100, 100):
        p = random_strictly_convex_qp(20, 40, rng)
        cfg = SolverConfig(max_iters=max_iters)
        calls.clear()
        result = fbrs_solve(p, random_infeasible_start(p, rng), cfg)
        statuses.add(result.status)
        certified += not _in_f0_band(result.trace[-1], cfg.tol) and result.status == Status.SOLVED
        band = [rec.k for rec in result.trace if _in_f0_band(rec, cfg.tol)]
        assert len(calls) == len(band) < len(result.trace)
        for rec in result.trace + result.trace:
            rec.norm_F0
        assert len(calls) == len(result.trace)
    assert statuses == {Status.SOLVED, Status.MAX_ITERS}
    assert certified > 0


def test_an_unread_solve_enters_errstate_once(monkeypatch):
    # the loop forms the norms it needs, the ||F_0|| of passes between the
    # certificate and 2 tol, inside its own np.errstate context (at about
    # 1 us per entry), so a solve whose trace nobody reads enters one, from
    # an infeasible start and from a warm start at the solution, which takes
    # no Newton step
    entries = []
    errstate = np.errstate

    def counting(*args, **kwargs):
        entries.append(kwargs)
        return errstate(*args, **kwargs)

    rng = np.random.default_rng([1, 0])
    p = random_strictly_convex_qp(20, 40, rng)
    x0 = random_infeasible_start(p, rng)
    cfg = SolverConfig(tol=1e-8, max_iters=100)
    monkeypatch.setattr(np, "errstate", counting)
    cold = fbrs_solve(p, x0, cfg)
    assert cold.status == Status.SOLVED and cold.iterations > 0
    assert len(entries) == 1
    entries.clear()
    warm = fbrs_solve(p, cold.x, cfg)
    assert warm.status == Status.SOLVED and warm.iterations == 0
    assert len(entries) == 1
    # the result's final norms are the last record's, which forms each when
    # first read, in a context of its own, unless the loop formed its
    # ||F_0||; a second read forms nothing
    formed = []
    for result in (cold, warm):
        last = result.trace[-1]
        formed.append(_in_f0_band(last, cfg.tol))
        entries.clear()
        assert (result.final_norm_F0, result.final_norm_Fnr) == (last.norm_F0, last.norm_Fnr)
        assert len(entries) == 2 - formed[-1]
        assert result.final_norm_Feps == last.norm_Feps
        entries.clear()
        assert (result.final_norm_F0, result.final_norm_Fnr) == (last.norm_F0, last.norm_Fnr)
        assert len(entries) == 0
    assert False in formed
    cold.trace[0].norm_F0
    assert len(entries) == 1


def _survey_problem(seed, i):
    # the CI bit digest's surveys from zeros: rank-n/2 PSD Hessians at seed 7
    # and LPs (H = 0) at seed 9
    rng = np.random.default_rng([seed, i])
    n = int(rng.integers(2, 9))
    q = int(rng.integers(n + 1, 2 * n + 3))
    M = rng.standard_normal((max(n // 2, 1), n)) if seed == 7 else np.zeros((1, n))
    A = rng.standard_normal((q, n))
    b = rng.uniform(0.1, 1, q)
    f = rng.standard_normal(n)
    return QpProblem(M.T @ M, f, A, b), PrimalDualPoint.zeros(n, q)


def test_the_certified_stop_is_the_old_stop(monkeypatch):
    # the loop stops on ||F_eps|| <= _CERTIFIED tol without forming ||F_0||;
    # it must stop on the pass where the test ||F_0|| <= tol alone would: a
    # Solved result ends at the first record that reads norm_F0 <= tol, and
    # any other result has no such record. Over the (20, 40) and (100, 200)
    # pools, the PSD-H and LP surveys and the 12 bundled closed loops
    solves = []

    def recording_solve(p, x0, cfg):
        solves.append((cfg.tol, fbrs_solve(p, x0, cfg)))
        return solves[-1][1]

    cfg = SolverConfig(tol=1e-8, max_iters=100)
    for n, q, count in ((20, 40, 50), (100, 200, 20)):
        for i in range(count):
            rng = np.random.default_rng([1, i])
            p = random_strictly_convex_qp(n, q, rng)
            recording_solve(p, random_infeasible_start(p, rng), cfg)
    for seed in (7, 9):
        for i in range(100):
            recording_solve(*_survey_problem(seed, i), cfg)
    monkeypatch.setattr(mpc, "fbrs_solve", recording_solve)
    for make_spec in (mass_spring_chain, mpc.double_integrator):
        for horizon in (8, 40):
            for mode in ("cold", "warm", "shift"):
                run_sequence(make_spec(horizon), 50, mode)
    assert len(solves) == 70 + 200 + 600
    exits = {"certified": 0, "tested": 0, "other": 0}
    for tol, result in solves:
        first = next((rec.k for rec in result.trace if rec.norm_F0 <= tol), None)
        if result.status == Status.SOLVED:
            assert first == result.iterations
            assert result.final_norm_F0 <= tol
            exits["tested" if _in_f0_band(result.trace[-1], tol) else "certified"] += 1
        else:
            assert first is None
            exits["other"] += 1
    assert min(exits.values()) > 0


def test_warmstart_at_solution_takes_zero_iterations(qp_1d):
    first = fbrs_solve(qp_1d, PrimalDualPoint.zeros(1, 1))
    again = fbrs_solve(qp_1d, first.x)
    assert again.status == Status.SOLVED
    assert again.iterations == 0
    assert len(again.trace) == 1


def test_returned_points_are_read_only_and_unaliased():
    # fbrs_solve and shift_solution make the points they build read-only
    # without checking them again; each must still be the finite float64
    # vectors of its (n, q), with the bits of the last record's point
    rng = np.random.default_rng(34)
    dense = random_strictly_convex_qp(20, 40, rng)
    box = mpc.condense(mass_spring_chain(8))
    assert box._schur_solve.func is _box_solve
    first = fbrs_solve(box, PrimalDualPoint.zeros(box.n, box.q))
    cases = [
        (dense, random_infeasible_start(dense, rng), SolverConfig(), Status.SOLVED),
        (box, PrimalDualPoint.zeros(box.n, box.q), SolverConfig(), Status.SOLVED),
        (box, first.x, SolverConfig(), Status.SOLVED),
        (dense, random_infeasible_start(dense, rng), SolverConfig(max_iters=2), Status.MAX_ITERS),
    ]
    for i, (p, x0, cfg, status) in enumerate(cases):
        result = fbrs_solve(p, x0, cfg)
        assert result.status == status and (result.iterations == 0) == (i == 2)
        x = result.trace[-1]._point.x
        for vec, length, bits in [(result.x.z, p.n, x[:p.n]), (result.x.v, p.q, x[p.n:])]:
            assert vec.dtype == np.float64 and vec.shape == (length,)
            assert np.isfinite(vec).all() and vec.tobytes() == bits.tobytes()
            assert not vec.flags.writeable
            with pytest.raises(ValueError):
                vec[0] = 1.0
            assert not np.shares_memory(vec, x0.z) and not np.shares_memory(vec, x0.v)
    shifted = mpc.shift_solution(mass_spring_chain(8), first.x)
    for vec in (shifted.z, shifted.v):
        assert not vec.flags.writeable
        with pytest.raises(ValueError):
            vec[0] = 1.0
        assert not np.shares_memory(vec, first.x.z) and not np.shares_memory(vec, first.x.v)


def test_non_finite_gradient_returns_invalid_problem(qp_1d, monkeypatch):
    # at these starts the residual overflows (at the second, Az = 1e310), so
    # neither the Newton direction nor the merit gradient that replaces it is
    # finite: the solve reports it, keeps the last finite iterate and lets no
    # floating-point warning escape
    gradients = []

    def recorded_gradient(*args):
        gradients.append(_merit_gradient(*args))
        return gradients[-1]

    monkeypatch.setattr(newton, "_merit_gradient", recorded_gradient)
    for p, x0 in [
        (qp_1d, PrimalDualPoint([1.7e308], [1.7e308])),
        (QpProblem([[1.0]], [0.0], [[1e300]], [0.0]), PrimalDualPoint([1e10], [0.0])),
    ]:
        gradients.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fbrs_solve(p, x0)
            # the records form their norms from the overflowing point when read
            assert all(rec.norm_F0 == rec.norm_Fnr == math.inf for rec in result.trace)
        assert result.status == Status.INVALID_PROBLEM
        assert result.iterations == 0
        assert np.array_equal(result.x.z, x0.z) and np.array_equal(result.x.v, x0.v)
        assert len(gradients) == 1 and not np.isfinite(gradients[0]).all()


def test_non_finite_newton_step_falls_back_to_the_gradient_step(monkeypatch):
    # a Newton direction that is not finite is one more failed Newton step:
    # the pass takes the merit-gradient step, and the solve goes on
    calls, gradients = [], []
    gradient = newton._merit_gradient
    rng = np.random.default_rng([1, 0])
    p = random_strictly_convex_qp(20, 40, rng)
    schur_solve = p._schur_solve

    def overflowing_first_solve(*args):
        dz = schur_solve(*args)
        calls.append(dz)
        return np.full_like(dz, np.inf) if len(calls) == 1 else dz

    def counting_gradient(*args):
        gradients.append(args)
        return gradient(*args)

    # the problem is frozen and local, so its bound solve is replaced in place
    object.__setattr__(p, "_schur_solve", overflowing_first_solve)
    monkeypatch.setattr(newton, "_merit_gradient", counting_gradient)
    result = fbrs_solve(p, random_infeasible_start(p, rng), SolverConfig(tol=1e-8, max_iters=100))
    assert result.status == Status.SOLVED
    assert result.iterations == 11
    assert len(gradients) == 1
    assert result.trace[0].t > 0.0


def test_trace_shape_and_delta_monotonicity(monkeypatch):
    residuals = []

    def checked_solve(*sys):
        dx = solve_condensed(*sys)
        residuals.append(_solve_residual(*sys, dx))
        return dx

    monkeypatch.setattr(newton, "solve_condensed", checked_solve)
    rng = np.random.default_rng(14)
    for _ in range(20):
        p = random_strictly_convex_qp(4, 8, rng)
        x0 = random_infeasible_start(p, rng)
        residuals.clear()
        result = fbrs_solve(p, x0, SolverConfig(tol=1e-10, max_iters=100))
        assert result.status == Status.SOLVED
        assert len(result.trace) == result.iterations + 1
        deltas = [rec.delta for rec in result.trace]
        assert all(a >= b for a, b in zip(deltas, deltas[1:]))
        for rec in result.trace:
            assert rec.delta <= rec.norm_Feps * (1 + 1e-15)
        assert len(residuals) >= result.iterations
        assert all(r <= 1e-6 for r in residuals)


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


def _assert_delta_is_a_function_of_the_point(result):
    # the regularization is min(delta0, ||F_eps||) at each record's own point,
    # whatever recovery the earlier passes took
    for rec in result.trace:
        assert rec.delta == min(SolverConfig.delta0, rec.norm_Feps)


def test_recovery_keeps_descent_and_delta_follows_the_point(monkeypatch):
    # one backtrack per linesearch forces the merit-gradient fallback, which
    # the fixed constants rarely reach
    monkeypatch.setattr(SolverConfig, "max_backtracks", 1)
    gradient_steps = []
    merit_gradient_step = newton._merit_gradient

    def counting(*args):
        gradient_steps.append(args)
        return merit_gradient_step(*args)

    monkeypatch.setattr(newton, "_merit_gradient", counting)
    rng = np.random.default_rng(3)
    cfg = SolverConfig()
    fallbacks = 0
    for _ in range(100):
        p = random_strictly_convex_qp(6, 12, rng)
        gradient_steps.clear()
        result = fbrs_solve(p, random_infeasible_start(p, rng), cfg)
        assert result.status in (Status.SOLVED, Status.LINESEARCH_FAILURE)
        for a, b in zip(result.trace, result.trace[1:]):
            theta_a, theta_b = 0.5 * a.norm_Feps**2, 0.5 * b.norm_Feps**2
            assert theta_b < (1.0 - 2.0 * a.t * cfg.sigma) * theta_a
            assert b.delta <= a.delta
        _assert_delta_is_a_function_of_the_point(result)
        fallbacks += bool(gradient_steps)
    assert fallbacks >= 1


def _is_unbounded(p):
    # a direction d in [-1, 1]^n with Hd = 0, Ad <= 0 and f'd < 0 makes the
    # objective fall without bound along any feasible ray z + s d
    res = linprog(p.f, A_ub=p.A, b_ub=np.zeros(p.q), A_eq=p.H, b_eq=np.zeros(p.n),
                  bounds=[(-1.0, 1.0)] * p.n, method="highs")
    return res.status == 0 and res.fun < -1e-9


@pytest.mark.parametrize(
    "seed, lp, count, expected", [(7, False, 100, (93, 7)), (9, True, 50, (26, 24))], ids=["psd", "lp"]
)
def test_psd_recovery_traffic_solves_or_meets_an_unbounded_problem(seed, lp, count, expected):
    # natural rank-n/2 PSD Hessians, and LPs (H = 0), from zeros, where
    # rejected Newton steps and gradient steps are common, and on LPs failed
    # Cholesky steps too: every bounded instance is solved, and every other
    # one is unbounded
    rng = np.random.default_rng(seed)
    cfg = SolverConfig(tol=1e-8, max_iters=100)
    solved = unbounded = 0
    for _ in range(count):
        n = int(rng.integers(2, 9))
        q = int(rng.integers(n + 1, 2 * n + 3))
        if lp:
            H = np.zeros((n, n))
        else:
            M = rng.standard_normal((max(n // 2, 1), n))
            H = M.T @ M
        A = rng.standard_normal((q, n))
        b = rng.uniform(0.1, 1, q)
        f = rng.standard_normal(n)
        p = QpProblem(H, f, A, b)
        result = fbrs_solve(p, PrimalDualPoint.zeros(n, q), cfg)
        _assert_delta_is_a_function_of_the_point(result)
        if result.status == Status.SOLVED:
            assert verify_kkt(p, result.x, 1e-6).passed
            solved += 1
        else:
            assert _is_unbounded(p)
            unbounded += 1
    assert (solved, unbounded) == expected


# statuses and iteration counts recorded with the Schur matrix built over
# every row; leaving the rows below rounding out of it must not move them, at
# n = 100 and in PSD-H QPs of n in [48, 100), on both sides of the size rule
_PINNED_N100_ITERATIONS = [14, 13, 14, 14, 13, 12, 14, 12, 13, 12, 14, 13, 13, 12, 14, 12, 13, 13, 14, 13]
_PINNED_PSD = [(91, 116, 59), (63, 122, 29), (74, 139, 33), (97, 132, 38), (91, 140, 32),
               (87, 161, 31), (58, 112, 25), (82, 93, 53), (74, 87, 42), (97, 148, 43)]


def test_pinned_pool_at_n_100():
    cfg = SolverConfig(tol=1e-8, max_iters=100)
    iterations = []
    for i in range(20):
        rng = np.random.default_rng([1, i])
        p = random_strictly_convex_qp(100, 200, rng)
        result = fbrs_solve(p, random_infeasible_start(p, rng), cfg)
        assert result.status == Status.SOLVED
        iterations.append(result.iterations)
    assert iterations == _PINNED_N100_ITERATIONS


def test_pinned_pool_of_psd_hessians():
    # rank n/2 Hessians from zeros, where rejected Newton steps are common
    cfg = SolverConfig(tol=1e-8, max_iters=100)
    got = []
    for i in range(10):
        rng = np.random.default_rng([2, i])
        n = int(rng.integers(48, 100))
        q = int(rng.integers(n + 1, 2 * n + 3))
        M = rng.standard_normal((n // 2, n))
        p = QpProblem(M.T @ M, rng.standard_normal(n), rng.standard_normal((q, n)), rng.uniform(0.1, 1, q))
        result = fbrs_solve(p, PrimalDualPoint.zeros(n, q), cfg)
        assert result.status == Status.SOLVED
        got.append((n, q, result.iterations))
    assert got == _PINNED_PSD


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
        pairs = tail_pairs(result.trace)
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
