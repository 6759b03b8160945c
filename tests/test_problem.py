import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbrs import (
    InvalidProblem,
    PrimalDualPoint,
    QpProblem,
    SolverConfig,
    constraint_slack,
    fbrs_solve,
    objective,
    validate_problem,
)
from fbrs.fb import _evaluate
from fbrs.oracle import random_strictly_convex_qp, solve_by_enumeration, verify_kkt


def lagrangian_gradient(p, x):
    # Hz + f + A'v, the stationarity block of the residual
    return _evaluate(p, x.z, x.v, 0.0)[0][:p.n]


def natural_residual_norm(p, x):
    # ||[Hz + f + A'v; min(y, v)]||, which the solver records for its start point
    return fbrs_solve(p, x, SolverConfig(max_iters=1)).trace[0].norm_Fnr


def test_hessian_symmetrized_and_defect_recorded():
    p = QpProblem([[1.0, 2.0], [0.0, 1.0]], [0.0, 0.0], [[1.0, 0.0]], [1.0])
    assert np.array_equal(p.H, p.H.T)
    assert p.H[0, 1] == 1.0
    assert p.symmetry_defect == pytest.approx(np.sqrt(8.0))


def test_rejects_empty_constraint_set():
    with pytest.raises(InvalidProblem):
        QpProblem(np.eye(2), np.zeros(2), np.zeros((0, 2)), np.zeros(0))


def test_rejects_nonfinite_and_bad_shapes():
    with pytest.raises(InvalidProblem):
        QpProblem([[np.nan]], [0.0], [[1.0]], [1.0])
    with pytest.raises(InvalidProblem):
        QpProblem(np.eye(2), [0.0], [[1.0, 0.0]], [1.0])
    with pytest.raises(InvalidProblem):
        QpProblem(np.eye(2), np.zeros(2), [[1.0, 0.0]], [1.0, 2.0])
    with pytest.raises(InvalidProblem):
        PrimalDualPoint([np.inf], [0.0])
    with pytest.raises(InvalidProblem, match="H"):
        QpProblem([[1.0, 0.0], [1.0]], [0.0, 0.0], [[1.0, 0.0]], [1.0])
    with pytest.raises(InvalidProblem, match="A"):
        QpProblem(np.eye(2), [0.0, 0.0], [["a", 0.0]], [1.0])
    with pytest.raises(InvalidProblem, match="z"):
        PrimalDualPoint([[1.0], [1.0, 2.0]], [0.0])
    with pytest.raises(InvalidProblem, match="v"):
        PrimalDualPoint([0.0], ["x"])
    # a complex array is not cast to its real part
    with pytest.raises(InvalidProblem, match="H is not a real"):
        QpProblem(np.eye(1) * (1 + 1j), [0.0], [[1.0]], [1.0])
    with pytest.raises(InvalidProblem, match="z is not a real"):
        PrimalDualPoint(np.array([1 + 2j]), [0.0])
    with pytest.raises(InvalidProblem, match="b is not a real"):
        QpProblem(np.eye(1), [0.0], [[1.0]], [np.complex128(1.0)])


def test_problem_arrays_immutable(qp_1d):
    with pytest.raises(ValueError):
        qp_1d.H[0, 0] = 5.0


def test_validate_identity_hessian_passes():
    p = QpProblem(np.eye(2), np.zeros(2), [[1.0, 0.0]], [1.0])
    assert validate_problem(p, 1e-10).passed


def test_validate_shared_kernel_fails():
    p = QpProblem(np.diag([1.0, 0.0]), np.zeros(2), [[1.0, 0.0]], [1.0])
    report = validate_problem(p, 1e-10)
    assert not report.a3_ok
    assert not report.passed
    assert any("A3" in note for note in report.notes)


def test_validate_complementary_kernels_pass():
    p = QpProblem(np.diag([1.0, 0.0]), np.zeros(2), [[0.0, 1.0]], [1.0])
    assert validate_problem(p, 1e-10).passed


def test_lagrangian_gradient_vanishes_at_kkt_point(qp_1d):
    # active-set oracle: constraint active, z - 1 + v = 0 gives (0.5, 0.5)
    x = PrimalDualPoint([0.5], [0.5])
    assert lagrangian_gradient(qp_1d, x) == pytest.approx([0.0], abs=1e-15)


def test_lagrangian_gradient_at_origin_is_f():
    p = QpProblem(np.eye(3), [1.0, -2.0, 3.0], np.ones((2, 3)), [1.0, 1.0])
    x = PrimalDualPoint(np.zeros(3), np.zeros(2))
    assert np.array_equal(lagrangian_gradient(p, x), p.f)


def test_lagrangian_gradient_arithmetic():
    p = QpProblem(np.eye(2), np.zeros(2), [[1.0, 1.0]], [5.0])
    x = PrimalDualPoint([1.0, 1.0], [2.0])
    assert lagrangian_gradient(p, x) == pytest.approx([3.0, 3.0])


def test_constraint_slack_values():
    p = QpProblem([[1.0]], [0.0], [[1.0]], [0.5])
    assert constraint_slack(p, np.array([0.5])) == pytest.approx([0.0])
    assert constraint_slack(p, np.array([0.0])) == pytest.approx([0.5])
    p2 = QpProblem(np.eye(2), np.zeros(2), np.eye(2), [1.0, 2.0])
    assert constraint_slack(p2, np.array([1.0, 1.0])) == pytest.approx([0.0, 1.0])


def test_natural_residual_cases(qp_1d, qp_interior):
    assert natural_residual_norm(qp_1d, PrimalDualPoint([0.5], [0.5])) <= 1e-15
    assert natural_residual_norm(qp_interior, PrimalDualPoint([0.0], [0.0])) == 0.0
    # [Hz + f + A'v; min(b - Az, v)] = [2; min(-1, 0)]
    assert natural_residual_norm(qp_interior, PrimalDualPoint([2.0], [0.0])) == pytest.approx(math.sqrt(5.0))


def test_objective_values(qp_1d):
    assert objective(qp_1d, np.zeros(1)) == 0.0
    assert objective(qp_1d, np.array([0.5])) == pytest.approx(-0.375)
    p = QpProblem(2.0 * np.eye(2), np.zeros(2), np.ones((1, 2)), [5.0])
    assert objective(p, np.array([1.0, 1.0])) == pytest.approx(2.0)


def test_dimension_mismatch_raises(qp_1d):
    with pytest.raises(InvalidProblem):
        fbrs_solve(qp_1d, PrimalDualPoint([0.0, 0.0], [0.0]))
    with pytest.raises(InvalidProblem):
        constraint_slack(qp_1d, np.zeros(2))
    with pytest.raises(InvalidProblem, match="z"):
        constraint_slack(qp_1d, [np.nan])


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda p: objective(p, np.zeros(2)), "z"),
        (lambda p: objective(p, [np.nan]), "z"),
        (lambda p: verify_kkt(p, PrimalDualPoint.zeros(1, 2), 1e-8), "x"),
        (lambda p: verify_kkt(p, PrimalDualPoint.zeros(1, 1), math.nan), "tol"),
        (lambda p: verify_kkt(p, PrimalDualPoint.zeros(1, 1), 0.0), "tol"),
    ],
    ids=["objective-shape", "objective-nan", "verify_kkt-x", "verify_kkt-tol-nan", "verify_kkt-tol-zero"],
)
def test_point_functions_reject_bad_input(qp_1d, call, name):
    with pytest.raises(InvalidProblem, match=name):
        call(qp_1d)


def test_natural_residual_zero_iff_kkt():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n, q = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        p = random_strictly_convex_qp(n, q, rng)
        star = solve_by_enumeration(p)
        assert natural_residual_norm(p, star) <= 1e-10
        assert verify_kkt(p, star, 1e-10).passed
        off = PrimalDualPoint(star.z + rng.standard_normal(n), star.v + rng.standard_normal(q))
        res_norm = natural_residual_norm(p, off)
        report = verify_kkt(p, off, 1e-10)
        assert (res_norm <= 1e-10) == report.passed


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_lagrangian_gradient_is_affine(seed):
    rng = np.random.default_rng(seed)
    n, q = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    p = random_strictly_convex_qp(n, q, rng)
    x = PrimalDualPoint(rng.standard_normal(n), rng.standard_normal(q))
    dz, dv = rng.standard_normal(n), rng.standard_normal(q)
    shifted = PrimalDualPoint(x.z + dz, x.v + dv)
    lhs = lagrangian_gradient(p, shifted) - lagrangian_gradient(p, x)
    rhs = p.H @ dz + p.A.T @ dv
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-12 * (1 + np.abs(rhs).max()))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_constraint_slack_rearranges_exactly(seed):
    rng = np.random.default_rng(seed)
    n, q = int(rng.integers(1, 6)), int(rng.integers(1, 8))
    p = random_strictly_convex_qp(n, q, rng)
    z = 3 * rng.standard_normal(n)
    recovered = constraint_slack(p, z) + p.A @ z
    assert np.linalg.norm(recovered - p.b) <= 1e-14 * (1 + np.linalg.norm(p.b))
