import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbrs import (
    InvalidProblem,
    LtiMpcSpec,
    PrimalDualPoint,
    QpProblem,
    SolverConfig,
    constraint_slack,
    fbrs_solve,
    objective,
    validate_problem,
)
from fbrs.fb import _evaluate
from fbrs.mpc import condense, mass_spring_chain
from fbrs.oracle import random_strictly_convex_qp, solve_by_enumeration, verify_kkt
from fbrs.qpfile import serialize_qp


def lagrangian_gradient(p, x):
    # Hz + f + A'v, the stationarity block of the residual
    return _evaluate(p, x.as_vector(), 0.0).F[:p.n]


def natural_residual_norm(p, x):
    # ||[Hz + f + A'v; min(y, v)]||, which the solver records for its start point
    return fbrs_solve(p, x, SolverConfig(max_iters=1)).trace[0].norm_Fnr


def test_hessian_symmetrized_and_defect_recorded():
    p = QpProblem([[1.0, 2.0], [0.0, 1.0]], [0.0, 0.0], [[1.0, 0.0]], [1.0])
    assert np.array_equal(p.H, p.H.T)
    assert p.H[0, 1] == 1.0
    assert p.symmetry_defect == pytest.approx(np.sqrt(8.0))


def test_finite_input_near_the_float_limit_raises_no_warning():
    # the suite turns warnings into errors: symmetrizing, the norms and the
    # slack must not overflow on finite input, and a measure that does
    # overflow reads inf and fails its check
    p = QpProblem([[1.7e308]], [0.0], [[1.0]], [1.0])
    assert p.H[0, 0] == 1.7e308
    lopsided = QpProblem([[1.0, 1e200], [0.0, 1.0]], [0.0, 0.0], [[1.0, 0.0]], [1.0])
    assert lopsided.H[0, 1] == 0.5e200
    # the Frobenius norms scale rather than square their entries
    assert lopsided.symmetry_defect == pytest.approx(math.sqrt(2) * 1e200)
    assert not validate_problem(lopsided).symmetry_ok
    # H - H' itself overflows here, so the defect reads inf and must not pass
    huge = QpProblem([[1e308, 1e308], [-1e308, 1e308]], [0.0, 0.0], [[1.0, 0.0]], [1.0])
    assert huge.symmetry_defect == math.inf and not validate_problem(huge).symmetry_ok
    report = validate_problem(QpProblem(np.diag([1e200, 1.0]), [0.0, 0.0], [[1.0, 0.0]], [1.0]))
    assert report.symmetry_ok and not report.a3_ok
    spec = dict(Ad=[[1.0]], Bd=[[1.0]], Q=[[1.0]], R=[[1.0]], horizon=2,
                u_lo=[-1.0], u_hi=[1.0], x_init=[0.0])
    for name in ("Q", "R"):
        assert getattr(LtiMpcSpec(**{**spec, name: [[1.7e308]]}), name)[0, 0] == 1.7e308
    slack = constraint_slack(QpProblem([[1.0]], [0.0], [[1e200]], [1.0]), [1e200])
    assert np.array_equal(slack, [-np.inf])


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
    # nor is an int too large for a float
    with pytest.raises(InvalidProblem, match="H is not a real"):
        QpProblem([[10**400]], [0.0], [[1.0]], [1.0])
    with pytest.raises(InvalidProblem, match="z is not a real"):
        PrimalDualPoint([10**400], [0.0])


def test_problem_arrays_immutable(qp_1d):
    with pytest.raises(ValueError):
        qp_1d.H[0, 0] = 5.0


def _detected_cols(A):
    A = np.asarray(A, dtype=float)
    return QpProblem(np.eye(A.shape[1]), np.zeros(A.shape[1]), A, np.ones(A.shape[0]))._box_cols


@pytest.mark.parametrize("A, cols", [
    (np.vstack([np.eye(3), -np.eye(3)]), [0, 1, 2, 0, 1, 2]),
    (np.eye(3), [0, 1, 2]),
    ([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]], [1, 0, 2, 1]),
    ([[-0.0, 1.0], [-1.0, -0.0]], [1, 0]),
], ids=["two-sided", "one-sided", "permuted-negated", "negative-zeros"])
def test_signed_unit_rows_are_detected(A, cols):
    found = _detected_cols(A)
    assert np.array_equal(found, cols)
    assert not found.flags.writeable


def test_box_fixture_and_input_box_mpc_are_detected(qp_box_2d):
    assert np.array_equal(qp_box_2d._box_cols, [0, 1])
    m = 2 * 8  # mass_spring_chain(8): nu = 2 over 8 stages
    assert np.array_equal(condense(mass_spring_chain(8))._box_cols, np.tile(np.arange(m), 2))


@pytest.mark.parametrize("A", [
    [[2.0, 0.0], [0.0, 1.0]],
    [[np.nextafter(1.0, 0.0), 0.0], [0.0, 1.0]],
    [[1.0, 1.0], [0.0, 1.0]],
    [[1.0, 0.0], [0.0, 0.0]],
    [[1.0, 1.0], [0.0, 0.0]],  # as many nonzeros as rows, but not one per row
], ids=["scaled", "just-below-one", "two-nonzeros", "zero-row", "zero-row-and-pair"])
def test_other_rows_are_not_detected(A):
    assert _detected_cols(A) is None


def test_state_box_and_random_problems_are_not_detected():
    spec = mass_spring_chain(8)
    x_hi = np.full(spec.nx, 10.0)
    boxed = LtiMpcSpec(spec.Ad, spec.Bd, spec.Q, spec.R, spec.horizon, spec.u_lo, spec.u_hi,
                       spec.x_init, -x_hi, x_hi)
    assert condense(boxed)._box_cols is None
    rng = np.random.default_rng(13)
    # at n = 1 every normalized row is +-1, so a random 1-D QP is a box QP
    for _ in range(200):
        n = int(rng.integers(2, 10))
        assert random_strictly_convex_qp(n, int(rng.integers(1, 2 * n)), rng)._box_cols is None


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
        # a bare array where a PrimalDualPoint belongs
        (lambda p: verify_kkt(p, np.zeros(2), 1e-8), "x must be a PrimalDualPoint"),
        (lambda p: fbrs_solve(p, np.zeros(2)), "x0 must be a PrimalDualPoint"),
        (lambda p: serialize_qp(p, np.zeros(2)), "x0 must be a PrimalDualPoint"),
        (lambda p: verify_kkt(p, PrimalDualPoint.zeros(1, 1), 10**400), "tol"),
        (lambda p: validate_problem(p, tol=10**400), "tol"),
        # a problem that is not a QpProblem
        (lambda p: fbrs_solve({"H": p.H}, PrimalDualPoint.zeros(1, 1)), "p must be a QpProblem, got dict"),
        (lambda p: verify_kkt(None, PrimalDualPoint.zeros(1, 1), 1e-8), "p must be a QpProblem, got NoneType"),
        (lambda p: validate_problem([p.H, p.f, p.A, p.b]), "p must be a QpProblem, got list"),
        (lambda p: solve_by_enumeration({"H": p.H}), "p must be a QpProblem"),
        (lambda p: objective(None, np.zeros(1)), "p must be a QpProblem"),
        (lambda p: constraint_slack([p.H, p.f, p.A, p.b], np.zeros(1)), "p must be a QpProblem"),
        (lambda p: serialize_qp(None), "p must be a QpProblem"),
    ],
    ids=["objective-shape", "objective-nan", "verify_kkt-x", "verify_kkt-tol-nan", "verify_kkt-tol-zero",
         "verify_kkt-array", "fbrs_solve-array", "serialize_qp-array", "verify_kkt-tol-huge",
         "validate_problem-tol-huge", "fbrs_solve-dict", "verify_kkt-none", "validate_problem-list",
         "solve_by_enumeration-dict", "objective-none", "constraint_slack-list", "serialize_qp-none"],
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
