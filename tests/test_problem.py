import ast
import dataclasses
import inspect
import math
import pickle

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import fbrs.fb
import fbrs.mpc
import fbrs.newton
import fbrs.problem
from fbrs import (
    InvalidProblem,
    LtiMpcSpec,
    PrimalDualPoint,
    QpProblem,
    SolverConfig,
    Status,
    constraint_slack,
    fbrs_solve,
    objective,
    validate_problem,
)
from fbrs.fb import _evaluate
from fbrs.mpc import condense, double_integrator, mass_spring_chain, run_sequence
from fbrs.oracle import random_infeasible_start, random_strictly_convex_qp, solve_by_enumeration, verify_kkt
from fbrs.problem import _PRUNE_MIN_N, _box_solve, _dense_solve, _gather, _pruned_solve, _scatter, _syrk
from fbrs.qpfile import serialize_qp

from conftest import pool


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
    with pytest.raises(InvalidProblem, match="H must be square"):
        QpProblem(np.ones((2, 3)), [0.0, 0.0], [[1.0, 0.0]], [1.0])
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
    # nor are strings, bytes, dates or time spans, which numpy would parse or count
    with pytest.raises(InvalidProblem, match="H is not a real"):
        QpProblem([["1.0"]], ["0"], [["1"]], ["1"])
    with pytest.raises(InvalidProblem, match="b is not a real"):
        QpProblem([[1.0]], [0.0], [[1.0]], [b"1"])
    with pytest.raises(InvalidProblem, match="v is not a real"):
        PrimalDualPoint([0.0], [np.datetime64("2020-01-01")])
    with pytest.raises(InvalidProblem, match="z is not a real"):
        PrimalDualPoint([np.timedelta64(1, "D")], [0.0])
    # and neither is an object array holding one, though numpy casts each entry
    with pytest.raises(InvalidProblem, match="v is not a real"):
        PrimalDualPoint([0.0], np.array(["1.5"], dtype=object))
    with pytest.raises(InvalidProblem, match="z is not a real"):
        PrimalDualPoint([np.datetime64("2020-01-01"), 0.0], [0.0])
    with pytest.raises(InvalidProblem, match="f is not a real"):
        QpProblem(np.eye(2), np.array([np.timedelta64(1, "D"), 0.0], dtype=object), [[1.0, 0.0]], [1.0])
    with pytest.raises(InvalidProblem, match="b is not a real"):
        QpProblem(np.eye(1), [0.0], [[1.0]], np.array([b"1"], dtype=object))
    with pytest.raises(InvalidProblem, match="A is not a real"):
        QpProblem(np.eye(1), [0.0], np.array([[1j]], dtype=object), [1.0])
    # an object array of real numbers is cast entry by entry
    assert np.array_equal(PrimalDualPoint(np.array([1, 2.5], dtype=object), [0.0]).z, [1.0, 2.5])


def test_problem_arrays_immutable(qp_1d):
    with pytest.raises(ValueError):
        qp_1d.H[0, 0] = 5.0


def _box_cols(p):
    # the column of each row that a box-only problem binds into its Schur
    # solve, or None when the problem is not box-only
    return p._schur_solve.args[1] if p._schur_solve.func is _box_solve else None


def _detected_cols(A):
    A = np.asarray(A, dtype=float)
    return _box_cols(QpProblem(np.eye(A.shape[1]), np.zeros(A.shape[1]), A, np.ones(A.shape[0])))


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
    assert np.array_equal(_box_cols(qp_box_2d), [0, 1])
    m = 2 * 8  # mass_spring_chain(8): nu = 2 over 8 stages
    assert np.array_equal(_box_cols(condense(mass_spring_chain(8))), np.tile(np.arange(m), 2))


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
    assert _box_cols(condense(boxed)) is None
    rng = np.random.default_rng(13)
    # at n = 1 every normalized row is +-1, so a random 1-D QP is a box QP
    for _ in range(200):
        n = int(rng.integers(2, 10))
        assert _box_cols(random_strictly_convex_qp(n, int(rng.integers(1, 2 * n)), rng)) is None


@pytest.mark.parametrize("make_qp", [
    lambda: condense(double_integrator()),
    lambda: condense(mass_spring_chain(8)),
    lambda: condense(mass_spring_chain(40)),
    lambda: QpProblem(np.eye(3), np.zeros(3), [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]], np.ones(3)),
], ids=["double-integrator", "mass-spring-8", "mass-spring-40", "permuted-negated"])
def test_gather_scatter_products_are_the_dense_bits(make_qp):
    # A z = sign * z[cols] and A'v = bincount(cols, sign * v), the products
    # that QpProblem binds for a box-only A: each other term of the dense
    # products is an exact zero. The three bound callables share one cols
    # and one sign
    p = make_qp()
    assert (p._A_dot.func, p._At_dot.func, p._schur_solve.func) == (_gather, _scatter, _box_solve)
    cols, sign = p._A_dot.args
    assert p._At_dot.args[0] is p._schur_solve.args[1] is cols and p._At_dot.args[1] is sign
    assert np.array_equal(sign, p.A[np.arange(p.q), cols])
    assert not sign.flags.writeable
    rng = np.random.default_rng(p.q)
    for _ in range(20):
        z = 10.0 ** rng.uniform(-8, 8, p.n) * rng.standard_normal(p.n)
        v = 10.0 ** rng.uniform(-8, 8, p.q) * rng.standard_normal(p.q)
        assert np.array_equal(p._A_dot(z), p.A @ z)
        assert np.array_equal(p._At_dot(v), p.A.T @ v)


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def test_dot_gives_the_matmul_bits():
    # the solve path forms its products with ndarray.dot, which reaches the
    # BLAS routine (gemv, dot) that the matmul gufunc does, with less work on
    # entry; checked on the layouts the path passes (C-ordered A and H, the
    # transposed view A.T, 1-d vectors) with unit and 10^+-150 magnitudes,
    # whose products stay finite
    rng = np.random.default_rng(25)
    for draw in range(20):
        scale = 150.0 * (draw % 2)
        for n in (1, 2, 3, 7, 20, 80, 300):
            z = rng.standard_normal(n) * 10.0 ** rng.uniform(-scale, scale, n)
            H = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-scale, scale, (n, n))
            assert _same_bits(H.dot(z), H @ z) and _same_bits(z.dot(z), z @ z)
            for q in (1, 2, 3, 5, 8, 13, 40, 160, 600):
                A = rng.standard_normal((q, n)) * 10.0 ** rng.uniform(-scale, scale, (q, n))
                v = rng.standard_normal(q) * 10.0 ** rng.uniform(-scale, scale, q)
                assert _same_bits(A.dot(z), A @ z) and _same_bits(A.T.dot(v), A.T @ v)
                assert _same_bits(v.dot(v), v @ v)


def test_the_solve_path_forms_no_product_with_matmul():
    # every product of a Newton step, and of an MPC step's f, b and state
    # update, goes through ndarray.dot (see test_dot_gives_the_matmul_bits);
    # a dense QpProblem binds A.dot and A.T.dot as its products
    build = next(node for node in ast.walk(ast.parse(inspect.getsource(fbrs.mpc._condenser)))
                 if isinstance(node, ast.FunctionDef) and node.name == "build")
    trees = [ast.parse(inspect.getsource(obj))
             for obj in (fbrs.fb, fbrs.newton, _gather, _scatter, _box_solve, _dense_solve, _pruned_solve,
                         run_sequence)] + [build]
    assert not any(isinstance(node, ast.MatMult) for tree in trees for node in ast.walk(tree))
    p = random_strictly_convex_qp(3, 5, np.random.default_rng(0))
    assert p._A_dot.__name__ == p._At_dot.__name__ == "dot"
    assert p._A_dot.__self__ is p.A and p._At_dot.__self__.base is p.A


@pytest.mark.parametrize("make_qp", [
    lambda: condense(mass_spring_chain(8)),
    lambda: random_strictly_convex_qp(20, 40, np.random.default_rng([1, 0])),
], ids=["box-only-mpc", "dense"])
def test_a_pickled_problem_solves_with_the_same_bits(make_qp):
    # QpProblem binds its products with A and A' and its Schur solve (A.dot
    # and A.T.dot, or functools.partial objects of module-level functions);
    # a pickle holds H, f, A, b and symmetry_defect once, and loading makes
    # the arrays read-only, as the constructor does, and binds the callables
    # to the copy's own
    p = make_qp()
    twin = pickle.loads(pickle.dumps(p))
    for name in ("H", "f", "A", "b"):
        mine, theirs = getattr(p, name), getattr(twin, name)
        assert _same_bits(mine, theirs) and not theirs.flags.writeable, name
    assert (twin.n, twin.q) == (p.n, p.q) == p.A.shape[::-1]
    assert twin._schur_solve.func is p._schur_solve.func and twin._schur_solve.args[0] is twin.H
    for mine, theirs in zip(p._schur_solve.args, twin._schur_solve.args, strict=True):
        assert _same_bits(mine, theirs) and not (isinstance(theirs, np.ndarray) and theirs.flags.writeable)
    if _box_cols(p) is None:
        assert twin._A_dot.__self__ is twin.A and twin._At_dot.__self__.base is twin.A
        assert twin._schur_solve.args[1] is twin.A
    else:
        cols, sign = twin._A_dot.args
        assert twin._At_dot.args[0] is twin._schur_solve.args[1] is cols and twin._At_dot.args[1] is sign
    assert len(pickle.dumps(p)) < p.H.nbytes + 2 * p.A.nbytes
    cfg = SolverConfig(tol=1e-10, max_iters=100)
    x0 = PrimalDualPoint(np.ones(p.n), -np.ones(p.q))
    _assert_same_solve(fbrs_solve(p, x0, cfg), fbrs_solve(twin, x0, cfg))


def _assert_same_solve(a, b):
    # both solves reach Solved with the same bits in x and in every record
    assert (a.status, a.iterations) == (b.status, b.iterations) == (Status.SOLVED, a.iterations)
    assert _same_bits(a.x.z, b.x.z) and _same_bits(a.x.v, b.x.v)
    fields = ("norm_Feps", "norm_F0", "norm_Fnr", "t", "delta", "backtracks")
    for rec_a, rec_b in zip(a.trace, b.trace, strict=True):
        assert [getattr(rec_a, f) for f in fields] == [getattr(rec_b, f) for f in fields]


def test_types_that_hold_arrays_compare_and_hash_by_identity():
    # an array has no single truth value, so a generated == over array fields
    # would raise, and a generated hash too: these types compare and hash by
    # identity, so they go into sets and dict keys, and a value-equal copy is
    # another object
    p = QpProblem(np.eye(2), np.zeros(2), np.eye(2), np.ones(2))
    result = fbrs_solve(p, PrimalDualPoint.zeros(2, 2))
    spec = double_integrator(8)
    trajectory, stats = run_sequence(spec, 2)
    objects = [p, result.x, spec, result, result.trace[0], stats.records[0], stats, trajectory]
    assert [type(obj).__name__ for obj in objects] == [
        "QpProblem", "PrimalDualPoint", "LtiMpcSpec", "SolverResult", "IterationRecord", "QpSolveRecord",
        "SequenceStats", "Trajectory"]
    for obj in objects:
        assert obj == obj and not obj != obj
        assert hash(obj) == hash(obj) and obj in {obj} and obj in [obj] and {obj: 1}[obj] == 1
        twin = dataclasses.replace(obj)
        assert twin != obj and twin not in {obj} and twin not in [obj]
    assert len(set(objects)) == len(objects)
    assert [f.name for f in dataclasses.fields(QpProblem)] == ["H", "f", "A", "b", "symmetry_defect"]


@pytest.mark.parametrize("make_qp", [
    lambda: condense(mass_spring_chain(8)),
    lambda: random_strictly_convex_qp(20, 40, np.random.default_rng([1, 0])),
    lambda: random_strictly_convex_qp(100, 200, np.random.default_rng([1, 0])),
], ids=["box-only-mpc", "dense", "pruned"])
def test_a_state_of_an_earlier_layout_loads(make_qp):
    # pickles made before the row structure moved into the bound callables
    # hold the box rows' _box_cols and _box_sign and the squared row norms
    # _row_sq (None where the structure has none), and no n or q; pickles
    # made since hold neither. Either state, with its arrays writeable as
    # pickle loads them, loads read-only, leaves the old fields out, derives
    # the sizes and the callables, solves with the same bits and pickles
    # without a second copy of A
    p = make_qp()
    current = {name: getattr(p, name) for name in ("H", "f", "A", "b", "symmetry_defect")}
    cols = _box_cols(p)
    earlier = dict(current, _box_cols=cols, _box_sign=None if cols is None else p._A_dot.args[1],
                   _row_sq=p._schur_solve.args[2] if p._schur_solve.func is _pruned_solve else None)
    cfg = SolverConfig(tol=1e-10, max_iters=100)
    x0 = PrimalDualPoint(np.ones(p.n), -np.ones(p.q))
    reference = fbrs_solve(p, x0, cfg)
    for state in (earlier, current):
        loaded = object.__new__(QpProblem)
        loaded.__setstate__({k: v.copy() if isinstance(v, np.ndarray) else v for k, v in state.items()})
        assert list(vars(loaded)) == list(vars(p))
        assert (loaded.n, loaded.q) == (p.n, p.q) == p.A.shape[::-1]
        assert not any(getattr(loaded, name).flags.writeable for name in "HfAb")
        assert loaded._schur_solve.func is p._schur_solve.func
        assert len(pickle.dumps(loaded)) < p.H.nbytes + 2 * p.A.nbytes
        _assert_same_solve(reference, fbrs_solve(loaded, x0, cfg))


def _fortran(value):
    return np.asfortranarray(value) if np.ndim(value) == 2 else value


def test_fortran_ordered_input_gives_the_c_ordered_bits():
    # BLAS runs another kernel, with other bits, on a Fortran-ordered matrix:
    # QpProblem and LtiMpcSpec store C-ordered copies, so the caller's layout
    # does not reach the solve, condense or the closed loop
    cfg = SolverConfig(tol=1e-8, max_iters=100)
    for p, x0 in (*pool(20, 40, 6), *pool(100, 200, 2)):
        twins = [QpProblem(layout(p.H), p.f, layout(p.A), p.b) for layout in (np.ascontiguousarray, _fortran)]
        c, f = (fbrs_solve(twin, x0, cfg) for twin in twins)
        assert (c.status, c.iterations) == (f.status, f.iterations)
        assert _same_bits(c.x.z, f.x.z) and _same_bits(c.x.v, f.x.v)
        assert all(twin.H.flags.c_contiguous and twin.A.flags.c_contiguous for twin in twins)
    spec = dataclasses.replace(mass_spring_chain(8), x_lo=np.full(6, -5.0), x_hi=np.full(6, 5.0))
    twin = LtiMpcSpec(**{field.name: _fortran(getattr(spec, field.name)) for field in dataclasses.fields(spec)})
    assert all(getattr(twin, name).flags.c_contiguous for name in ("Ad", "Bd", "Q", "R"))
    c, f = condense(spec), condense(twin)
    assert all(_same_bits(getattr(c, name), getattr(f, name)) for name in "HfAb")
    (c_path, c_stats), (f_path, f_stats) = (run_sequence(s, 20, "warm") for s in (spec, twin))
    assert _same_bits(c_path.states, f_path.states) and _same_bits(c_path.inputs, f_path.inputs)
    assert [r.iterations for r in c_stats.records] == [r.iterations for r in f_stats.records]


@pytest.fixture
def schur_matrices(monkeypatch):
    # the Schur matrix of each LAPACK posv call, in call order: the spy
    # copies S before the real posv factors it in place
    matrices = []
    posv = fbrs.problem._posv

    def spy(S, *args):
        matrices.append(S.copy())
        return posv(S, *args)

    monkeypatch.setattr(fbrs.problem, "_posv", spy)
    return matrices


def _syrk_schur(p, w, keep=None):
    # the lower triangle of H + A'WA from one syrk of W^1/2 A onto a copy of
    # H, over the rows that the mask keep marks (every row when None)
    rows = np.sqrt(w)[:, None] * p.A
    return _syrk(1.0, (rows if keep is None else rows[keep]).T, beta=1.0, c=p.H.T, trans=0, lower=1)


def _kept_rows(p, w):
    # the rows that a pruned Schur solve keeps: w_i ||a_i||^2 > u max_j w_j ||a_j||^2
    scaled = w * np.einsum("ij,ij->i", p.A, p.A)
    return scaled > np.finfo(float).eps * scaled.max()


@pytest.mark.parametrize("n, equal_weights", [(20, False), (100, True)],
                         ids=["below-the-size-rule", "no-row-dropped"])
def test_unpruned_schur_matrix_is_the_full_syrk_bits(n, equal_weights, schur_matrices):
    # below the size rule the weights span 1e-10 ... 1e10, far past rounding,
    # yet every row enters; above it, equal weights on unit rows drop none
    rng = np.random.default_rng(n)
    p = random_strictly_convex_qp(n, 2 * n, rng)
    assert p._schur_solve.func is (_dense_solve if n < _PRUNE_MIN_N else _pruned_solve)
    for _ in range(5):
        if equal_weights:
            w = np.full(p.q, 10.0 ** rng.uniform(-10, 10))
        else:
            w = 10.0 ** rng.uniform(-10, 10, p.q)
        schur_matrices.clear()
        p._schur_solve(w, np.ones(p.n))
        assert len(schur_matrices) == 1
        assert np.array_equal(schur_matrices[0], _syrk_schur(p, w))


def test_schur_keeps_a_large_row_with_a_small_weight(schur_matrices):
    # w_0 = 1e-20 is below rounding against the other weights (1), but row 0
    # scaled by 1e4 makes its term w_0 ||a_0||^2 = 1e-12, which is not
    rng = np.random.default_rng(7)
    p = random_strictly_convex_qp(_PRUNE_MIN_N, 2 * _PRUNE_MIN_N, rng)
    A = p.A.copy()
    A[0] *= 1e4
    scaled = QpProblem(p.H, p.f, A, p.b)
    row_sq = scaled._schur_solve.args[2]
    assert row_sq[0] == pytest.approx(1e8) and not row_sq.flags.writeable
    w = np.ones(p.q)
    w[0] = 1e-20
    rhs = np.ones(p.n)
    scaled._schur_solve(w, rhs)
    assert len(schur_matrices) == 1
    assert np.array_equal(schur_matrices[0], _syrk_schur(scaled, w))
    # the same weight on the unit row falls below rounding and is dropped
    schur_matrices.clear()
    p._schur_solve(w, rhs)
    assert len(schur_matrices) == 1
    assert np.array_equal(schur_matrices[0], _syrk_schur(p, w, np.arange(p.q) > 0))
    # a squared row norm that overflows reads inf, without a warning, and
    # then every row enters
    A[0] = 1e200
    huge = QpProblem(p.H, p.f, A, p.b)
    assert huge._schur_solve.args[2][0] == np.inf
    schur_matrices.clear()
    huge._schur_solve(np.ones(p.q), rhs)
    assert len(schur_matrices) == 1
    assert np.array_equal(schur_matrices[0], _syrk_schur(huge, np.ones(p.q)), equal_nan=True)


def test_a_pruned_schur_matrix_that_fails_is_factored_again_with_every_row(schur_matrices):
    # H = 0; the heavy rows (w = 1e8) span only the first k columns and the
    # light ones (w = 1e-9, below rounding) the rest, so the pruned Schur
    # matrix is singular and the full one block-diagonal and positive
    # definite. A Schur matrix that needs a dropped row has condition
    # >= 1 / (q u), so with both sets of rows spread over every column the
    # rounding of the heavy terms would make the full one fail too
    n, k = _PRUNE_MIN_N, 40
    rng = np.random.default_rng(n)
    A = scipy.linalg.block_diag(*(np.linalg.qr(rng.standard_normal((m, m)))[0] for m in (k, n - k)))
    p = QpProblem(np.zeros((n, n)), np.zeros(n), A, np.ones(n))
    w = np.where(np.arange(n) < k, 1e8, 1e-9)
    # the reference: the dense, symmetrized H + A'(WA) through scipy's Cholesky wrappers
    S = p.H + p.A.T @ (w[:, None] * p.A)
    factor = scipy.linalg.cho_factor(0.5 * (S + S.T), lower=True)
    for _ in range(5):
        rhs = rng.standard_normal(n)
        schur_matrices.clear()
        dz = p._schur_solve(w, rhs)
        pruned, every_row = schur_matrices
        assert np.array_equal(pruned, _syrk_schur(p, w, np.arange(n) < k))
        assert scipy.linalg.lapack.dpotrf(pruned, lower=1)[1] == k + 1
        assert np.array_equal(every_row, _syrk_schur(p, w))
        assert np.isfinite(dz).all()
        reference = scipy.linalg.cho_solve(factor, rhs)
        assert np.linalg.norm(S @ dz - rhs) <= 10.0 * np.linalg.norm(S @ reference - rhs)


def test_one_lapack_call_per_newton_step(schur_matrices):
    # posv factors and solves in one call; only a pruned matrix that fails
    # makes a second one, with every row
    rng = np.random.default_rng(20)
    for _ in range(5):
        p = random_strictly_convex_qp(20, 40, rng)
        schur_matrices.clear()
        result = fbrs_solve(p, random_infeasible_start(p, rng))
        assert result.status == Status.SOLVED
        assert len(schur_matrices) == result.iterations > 0
    n, k = _PRUNE_MIN_N, 40
    A = scipy.linalg.block_diag(*(np.linalg.qr(rng.standard_normal((m, m)))[0] for m in (k, n - k)))
    p = QpProblem(np.zeros((n, n)), np.zeros(n), A, np.ones(n))
    schur_matrices.clear()
    p._schur_solve(np.where(np.arange(n) < k, 1e8, 1e-9), rng.standard_normal(n))
    assert len(schur_matrices) == 2
    # a pruned matrix that is definite takes one call
    p = random_strictly_convex_qp(100, 200, rng)
    w = 10.0 ** rng.uniform(-8, 8, p.q)
    keep = _kept_rows(p, w)
    assert 0 < np.count_nonzero(keep) < p.q
    schur_matrices.clear()
    p._schur_solve(w, rng.standard_normal(p.n))
    assert len(schur_matrices) == 1
    assert np.array_equal(schur_matrices[0], _syrk_schur(p, w, keep))


@pytest.mark.parametrize("make_qp, pruned", [
    (lambda rng: random_strictly_convex_qp(20, 40, rng), False),
    (lambda rng: random_strictly_convex_qp(100, 200, rng), True),
    (lambda rng: condense(mass_spring_chain(40)), False),
], ids=["dense-20", "pruned-100", "box-only"])
def test_posv_gives_the_potrf_potrs_bits(make_qp, pruned, schur_matrices):
    rng = np.random.default_rng(64)
    p = make_qp(rng)
    assert (p._schur_solve.func is _pruned_solve) == pruned
    for _ in range(5):
        w = 10.0 ** rng.uniform(-8, 8, p.q)
        rhs = rng.standard_normal(p.n)
        schur_matrices.clear()
        dz = p._schur_solve(w, rhs)
        (S,) = schur_matrices
        if pruned:
            keep = _kept_rows(p, w)
            assert 0 < np.count_nonzero(keep) < p.q
            assert np.array_equal(S, _syrk_schur(p, w, keep))
        factor, info = scipy.linalg.lapack.dpotrf(S, lower=1, clean=0)
        assert info == 0
        assert np.array_equal(dz, scipy.linalg.lapack.dpotrs(factor, rhs, lower=1)[0])


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
