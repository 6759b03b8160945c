import dataclasses
import pickle
import warnings

import numpy as np
import pytest

from fbrs import (
    InvalidConfig,
    InvalidProblem,
    InvalidSpec,
    MpcSequenceError,
    PrimalDualPoint,
    SolverConfig,
    Status,
    validate_problem,
)
from fbrs import mpc, newton
from fbrs.fb import _norm_F0, _norm_Fnr
from fbrs.mpc import (
    BUNDLED_EXAMPLES,
    LtiMpcSpec,
    condense,
    double_integrator,
    mass_spring_chain,
    prediction_matrices,
    run_sequence,
    shift_solution,
)
from fbrs.newton import fbrs_solve
from fbrs.oracle import solve_by_enumeration
from fbrs.problem import _box_solve


def _simple_spec(horizon=3, with_state_bounds=False):
    kwargs = {}
    if with_state_bounds:
        kwargs = dict(x_lo=np.array([-10.0, -10.0]), x_hi=np.array([10.0, 10.0]))
    return LtiMpcSpec(
        Ad=np.array([[1.0, 0.1], [0.0, 1.0]]),
        Bd=np.array([[0.005], [0.1]]),
        Q=np.eye(2),
        R=np.array([[0.1]]),
        horizon=horizon,
        u_lo=np.array([-1.0]),
        u_hi=np.array([1.0]),
        x_init=np.array([1.0, 0.0]),
        **kwargs,
    )


def test_spec_validation():
    good = _simple_spec()
    fields = dict(Ad=good.Ad, Bd=good.Bd, Q=good.Q, R=good.R, horizon=3,
                  u_lo=good.u_lo, u_hi=good.u_hi, x_init=good.x_init)
    # (changed fields, name the error must mention)
    cases = [
        (dict(R=np.zeros((1, 1))), "R"),
        (dict(Q=-np.eye(2)), "Q"),
        (dict(u_lo=np.array([1.0]), u_hi=np.array([1.0])), "u_lo"),
        (dict(horizon=0), "horizon"),
        (dict(x_init=np.zeros(3)), "x_init"),
        (dict(x_lo=np.zeros(2)), "x_lo"),
        (dict(Ad=np.array([[np.nan, 0.1], [0.0, 1.0]])), "Ad"),
        (dict(Ad=np.ones((2, 3))), "Ad must be square"),
        (dict(u_hi=np.array([np.inf])), "u_hi"),
        (dict(horizon=2.5), "horizon"),
        (dict(x_lo=np.ones(2), x_hi=-np.ones(2)), "x_lo"),
        (dict(R=np.array([[np.nan]])), "R"),
        (dict(Q=[["a", 0.0], [0.0, 1.0]]), "Q"),
        (dict(Q=np.eye(2) * (1 + 0j)), "Q"),
        (dict(x_init=[10**400, 0.0]), "x_init"),
        (dict(x_init=np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[D]")), "x_init"),
        (dict(u_hi=["1.0"]), "u_hi"),
        # an object array with a date or a numeric string among numbers
        (dict(x_init=[np.datetime64("2020-01-01"), 0.0]), "x_init"),
        (dict(u_lo=np.array(["-1.0"], dtype=object)), "u_lo"),
        # a tiny negative Q is not PSD however small its scale: it condenses to
        # a nonconvex QP
        (dict(Ad=[[1.0]], Bd=[[1.0]], Q=[[-5e-11]], R=[[1e-12]], horizon=1, u_lo=[-1.0], u_hi=[1.0],
              x_init=[0.0]), "Q"),
    ]
    for changed, name in cases:
        with pytest.raises(InvalidSpec, match=name):
            LtiMpcSpec(**{**fields, **changed})
    # rounding of a large PSD Q (smallest eigenvalue about -5e-4 against 1e13)
    # is not a negative eigenvalue
    M = np.random.default_rng(0).standard_normal((6, 3))
    big = mass_spring_chain(8)
    Q = 1e12 * M @ M.T
    assert np.linalg.eigvalsh(0.5 * Q + 0.5 * Q.T)[0] < -1e-10
    assert LtiMpcSpec(big.Ad, big.Bd, Q, big.R, 8, big.u_lo, big.u_hi, big.x_init).Q[0, 0] == Q[0, 0]
    # the functions that take a spec: (call, text the error must contain)
    calls = [
        (lambda: condense(good, [10**400] * 2), "x_init"),
        (lambda: condense(fields), "spec must be a LtiMpcSpec, got dict"),
        (lambda: run_sequence(None, 1), "spec must be a LtiMpcSpec, got NoneType"),
        (lambda: shift_solution([good], PrimalDualPoint.zeros(3, 6)), "spec must be a LtiMpcSpec, got list"),
    ]
    for call, text in calls:
        with pytest.raises(InvalidSpec, match=text):
            call()


def test_spec_arrays_read_only():
    spec = _simple_spec(with_state_bounds=True)
    for name in ("Ad", "Bd", "Q", "R", "u_lo", "u_hi", "x_init", "x_lo", "x_hi"):
        assert not getattr(spec, name).flags.writeable, name
    with pytest.raises(ValueError):
        spec.u_hi[0] = -5.0


def test_condense_dimensions():
    qp = condense(_simple_spec(horizon=2))
    assert qp.n == 2
    assert qp.q == 4


def test_condense_with_state_bounds_dimensions():
    qp = condense(_simple_spec(horizon=3, with_state_bounds=True))
    assert qp.n == 3
    assert qp.q == 2 * 3 * 1 + 2 * 3 * 2


def test_condense_zero_input_matrix():
    spec = LtiMpcSpec(
        Ad=np.array([[0.9]]), Bd=np.array([[0.0]]), Q=np.eye(1), R=np.eye(1),
        horizon=1, u_lo=np.array([-1.0]), u_hi=np.array([1.0]), x_init=np.array([5.0]),
    )
    qp = condense(spec)
    assert qp.f == pytest.approx(np.zeros(1))
    result = fbrs_solve(qp, PrimalDualPoint.zeros(qp.n, qp.q))
    assert result.x.z == pytest.approx([0.0], abs=1e-7)


def test_prediction_matrices_toeplitz_blocks_are_exact_products():
    # each block is the product powers[i - j] @ Bd with the powers formed by
    # left-multiplication, bit for bit; A (A^(k-1) B) would round differently
    spec = mass_spring_chain(horizon=40)
    nx, nu = spec.nx, spec.nu
    powers = [np.eye(nx)]
    for _ in range(40):
        powers.append(spec.Ad @ powers[-1])
    Phi, G = prediction_matrices(spec)
    assert np.array_equal(Phi, np.vstack(powers[1:]))
    for i in range(40):
        for j in range(40):
            block = G[i * nx:(i + 1) * nx, j * nu:(j + 1) * nu]
            expected = powers[i - j] @ spec.Bd if j <= i else np.zeros((nx, nu))
            assert np.array_equal(block, expected), (i, j)


def test_prediction_matrices_match_simulation():
    spec = _simple_spec(horizon=4)
    rng = np.random.default_rng(1)
    Phi, G = prediction_matrices(spec)
    x0 = rng.standard_normal(2)
    U = rng.standard_normal(4)
    stacked = Phi @ x0 + G @ U
    x = x0
    for k in range(4):
        x = spec.Ad @ x + spec.Bd @ U[k : k + 1]
        assert stacked[2 * k : 2 * k + 2] == pytest.approx(x)


def test_condensed_qps_pass_validation():
    rng = np.random.default_rng(2)
    for name, build in BUNDLED_EXAMPLES.items():
        spec = build(horizon=4)
        for _ in range(5):
            state = rng.standard_normal(spec.nx)
            assert validate_problem(condense(spec, state), 1e-10).passed, name


def test_condense_matches_enumeration_oracle():
    spec = double_integrator(horizon=5)
    qp = condense(spec, np.array([1.0, 0.0]))
    star = solve_by_enumeration(qp)
    result = fbrs_solve(qp, PrimalDualPoint.zeros(qp.n, qp.q), SolverConfig(tol=1e-10))
    assert result.status == Status.SOLVED
    assert result.x.z == pytest.approx(star.z, abs=1e-7)
    assert result.x.v == pytest.approx(star.v, abs=1e-7)


def _velocity_capped_spec():
    # velocity cap forces the predicted states onto the bound
    return LtiMpcSpec(
        Ad=np.array([[1.0, 0.1], [0.0, 1.0]]),
        Bd=np.array([[0.005], [0.1]]),
        Q=np.diag([1.0, 0.0]),
        R=np.array([[0.001]]),
        horizon=4,
        u_lo=np.array([-5.0]),
        u_hi=np.array([5.0]),
        x_init=np.array([2.0, 0.0]),
        x_lo=np.array([-100.0, -0.2]),
        x_hi=np.array([100.0, 0.2]),
    )


def test_state_bound_rows_bind():
    spec = _velocity_capped_spec()
    qp = condense(spec)
    result = fbrs_solve(qp, PrimalDualPoint.zeros(qp.n, qp.q), SolverConfig(tol=1e-10))
    assert result.status == Status.SOLVED
    Phi, G = prediction_matrices(spec)
    states = (Phi @ spec.x_init + G @ result.x.z).reshape(4, 2)
    assert np.all(states[:, 1] >= -0.2 - 1e-8)
    assert np.min(states[:, 1]) == pytest.approx(-0.2, abs=1e-6)


@pytest.mark.parametrize("mode", ["cold", "warm", "shift"])
def test_run_sequence_matches_condense_loop_with_state_box(mode):
    # the state-dependent rows of b change at every step here
    spec = _velocity_capped_spec()
    cfg = SolverConfig(tol=1e-8)
    trajectory, stats = run_sequence(spec, 12, mode, cfg)
    state, previous = spec.x_init, None
    states, inputs, iterations = [state], [], []
    for _ in range(12):
        qp = condense(spec, state)
        if previous is None or mode == "cold":
            x0 = PrimalDualPoint.zeros(qp.n, qp.q)
        else:
            x0 = shift_solution(spec, previous) if mode == "shift" else previous
        result = fbrs_solve(qp, x0, cfg)
        u0 = result.x.z[:spec.nu]
        state = spec.Ad @ state + spec.Bd @ u0
        states.append(state)
        inputs.append(u0)
        iterations.append(result.iterations)
        previous = result.x
    assert np.array_equal(trajectory.states, np.array(states))
    assert np.array_equal(trajectory.inputs, np.array(inputs))
    assert [r.iterations for r in stats.records] == iterations
    assert np.min(trajectory.states[:, 1]) == pytest.approx(-0.2, abs=1e-6)


@pytest.mark.parametrize("make_spec", [_velocity_capped_spec, double_integrator])
def test_run_sequence_step_qps_share_h_and_a(monkeypatch, make_spec):
    # H and A are checked once per run: every step's QP is its own object
    # (perfbench keeps each one beside its result) but holds the first
    # step's H and A, and still equals condense at the step's state
    spec = make_spec()
    qps = []

    def capturing(qp, x0, cfg):
        qps.append(qp)
        return fbrs_solve(qp, x0, cfg)

    monkeypatch.setattr(mpc, "fbrs_solve", capturing)
    trajectory, _ = run_sequence(spec, 8, "warm")
    assert len({id(qp) for qp in qps}) == 8
    for qp, state in zip(qps, trajectory.states):
        assert qp.H is qps[0].H and qp.A is qps[0].A
        fresh = condense(spec, state)
        for name in ("H", "f", "A", "b"):
            assert np.array_equal(getattr(qp, name), getattr(fresh, name))
        assert qp.symmetry_defect == fresh.symmetry_defect
        assert qp._schur_solve.func is fresh._schur_solve.func
        assert (qp._schur_solve.func is _box_solve) == (spec.x_lo is None)
        if spec.x_lo is None:
            assert np.array_equal(qp._schur_solve.args[1], fresh._schur_solve.args[1])


def test_with_rhs_checks_f_and_b():
    qp = condense(_velocity_capped_spec())
    f, b = qp.f.copy(), qp.b.copy()
    f[0], b[-1] = np.inf, np.nan
    with pytest.raises(InvalidProblem, match="f must have finite"):
        qp._with_rhs(f, qp.b)
    with pytest.raises(InvalidProblem, match="b must have finite"):
        qp._with_rhs(qp.f, b)
    with pytest.raises(InvalidProblem, match="b must have shape"):
        qp._with_rhs(qp.f, qp.b[1:])
    # given only f, the new problem keeps this one's b; it shares the stored
    # n and q either way
    for new in (qp._with_rhs(-qp.f), qp._with_rhs(-qp.f, qp.b)):
        assert (new.n, new.q) == (qp.n, qp.q) and {"n", "q"} <= vars(new).keys()
        assert new.f.tobytes() == (-qp.f).tobytes() and new.b.tobytes() == qp.b.tobytes()
    assert qp._with_rhs(qp.f).b is qp.b
    with pytest.raises(InvalidProblem, match="f must have finite"):
        qp._with_rhs(f)


def test_without_a_state_box_every_step_shares_one_b():
    # b depends on the state only through the state-box rows: without them
    # it is built and checked once per run, and each step's QP shares it
    spec = mass_spring_chain(8)
    build = mpc._condenser(spec)
    first, second = build(spec.x_init), build(-spec.x_init)
    assert first.b is second.b and not first.b.flags.writeable
    N = spec.horizon
    assert first.b.tobytes() == np.concatenate([np.tile(spec.u_hi, N), -np.tile(spec.u_lo, N)]).tobytes()
    assert second.f.tobytes() == condense(spec, -spec.x_init).f.tobytes()


def test_a_pickled_point_and_spec_load_read_only():
    # pickle loads arrays writeable: PrimalDualPoint and LtiMpcSpec make
    # them read-only again, as their constructors do, and the loaded spec
    # runs the closed loop with the original's bits
    point = pickle.loads(pickle.dumps(PrimalDualPoint.zeros(2, 3)))
    spec = mass_spring_chain(8)
    twin = pickle.loads(pickle.dumps(spec))
    with pytest.raises(ValueError):
        point.z[0] = 1.0
    with pytest.raises(ValueError):
        twin.u_hi[0] = -5.0
    arrays = [point.z, point.v] + [getattr(twin, f.name) for f in dataclasses.fields(twin)]
    assert not any(a.flags.writeable for a in arrays if a is not None and not isinstance(a, int))
    (path, stats), (twin_path, twin_stats) = (run_sequence(s, 50, "warm") for s in (spec, twin))
    assert path.states.tobytes() == twin_path.states.tobytes()
    assert path.inputs.tobytes() == twin_path.inputs.tobytes()
    assert [(r.iterations, r.norm_F0, r.norm_Fnr) for r in stats.records] == \
        [(r.iterations, r.norm_F0, r.norm_Fnr) for r in twin_stats.records]


def test_run_sequence_builds_prediction_matrices_once(monkeypatch):
    calls = []

    def counting(spec):
        calls.append(spec)
        return prediction_matrices(spec)

    monkeypatch.setattr(mpc, "prediction_matrices", counting)
    run_sequence(double_integrator(), 20, "warm")
    assert len(calls) == 1


def test_run_sequence_single_step_modes_agree():
    spec = _simple_spec()
    _, cold = run_sequence(spec, 1, "cold")
    _, warm = run_sequence(spec, 1, "warm")
    assert cold.records[0].iterations == warm.records[0].iterations


def test_applied_input_is_head_of_solution():
    spec = _simple_spec(horizon=4)
    cfg = SolverConfig(tol=1e-8)
    trajectory, _ = run_sequence(spec, 1, "cold", cfg)
    direct = fbrs_solve(condense(spec), PrimalDualPoint.zeros(4, 8), cfg)
    assert np.array_equal(trajectory.inputs[0], direct.x.z[: spec.nu])


def test_closed_loop_regulates_double_integrator():
    trajectory, stats = run_sequence(double_integrator(), 50, "cold", SolverConfig(tol=1e-6))
    assert all(r.status == "Solved" for r in stats.records)
    assert np.linalg.norm(trajectory.states[-1]) <= 1e-2


@pytest.mark.parametrize("name", sorted(BUNDLED_EXAMPLES))
def test_warmstart_dominance_on_bundled_examples(name):
    spec = BUNDLED_EXAMPLES[name]()
    cfg = SolverConfig(tol=1e-6)
    _, cold = run_sequence(spec, 30, "cold", cfg)
    _, warm = run_sequence(spec, 30, "warm", cfg)
    assert warm.mean_iterations <= 0.6 * cold.mean_iterations


def test_shifted_warmstart_mode_runs():
    # at a long horizon the unshifted guess is one stage out of step, and the
    # shifted one is close to the next solution
    spec = double_integrator(horizon=40)
    cfg = SolverConfig(tol=1e-6)
    _, warm = run_sequence(spec, 50, "warm", cfg)
    _, shift = run_sequence(spec, 50, "shift", cfg)
    assert all(r.status == "Solved" for r in shift.records)
    assert shift.mean_iterations < warm.mean_iterations


def test_warm_mass_spring_episode_iterations_are_pinned():
    # recorded with the dense Schur product H + A'WA: a rounding change on the
    # input-box QP's diagonal Schur path shows here
    _, stats = run_sequence(mass_spring_chain(40), 50, "warm")
    assert [r.iterations for r in stats.records] == [
        20, 12, 10, 10, 11, 10, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9,
        6, 5, 5, 5, 5, 5, 5, 5, 5, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    ]


def test_shift_solution_rejects_mismatched_point():
    # double_integrator() condenses to (n, q) = (8, 16)
    with pytest.raises(InvalidSpec, match="x has"):
        shift_solution(double_integrator(), PrimalDualPoint.zeros(3, 5))
    with pytest.raises(InvalidSpec, match="x must be a PrimalDualPoint"):
        shift_solution(double_integrator(), np.zeros(3))


def test_shift_solution_moves_stages():
    spec = _simple_spec(horizon=3)
    z = np.array([1.0, 2.0, 3.0])
    v = np.arange(1.0, 7.0)  # two groups of three stages (nu = 1)
    shifted = shift_solution(spec, PrimalDualPoint(z, v))
    assert shifted.z == pytest.approx([2.0, 3.0, 3.0])
    assert shifted.v == pytest.approx([2.0, 3.0, 3.0, 5.0, 6.0, 6.0])


def test_sequence_error_carries_step():
    spec = double_integrator()
    with pytest.raises(MpcSequenceError) as excinfo:
        run_sequence(spec, 5, "cold", SolverConfig(tol=1e-12, max_iters=1))
    assert excinfo.value.step == 0


def test_sequence_stats_aggregates_and_csv(tmp_path):
    spec = double_integrator()
    _, stats = run_sequence(spec, 10, "cold", SolverConfig(tol=1e-6))
    iters = [r.iterations for r in stats.records]
    times = [r.solve_time for r in stats.records]
    assert stats.mean_iterations == pytest.approx(np.mean(iters))
    assert stats.max_iterations == max(iters)
    assert stats.mean_time == pytest.approx(np.mean(times))
    assert stats.max_time == max(times)
    out = tmp_path / "stats.csv"
    stats.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "step,status,iterations,norm_F0,norm_Fnr,solve_time"
    assert len(lines) == 11


def test_record_norms_are_formed_when_read(monkeypatch, tmp_path):
    # each QpSolveRecord keeps its solve's last IterationRecord: an unread
    # warm mass-spring N=40 run forms ||F_0|| only on the passes with
    # _CERTIFIED tol < ||F_eps|| <= 2 tol and no ||F_nr||, and the records
    # and write_csv then read the norms formed eagerly from the same solves
    calls = {"F0": 0, "Fnr": 0}
    eager, in_band = [], []

    def counting(name, norm):
        def counted(point):
            calls[name] += 1
            return norm(point)
        return counted

    def recording_solve(p, x0, cfg):
        result = fbrs_solve(p, x0, cfg)
        with np.errstate(all="ignore"):
            eager.append((_norm_F0(result.trace[-1]._point), _norm_Fnr(result.trace[-1]._point)))
        in_band.append([newton._CERTIFIED * cfg.tol < rec.norm_Feps <= 2.0 * cfg.tol for rec in result.trace])
        return result

    monkeypatch.setattr(newton, "_norm_F0", counting("F0", _norm_F0))
    monkeypatch.setattr(newton, "_norm_Fnr", counting("Fnr", _norm_Fnr))
    monkeypatch.setattr(mpc, "fbrs_solve", recording_solve)
    _, stats = run_sequence(mass_spring_chain(40), 50, "warm")
    band_passes, band_exits = sum(map(sum, in_band)), sum(passes[-1] for passes in in_band)
    assert calls == {"F0": band_passes, "Fnr": 0}
    assert band_exits == 17
    assert [(r.norm_F0, r.norm_Fnr) for r in stats.records] == eager
    read = {"F0": band_passes + 50 - band_exits, "Fnr": 50}
    assert calls == read
    out = tmp_path / "stats.csv"
    stats.write_csv(out)
    rows = [f"{r.step},{r.status},{r.iterations},{f0:.17g},{fnr:.17g},{r.solve_time:.17g}\n"
            for r, (f0, fnr) in zip(stats.records, eager)]
    assert out.read_bytes() == ("step,status,iterations,norm_F0,norm_Fnr,solve_time\n" + "".join(rows)).encode()
    assert calls == read


def test_overflowing_predictions_are_an_invalid_spec():
    # 10^400 overflows Phi at horizon 400; at horizon 300 Phi is finite but
    # G' Qbar G overflows. Both name the fields at fault, and no floating-point
    # warning escapes
    for horizon in (400, 300):
        spec = LtiMpcSpec(
            Ad=[[10.0]], Bd=[[1.0]], Q=[[1.0]], R=[[1.0]], horizon=horizon,
            u_lo=[-1.0], u_hi=[1.0], x_init=[1.0],
        )
        with pytest.raises(InvalidSpec, match="Ad over horizon"):
            condense(spec)
        with pytest.raises(InvalidSpec, match="Ad over horizon"):
            run_sequence(spec, 2)


def test_overflowing_state_is_an_invalid_spec():
    # finite states whose f (first) or state-box b (second, in x_hi - predicted)
    # overflows: InvalidSpec names the state, and no floating-point warning escapes
    box = dict(x_lo=[-1e308], x_hi=[1e308])
    for Q, kwargs in [([[10.0]], {}), ([[1e-3]], box)]:
        spec = LtiMpcSpec(
            Ad=[[1.0]], Bd=[[1.0]], Q=Q, R=[[1.0]], horizon=3,
            u_lo=[-1.0], u_hi=[1.0], x_init=[-1e308], **kwargs,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidSpec, match="state"):
                condense(spec)
            with pytest.raises(InvalidSpec, match="state"):
                run_sequence(spec, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidSpec, match="state"):
                condense(dataclasses.replace(spec, x_init=[1.0]), [1e308])


def test_run_sequence_rejects_bad_arguments():
    spec = _simple_spec()
    with pytest.raises(InvalidSpec):
        run_sequence(spec, 0, "cold")
    with pytest.raises(InvalidSpec):
        run_sequence(spec, 5, "tepid")
    with pytest.raises(InvalidSpec, match="steps"):
        run_sequence(spec, 2.5)
    # a falsy cfg is not taken for None
    with pytest.raises(InvalidConfig, match="cfg"):
        run_sequence(spec, 2, "cold", {})


def test_mass_spring_chain_shapes():
    spec = mass_spring_chain(horizon=6)
    assert spec.nx == 6
    assert spec.nu == 2
    qp = condense(spec)
    assert qp.n == 12
    assert qp.q == 24
