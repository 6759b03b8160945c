import numpy as np
import pytest

from fbrs import (
    InvalidConfig,
    InvalidSpec,
    MpcSequenceError,
    PrimalDualPoint,
    SolverConfig,
    Status,
    validate_problem,
)
from fbrs import mpc
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
        (dict(u_hi=np.array([np.inf])), "u_hi"),
        (dict(horizon=2.5), "horizon"),
        (dict(x_lo=np.ones(2), x_hi=-np.ones(2)), "x_lo"),
        (dict(R=np.array([[np.nan]])), "R"),
        (dict(Q=[["a", 0.0], [0.0, 1.0]]), "Q"),
        (dict(Q=np.eye(2) * (1 + 0j)), "Q"),
        (dict(x_init=[10**400, 0.0]), "x_init"),
    ]
    for changed, name in cases:
        with pytest.raises(InvalidSpec, match=name):
            LtiMpcSpec(**{**fields, **changed})
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
