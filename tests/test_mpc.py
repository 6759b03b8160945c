import numpy as np
import pytest

from fbrs import (
    InvalidSpec,
    MpcSequenceError,
    PrimalDualPoint,
    SolverConfig,
    Status,
    validate_problem,
)
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
    with pytest.raises(InvalidSpec):
        LtiMpcSpec(good.Ad, good.Bd, good.Q, np.zeros((1, 1)), 3, good.u_lo, good.u_hi, good.x_init)
    with pytest.raises(InvalidSpec):
        LtiMpcSpec(good.Ad, good.Bd, -np.eye(2), good.R, 3, good.u_lo, good.u_hi, good.x_init)
    with pytest.raises(InvalidSpec):
        LtiMpcSpec(good.Ad, good.Bd, good.Q, good.R, 3, np.array([1.0]), np.array([1.0]), good.x_init)
    with pytest.raises(InvalidSpec):
        LtiMpcSpec(good.Ad, good.Bd, good.Q, good.R, 0, good.u_lo, good.u_hi, good.x_init)
    with pytest.raises(InvalidSpec):
        LtiMpcSpec(good.Ad, good.Bd, good.Q, good.R, 3, good.u_lo, good.u_hi, np.zeros(3))
    with pytest.raises(InvalidSpec):
        LtiMpcSpec(good.Ad, good.Bd, good.Q, good.R, 3, good.u_lo, good.u_hi, good.x_init,
                   x_lo=np.zeros(2))


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


def test_state_bound_rows_bind():
    # velocity cap forces the predicted states onto the bound
    spec = LtiMpcSpec(
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
    qp = condense(spec)
    result = fbrs_solve(qp, PrimalDualPoint.zeros(qp.n, qp.q), SolverConfig(tol=1e-10))
    assert result.status == Status.SOLVED
    Phi, G = prediction_matrices(spec)
    states = (Phi @ spec.x_init + G @ result.x.z).reshape(4, 2)
    assert np.all(states[:, 1] >= -0.2 - 1e-8)
    assert np.min(states[:, 1]) == pytest.approx(-0.2, abs=1e-6)


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


def test_run_sequence_rejects_bad_arguments():
    spec = _simple_spec()
    with pytest.raises(InvalidSpec):
        run_sequence(spec, 0, "cold")
    with pytest.raises(InvalidSpec):
        run_sequence(spec, 5, "tepid")


def test_mass_spring_chain_shapes():
    spec = mass_spring_chain(horizon=6)
    assert spec.nx == 6
    assert spec.nu == 2
    qp = condense(spec)
    assert qp.n == 12
    assert qp.q == 24
