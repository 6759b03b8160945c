"""Condensed linear MPC harness for warm/cold-start experiments.

The equality dynamics x_{k+1} = Ad x_k + Bd u_k are eliminated by substitution,
so each QP decides the stacked input sequence U and carries only box
inequalities. A closed-loop run re-condenses from the measured state at every
step and can seed each QP with the previous solution, as it is or shifted by
one stage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidSpec, MpcSequenceError
from .newton import SolverConfig, Status, fbrs_solve
from .problem import PrimalDualPoint, QpProblem, _check_dims, _count, _frozen, _readonly


@dataclass(frozen=True)
class LtiMpcSpec:
    """A discrete-time LTI regulation problem over a finite horizon.

    Stage cost x'Qx + u'Ru (Q PSD, R strictly PD), input box u_lo <= u <= u_hi,
    optional state box x_lo <= x <= x_hi applied to the predicted states 1..N.
    Arrays become read-only float copies, Q and R symmetrized; InvalidSpec names
    a field that is not finite, is misshapen, or breaks lo < hi or horizon >= 1.
    """

    Ad: np.ndarray
    Bd: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    horizon: int
    u_lo: np.ndarray
    u_hi: np.ndarray
    x_init: np.ndarray
    x_lo: np.ndarray | None = None
    x_hi: np.ndarray | None = None

    def __post_init__(self):
        Ad = _frozen(self.Ad, "Ad", (None, None), InvalidSpec)
        nx = Ad.shape[0]
        if Ad.shape[1] != nx:
            raise InvalidSpec(f"Ad must be square, got shape {Ad.shape}")
        Bd = _frozen(self.Bd, "Bd", (nx, None), InvalidSpec)
        nu = Bd.shape[1]
        Q = _frozen(self.Q, "Q", (nx, nx), InvalidSpec)
        R = _frozen(self.R, "R", (nu, nu), InvalidSpec)
        Q, R = _readonly(0.5 * (Q + Q.T)), _readonly(0.5 * (R + R.T))
        if np.min(np.linalg.eigvalsh(Q)) < -1e-10:
            raise InvalidSpec("Q must be positive semidefinite")
        try:
            scipy.linalg.cho_factor(R)
        except np.linalg.LinAlgError as exc:
            raise InvalidSpec("R must be strictly positive definite") from exc
        _count(self.horizon, "horizon", InvalidSpec)
        if (self.x_lo is None) != (self.x_hi is None):
            raise InvalidSpec("x_lo and x_hi must be given together or not at all")
        x_init = _frozen(self.x_init, "x_init", (nx,), InvalidSpec)
        checked = dict(Ad=Ad, Bd=Bd, Q=Q, R=R, x_init=x_init)
        boxes = [("u_lo", "u_hi", nu)] + ([("x_lo", "x_hi", nx)] if self.x_lo is not None else [])
        for lo, hi, width in boxes:
            for k in (lo, hi):
                checked[k] = _frozen(getattr(self, k), k, (width,), InvalidSpec)
            if not np.all(checked[lo] < checked[hi]):
                raise InvalidSpec(f"{lo} must be strictly below {hi} componentwise")
        vars(self).update(checked)

    @property
    def nx(self) -> int:
        return self.Ad.shape[0]

    @property
    def nu(self) -> int:
        return self.Bd.shape[1]


def prediction_matrices(spec: LtiMpcSpec):
    """(Phi, G) with stacked predictions X = Phi x0 + G U for states 1..N."""
    nx, nu, N = spec.nx, spec.nu, spec.horizon
    powers = [np.eye(nx)]
    for _ in range(N):
        powers.append(spec.Ad @ powers[-1])
    Phi = np.vstack(powers[1:])
    G = np.zeros((N * nx, N * nu))
    for i in range(N):
        for j in range(i + 1):
            G[i * nx:(i + 1) * nx, j * nu:(j + 1) * nu] = powers[i - j] @ spec.Bd
    return Phi, G


def condense(spec: LtiMpcSpec, x_init: np.ndarray | None = None) -> QpProblem:
    """Eliminate the dynamics and return the dense QP in the stacked inputs.

    H = G' Qbar G + Rbar and f = G' Qbar Phi x0 with Qbar, Rbar the
    block-diagonal stage weights; H is strictly positive definite because Rbar
    is. Constraints are the input box (2 N nu rows) followed, when state
    bounds are present, by the predicted-state box (2 N nx rows). An x_init
    given here, a finite nx-vector (else InvalidSpec), replaces spec.x_init.
    """
    x0 = spec.x_init if x_init is None else _frozen(x_init, "x_init", (spec.nx,), InvalidSpec)
    N, nu, nx = spec.horizon, spec.nu, spec.nx
    Phi, G = prediction_matrices(spec)
    Qbar = np.kron(np.eye(N), spec.Q)
    Rbar = np.kron(np.eye(N), spec.R)
    H = G.T @ Qbar @ G + Rbar
    f = G.T @ (Qbar @ (Phi @ x0))
    eye_u = np.eye(N * nu)
    rows = [eye_u, -eye_u]
    rhs = [np.tile(spec.u_hi, N), -np.tile(spec.u_lo, N)]
    if spec.x_lo is not None:
        rows += [G, -G]
        rhs += [np.tile(spec.x_hi, N) - Phi @ x0, Phi @ x0 - np.tile(spec.x_lo, N)]
    return QpProblem(H, f, np.vstack(rows), np.concatenate(rhs))


def _shift_stages(vec: np.ndarray, width: int) -> np.ndarray:
    """Drop the first stage block and repeat the last one."""
    return np.concatenate([vec[width:], vec[-width:]])


def shift_solution(spec: LtiMpcSpec, x: PrimalDualPoint) -> PrimalDualPoint:
    """Advance a solution x of condense(spec)'s QP (else InvalidSpec) by one
    stage for reuse at the next sampling instant."""
    # per-stage widths of the condensed constraint row groups: input box, then state box
    groups = [spec.nu, spec.nu] + ([spec.nx, spec.nx] if spec.x_lo is not None else [])
    _check_dims(x, spec.horizon * spec.nu, spec.horizon * sum(groups), "x", InvalidSpec)
    z = _shift_stages(x.z, spec.nu)
    pieces = []
    offset = 0
    for width in groups:
        block = x.v[offset:offset + width * spec.horizon]
        pieces.append(_shift_stages(block, width))
        offset += width * spec.horizon
    return PrimalDualPoint(z, np.concatenate(pieces))


@dataclass(frozen=True)
class QpSolveRecord:
    step: int
    status: str
    iterations: int
    norm_F0: float
    norm_Fnr: float
    solve_time: float


@dataclass(frozen=True)
class SequenceStats:
    """Per-QP outcomes of a closed-loop run plus their aggregates."""

    records: tuple[QpSolveRecord, ...]

    @property
    def mean_iterations(self) -> float:
        return float(np.mean([r.iterations for r in self.records]))

    @property
    def max_iterations(self) -> int:
        return max(r.iterations for r in self.records)

    @property
    def mean_time(self) -> float:
        return float(np.mean([r.solve_time for r in self.records]))

    @property
    def max_time(self) -> float:
        return max(r.solve_time for r in self.records)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("step,status,iterations,norm_F0,norm_Fnr,solve_time\n")
            for r in self.records:
                fh.write(
                    f"{r.step},{r.status},{r.iterations},{r.norm_F0:.17g},"
                    f"{r.norm_Fnr:.17g},{r.solve_time:.17g}\n"
                )


@dataclass(frozen=True)
class Trajectory:
    states: np.ndarray  # (steps + 1, nx)
    inputs: np.ndarray  # (steps, nu)


def run_sequence(
    spec: LtiMpcSpec,
    steps: int,
    start_mode: str = "cold",
    cfg: SolverConfig | None = None,
):
    """Closed-loop simulation: condense at the current state, solve, apply the
    first input, advance through (Ad, Bd).

    start_mode "cold" always starts from zero, "warm" seeds each QP with the
    previous primal-dual solution and "shift" with that solution advanced by
    one stage (shift_solution). Every QP must reach Solved, otherwise
    MpcSequenceError carries the failing step index. Returns
    (Trajectory, SequenceStats). InvalidSpec unless steps is an integer >= 1.
    """
    _count(steps, "steps", InvalidSpec)
    if start_mode not in ("cold", "warm", "shift"):
        raise InvalidSpec(f"start_mode must be 'cold', 'warm' or 'shift', got {start_mode!r}")
    cfg = cfg or SolverConfig(tol=1e-6)
    state = spec.x_init
    previous: PrimalDualPoint | None = None
    states = [state]
    inputs = []
    records = []
    for step in range(steps):
        qp = condense(spec, state)
        if previous is None or start_mode == "cold":
            x0 = PrimalDualPoint.zeros(qp.n, qp.q)
        elif start_mode == "shift":
            x0 = shift_solution(spec, previous)
        else:
            x0 = previous
        tic = time.perf_counter()
        result = fbrs_solve(qp, x0, cfg)
        elapsed = time.perf_counter() - tic
        if result.status != Status.SOLVED:
            raise MpcSequenceError(step, result.status, f"QP ended with {result.status.value}")
        u0 = result.x.z[:spec.nu]
        state = spec.Ad @ state + spec.Bd @ u0
        states.append(state)
        inputs.append(u0)
        records.append(
            QpSolveRecord(
                step=step,
                status=result.status.value,
                iterations=result.iterations,
                norm_F0=result.final_norm_F0,
                norm_Fnr=result.final_norm_Fnr,
                solve_time=elapsed,
            )
        )
        previous = result.x
    return Trajectory(np.array(states), np.array(inputs)), SequenceStats(tuple(records))


def double_integrator(horizon: int = 8) -> LtiMpcSpec:
    """Sampled double integrator (dt = 0.1) with a unit input box.

    Started at position 2 so the actuator saturates through the transient;
    the closed loop settles below 1e-2 state norm within 50 steps.
    """
    return LtiMpcSpec(
        Ad=np.array([[1.0, 0.1], [0.0, 1.0]]),
        Bd=np.array([[0.005], [0.1]]),
        Q=np.diag([1.0, 0.1]),
        R=np.array([[0.01]]),
        horizon=horizon,
        u_lo=np.array([-1.0]),
        u_hi=np.array([1.0]),
        x_init=np.array([2.0, 0.0]),
    )


def mass_spring_chain(horizon: int = 8) -> LtiMpcSpec:
    """Three unit masses in a wall-anchored spring-damper chain (k = 2,
    c = 0.5), forces on the first and last mass, zero-order hold at dt = 0.1.

    The initial displacement (+2, 0, -2) keeps both actuators saturated for
    much of the transient.
    """
    k, c = 2.0, 0.5
    K = k * np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    C = c * np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    B = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    A_cont = np.block([[np.zeros((3, 3)), np.eye(3)], [-K, -C]])
    B_cont = np.vstack([np.zeros((3, 2)), B])
    dt = 0.1
    stacked = np.zeros((8, 8))
    stacked[:6, :6] = A_cont
    stacked[:6, 6:] = B_cont
    expm = scipy.linalg.expm(stacked * dt)
    return LtiMpcSpec(
        Ad=expm[:6, :6],
        Bd=expm[:6, 6:],
        Q=np.diag([1.0, 1.0, 1.0, 0.1, 0.1, 0.1]),
        R=0.01 * np.eye(2),
        horizon=horizon,
        u_lo=np.array([-1.0, -1.0]),
        u_hi=np.array([1.0, 1.0]),
        x_init=np.array([2.0, 0.0, -2.0, 0.0, 0.0, 0.0]),
    )


BUNDLED_EXAMPLES = {
    "double-integrator": double_integrator,
    "mass-spring": mass_spring_chain,
}
