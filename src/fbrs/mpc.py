"""Condensed linear MPC harness for warm/cold-start experiments.

The equality dynamics x_{k+1} = Ad x_k + Bd u_k are eliminated by substitution,
so each QP decides the stacked input sequence U and carries only box
inequalities. A closed-loop run re-condenses from the measured state at every
step and can seed each QP with the previous solution, as it is or shifted by
one stage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import InvalidSpec, MpcSequenceError
from .newton import SolverConfig, Status, fbrs_solve
from .problem import PrimalDualPoint, QpProblem


@dataclass(frozen=True)
class LtiMpcSpec:
    """A discrete-time LTI regulation problem over a finite horizon.

    Stage cost x'Qx + u'Ru (Q PSD, R strictly PD), input box u_lo <= u <= u_hi,
    optional state box applied to the predicted states 1..N.
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
        Ad = np.atleast_2d(np.asarray(self.Ad, dtype=float))
        Bd = np.atleast_2d(np.asarray(self.Bd, dtype=float))
        nx = Ad.shape[0]
        if Ad.shape != (nx, nx):
            raise InvalidSpec(f"Ad must be square, got {Ad.shape}")
        if Bd.shape[0] != nx:
            raise InvalidSpec(f"Bd must have {nx} rows, got {Bd.shape}")
        nu = Bd.shape[1]
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        if Q.shape != (nx, nx):
            raise InvalidSpec(f"Q must be {nx}x{nx}, got {Q.shape}")
        if R.shape != (nu, nu):
            raise InvalidSpec(f"R must be {nu}x{nu}, got {R.shape}")
        if np.min(np.linalg.eigvalsh(0.5 * (Q + Q.T))) < -1e-10:
            raise InvalidSpec("Q must be positive semidefinite")
        try:
            scipy.linalg.cho_factor(0.5 * (R + R.T))
        except np.linalg.LinAlgError as exc:
            raise InvalidSpec("R must be strictly positive definite") from exc
        if self.horizon < 1:
            raise InvalidSpec("horizon must be >= 1")
        u_lo = np.atleast_1d(np.asarray(self.u_lo, dtype=float))
        u_hi = np.atleast_1d(np.asarray(self.u_hi, dtype=float))
        if u_lo.shape != (nu,) or u_hi.shape != (nu,):
            raise InvalidSpec(f"input bounds must have shape ({nu},)")
        if not np.all(u_lo < u_hi):
            raise InvalidSpec("u_lo must be strictly below u_hi componentwise")
        x_init = np.atleast_1d(np.asarray(self.x_init, dtype=float))
        if x_init.shape != (nx,):
            raise InvalidSpec(f"x_init must have shape ({nx},)")
        for name in ("x_lo", "x_hi"):
            bound = getattr(self, name)
            if bound is not None:
                bound = np.atleast_1d(np.asarray(bound, dtype=float))
                if bound.shape != (nx,):
                    raise InvalidSpec(f"{name} must have shape ({nx},)")
                object.__setattr__(self, name, bound)
        if (self.x_lo is None) != (self.x_hi is None):
            raise InvalidSpec("state bounds must be given as a pair or not at all")
        object.__setattr__(self, "Ad", Ad)
        object.__setattr__(self, "Bd", Bd)
        object.__setattr__(self, "Q", 0.5 * (Q + Q.T))
        object.__setattr__(self, "R", 0.5 * (R + R.T))
        object.__setattr__(self, "u_lo", u_lo)
        object.__setattr__(self, "u_hi", u_hi)
        object.__setattr__(self, "x_init", x_init)

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
    bounds are present, by the predicted-state box (2 N nx rows).
    """
    x0 = spec.x_init if x_init is None else np.atleast_1d(np.asarray(x_init, dtype=float))
    if x0.shape != (spec.nx,):
        raise InvalidSpec(f"x_init must have shape ({spec.nx},)")
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


def _constraint_groups(spec: LtiMpcSpec):
    """Stage-block layout of the condensed constraint rows, for shifted reuse."""
    groups = [spec.nu, spec.nu]
    if spec.x_lo is not None:
        groups += [spec.nx, spec.nx]
    return groups


def _shift_stages(vec: np.ndarray, width: int) -> np.ndarray:
    """Drop the first stage block and repeat the last one."""
    return np.concatenate([vec[width:], vec[-width:]])


def shift_solution(spec: LtiMpcSpec, x: PrimalDualPoint) -> PrimalDualPoint:
    """Advance a solution by one stage for reuse at the next sampling instant."""
    z = _shift_stages(x.z, spec.nu)
    pieces = []
    offset = 0
    for width in _constraint_groups(spec):
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
    (Trajectory, SequenceStats).
    """
    if steps < 1:
        raise InvalidSpec("steps must be >= 1")
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
