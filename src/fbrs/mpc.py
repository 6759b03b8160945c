"""Condensed linear MPC harness for warm/cold-start experiments.

The equality dynamics x_{k+1} = Ad x_k + Bd u_k are eliminated by substitution,
so each QP decides the stacked input sequence U and carries only box
inequalities. Only the linear term f and, with a state box, the state-box rows
of b depend on the measured state: a closed-loop run builds the rest of the
condensed QP once, forms f and b at every step, and can seed each QP with the
previous solution, as it is or shifted by one stage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import InvalidProblem, InvalidSpec, MpcSequenceError
from .newton import IterationRecord, SolverConfig, Status, fbrs_solve
from .problem import PrimalDualPoint, QpProblem, _check_dims, _check_type, _count, _frozen, _load_read_only, _readonly


@dataclass(frozen=True, eq=False)
class LtiMpcSpec:
    """A discrete-time LTI regulation problem over a finite horizon.

    Stage cost x'Qx + u'Ru (Q PSD, R strictly PD), input box u_lo <= u <= u_hi,
    optional state box x_lo <= x <= x_hi applied to the predicted states 1..N.
    Arrays become read-only, C-ordered float copies, Q and R symmetrized;
    InvalidSpec names a field that is not finite, is misshapen, or breaks
    lo < hi or horizon >= 1.
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
        Q, R = _readonly(0.5 * Q + 0.5 * Q.T), _readonly(0.5 * R + 0.5 * R.T)
        # relative to the largest eigenvalue magnitude, so rounding of a large Q
        # passes and a tiny negative Q does not
        eig = np.linalg.eigvalsh(Q)
        if eig[0] < -1e-10 * np.abs(eig).max():
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

    __setstate__ = _load_read_only

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
    # G is block-Toeplitz, block (i, j) = A^(i-j) B: form each product once and
    # copy it down its diagonal. A recursion A (A^(k-1) B) would round differently.
    column = np.vstack([power @ spec.Bd for power in powers[:N]])
    G = np.zeros((N * nx, N * nu))
    for j in range(N):
        G[j * nx:, j * nu:(j + 1) * nu] = column[:(N - j) * nx]
    return Phi, G


def _condenser(spec: LtiMpcSpec):
    """Build and check the state-independent part of condense(spec) once and
    return the map x0 -> QpProblem, which forms only f and the state-box rows
    of b and shares one H and A, and without a state box one b. InvalidSpec
    when an unstable Ad overflows Phi or H over the horizon, or when x0
    overflows f or b."""
    N = spec.horizon
    Qbar = np.kron(np.eye(N), spec.Q)
    Rbar = np.kron(np.eye(N), spec.R)
    with np.errstate(over="ignore", invalid="ignore"):
        Phi, G = prediction_matrices(spec)
        H = G.T @ Qbar @ G + Rbar
    # a non-finite entry of G makes the diagonal of G' Qbar G non-finite too
    if not (np.isfinite(Phi).all() and np.isfinite(H).all()):
        raise InvalidSpec(f"Ad over horizon {N} overflows the condensed QP: Ad^k or G' Qbar G is not finite")
    eye_u = np.eye(N * spec.nu)
    rows = [eye_u, -eye_u]
    input_rhs = [np.tile(spec.u_hi, N), -np.tile(spec.u_lo, N)]
    if spec.x_lo is not None:
        rows += [G, -G]
        x_hi, x_lo = np.tile(spec.x_hi, N), np.tile(spec.x_lo, N)
    A = np.vstack(rows)
    # without a state box, b is the same at every step and checked here once
    b = np.concatenate(input_rhs) if spec.x_lo is None else np.zeros(A.shape[0])
    base = QpProblem(H, np.zeros(H.shape[0]), A, b)

    def build(x0: np.ndarray) -> QpProblem:
        with np.errstate(over="ignore", invalid="ignore"):
            predicted = Phi.dot(x0)
            f = G.T.dot(Qbar.dot(predicted))
            b = None if spec.x_lo is None else np.concatenate(input_rhs + [x_hi - predicted, predicted - x_lo])
        try:
            return base._with_rhs(f, b)
        except InvalidProblem:
            raise InvalidSpec(f"state {x0} overflows the condensed QP: f or b is not finite") from None

    return build


def condense(spec: LtiMpcSpec, x_init: np.ndarray | None = None) -> QpProblem:
    """Eliminate the dynamics and return the dense QP in the stacked inputs.

    H = G' Qbar G + Rbar and f = G' Qbar Phi x0 with Qbar, Rbar the
    block-diagonal stage weights; H is strictly positive definite because Rbar
    is. Constraints are the input box (2 N nu rows) followed, when state
    bounds are present, by the predicted-state box (2 N nx rows). Only f and
    the state-box rows of b depend on x0. An x_init given here, a finite
    nx-vector (else InvalidSpec), replaces spec.x_init. InvalidSpec, naming
    the state, when it overflows f or b.
    """
    _check_type(spec, LtiMpcSpec, "spec", InvalidSpec)
    x0 = spec.x_init if x_init is None else _frozen(x_init, "x_init", (spec.nx,), InvalidSpec)
    return _condenser(spec)(x0)


def _shift_stages(vec: np.ndarray, width: int) -> np.ndarray:
    """Drop the first stage block and repeat the last one."""
    return np.concatenate([vec[width:], vec[-width:]])


def shift_solution(spec: LtiMpcSpec, x: PrimalDualPoint) -> PrimalDualPoint:
    """Advance a solution x of condense(spec)'s QP (else InvalidSpec) by one
    stage for reuse at the next sampling instant."""
    _check_type(spec, LtiMpcSpec, "spec", InvalidSpec)
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
    return PrimalDualPoint._trusted(z, np.concatenate(pieces))


@dataclass(frozen=True, eq=False)
class QpSolveRecord:
    """One closed-loop step's solve: its status, Newton steps and wall time,
    and the solve's last IterationRecord, which forms norm_F0 and norm_Fnr,
    the final norms, when first read (by write_csv, say), not in the loop."""

    step: int
    status: str
    iterations: int
    solve_time: float
    _last: IterationRecord = field(repr=False)

    @property
    def norm_F0(self) -> float:
        return self._last.norm_F0

    @property
    def norm_Fnr(self) -> float:
        return self._last.norm_Fnr


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
    first input, advance through (Ad, Bd). The state-independent part of the
    condensed QP is built and checked once; each step forms only f and the
    state-box rows of b, so its QP, a new object sharing the first step's H
    and A, equals condense(spec, state) bit for bit.

    start_mode "cold" always starts from zero, "warm" seeds each QP with the
    previous primal-dual solution and "shift" with that solution advanced by
    one stage (shift_solution). Every QP must reach Solved, otherwise
    MpcSequenceError carries the failing step index. Returns
    (Trajectory, SequenceStats). InvalidSpec unless steps is an integer >= 1,
    and when a state overflows its QP's f or b.
    """
    _check_type(spec, LtiMpcSpec, "spec", InvalidSpec)
    _count(steps, "steps", InvalidSpec)
    if start_mode not in ("cold", "warm", "shift"):
        raise InvalidSpec(f"start_mode must be 'cold', 'warm' or 'shift', got {start_mode!r}")
    cfg = SolverConfig(tol=1e-6) if cfg is None else cfg
    state = spec.x_init
    previous: PrimalDualPoint | None = None
    states = [state]
    inputs = []
    records = []
    condensed = _condenser(spec)
    for step in range(steps):
        qp = condensed(state)
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
        state = spec.Ad.dot(state) + spec.Bd.dot(u0)
        states.append(state)
        inputs.append(u0)
        records.append(QpSolveRecord(step, result.status.value, result.iterations, elapsed, result.trace[-1]))
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
