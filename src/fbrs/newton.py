"""The regularized, smoothed Fischer-Burmeister Newton solver.

Each iteration assembles the block system

    [ H    A' ] [dz]   [r_s]          r_s = -(Hz + f + A'v)
    [-CA   D  ] [dv] = [r_c]          r_c = -phi_eps(v, y)

with C = diag(gamma), D = diag(mu) from the FB kernel, solves it through the
condensed SPD Schur complement H + A' C D^-1 A (falling back to a dense LU of
the full matrix when the Cholesky factorization fails), and globalizes with a
backtracking linesearch on the merit function theta = 0.5 ||F_eps||^2. The
smoothing eps stays fixed; the regularization delta shrinks with ||F_eps||.
The solve stops once ||F_0|| <= tol. The Armijo constants and the starting
regularization are fixed (SolverConfig.sigma, .beta, .max_backtracks,
.delta0); tol and max_iters are the only settings.

fbrs_solve holds the iterate as plain arrays (z, v) and evaluates each point
it visits once: the residual F_eps and slack y of the point the linesearch
accepts give the next pass its norms, its Newton right-hand side, its FB
coefficients and theta. Inputs are validated at entry only.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar

import numpy as np
import scipy.linalg

from .errors import (
    CholeskyFailure,
    InvalidConfig,
    InvalidProblem,
    LinesearchError,
    SingularSystem,
)
from .fb import fb_coefficients, phi_eps, residual_map
from .problem import PrimalDualPoint, QpProblem, _check_dims


class Status(Enum):
    SOLVED = "Solved"
    MAX_ITERS = "MaxIters"
    LINESEARCH_FAILURE = "LinesearchFailure"
    INVALID_PROBLEM = "InvalidProblem"


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the solve loop: stop once ||F_0|| <= tol, or after
    max_iters Newton steps.

    tol also fixes the smoothing (see effective_eps). The class constants are
    the Armijo parameters of the linesearch and the starting regularization,
    which shrinks to min(delta, ||F_eps||) each pass.
    """

    tol: float = 1e-8
    max_iters: int = 30
    sigma: ClassVar[float] = 1e-4
    beta: ClassVar[float] = 0.7
    delta0: ClassVar[float] = 1e-8
    max_backtracks: ClassVar[int] = 40

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise InvalidConfig("tol must be finite and positive")
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise InvalidConfig("max_iters must be an integer >= 1")

    def effective_eps(self, q: int) -> float:
        """Smoothing tol / (2 sqrt(q)): the gap sqrt(q) eps between ||F_eps||
        and ||F_0|| is then half the tolerance."""
        return self.tol / (2.0 * math.sqrt(q))


@dataclass(frozen=True)
class NewtonSystem:
    """Blocks of one Newton step: shared H, A plus the diagonals and rhs."""

    H: np.ndarray
    A: np.ndarray
    gamma: np.ndarray
    mu: np.ndarray
    r_s: np.ndarray
    r_c: np.ndarray

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def q(self) -> int:
        return self.A.shape[0]


@dataclass
class IterationRecord:
    """Observable state of one loop pass; t = 0 means no step was taken."""

    k: int
    norm_Feps: float
    norm_F0: float
    norm_Fnr: float
    t: float
    delta: float
    eps: float
    backtracks: int
    linear_solve_residual: float


@dataclass
class SolverResult:
    x: PrimalDualPoint
    status: Status
    iterations: int
    final_norm_F0: float
    final_norm_Feps: float
    final_norm_Fnr: float
    trace: list[IterationRecord] = field(default_factory=list)


def _evaluate(p: QpProblem, z: np.ndarray, v: np.ndarray, eps: float):
    """(F_eps, y) at (z, v): the residual [Hz + f + A'v; phi_eps(v, y)] and the
    slack y = b - Az. Every point the solver visits is evaluated here once."""
    y = p.b - p.A @ z
    return np.concatenate([p.H @ z + p.f + p.A.T @ v, phi_eps(v, y, eps)]), y


def _newton_system(p: QpProblem, F, y, v, eps: float, delta: float) -> NewtonSystem:
    coeff = fb_coefficients(y, v, eps, delta)
    return NewtonSystem(H=p.H, A=p.A, gamma=coeff.gamma, mu=coeff.mu, r_s=-F[:p.n], r_c=-F[p.n:])


def assemble_system(p: QpProblem, x: PrimalDualPoint, eps: float, delta: float) -> NewtonSystem:
    """Coefficients and right-hand side of the Newton system at x."""
    _check_dims(p, x)
    F, y = _evaluate(p, x.z, x.v, eps)
    return _newton_system(p, F, y, x.v, eps, delta)


def kkt_matrix(sys: NewtonSystem) -> np.ndarray:
    """The dense (n+q) x (n+q) iteration matrix [H A'; -CA D]."""
    n, q = sys.n, sys.q
    K = np.zeros((n + q, n + q))
    K[:n, :n] = sys.H
    K[:n, n:] = sys.A.T
    K[n:, :n] = -sys.gamma[:, None] * sys.A
    K[n:, n:] = np.diag(sys.mu)
    return K


def _system_residual(sys: NewtonSystem, dx: np.ndarray) -> float:
    n = sys.n
    dz, dv = dx[:n], dx[n:]
    top = sys.H @ dz + sys.A.T @ dv - sys.r_s
    bot = -sys.gamma * (sys.A @ dz) + sys.mu * dv - sys.r_c
    rhs_norm = math.hypot(np.linalg.norm(sys.r_s), np.linalg.norm(sys.r_c))
    return float(math.hypot(np.linalg.norm(top), np.linalg.norm(bot)) / (1.0 + rhs_norm))


def solve_full(sys: NewtonSystem):
    """Solve the full unsymmetric system by dense LU with partial pivoting.

    Returns (dx, relative residual). Raises SingularSystem when a pivot falls
    below 1e-14 times the matrix scale, which signals an A3 violation.
    """
    K = kkt_matrix(sys)
    rhs = np.concatenate([sys.r_s, sys.r_c])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(K, check_finite=False)
    scale = np.max(np.abs(K))
    if np.min(np.abs(np.diag(lu))) <= 1e-14 * scale:
        raise SingularSystem("negligible pivot in the full Newton system")
    dx = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    return dx, _system_residual(sys, dx)


def solve_condensed(sys: NewtonSystem):
    """Solve via the Schur complement (H + A' C D^-1 A) dz = r_s - A' D^-1 r_c,
    then the diagonal back-substitution D dv = r_c + C A dz.

    Requires all mu_i > 0. Raises CholeskyFailure when the Schur matrix is not
    numerically positive definite; fbrs_solve then falls back to solve_full.
    """
    if np.min(sys.mu) <= 0.0:
        raise CholeskyFailure("D has a nonpositive diagonal entry")
    w = sys.gamma / sys.mu
    S = sys.H + sys.A.T @ (w[:, None] * sys.A)
    S = 0.5 * (S + S.T)
    try:
        factor = scipy.linalg.cho_factor(S, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise CholeskyFailure(str(exc)) from exc
    dz = scipy.linalg.cho_solve(factor, sys.r_s - sys.A.T @ (sys.r_c / sys.mu), check_finite=False)
    dv = (sys.r_c + sys.gamma * (sys.A @ dz)) / sys.mu
    dx = np.concatenate([dz, dv])
    return dx, _system_residual(sys, dx)


def merit(p: QpProblem, x: PrimalDualPoint, eps: float) -> float:
    """theta_eps(x) = 0.5 ||F_eps(x)||^2."""
    r = residual_map(p, x, eps)
    return 0.5 * float(r @ r)


def merit_gradient(p: QpProblem, x: PrimalDualPoint, eps: float) -> np.ndarray:
    """grad theta_eps = V' F_eps with V the unregularized (delta = 0) iteration matrix."""
    return _merit_gradient(assemble_system(p, x, eps, 0.0))


def _merit_gradient(sys0: NewtonSystem) -> np.ndarray:
    F_top, F_bot = -sys0.r_s, -sys0.r_c
    gz = sys0.H @ F_top - sys0.A.T @ (sys0.gamma * F_bot)
    gv = sys0.A @ F_top + sys0.mu * F_bot
    return np.concatenate([gz, gv])


def linesearch(p: QpProblem, z, v, F, dx, eps: float, sigma: float, beta: float, max_backtracks: int):
    """First t in {1, beta, beta^2, ...} with theta(x + t dx) < (1 - 2 t sigma) theta(x),
    where x = (z, v), F = F_eps(x) and theta = 0.5 ||F_eps||^2.

    Returns (t, backtracks, z', v', F', y') at the accepted point, y' = b - Az'.
    Raises LinesearchError when max_backtracks reductions were not enough
    (delta too large or a defective direction), InvalidProblem when dx is
    not finite.
    """
    theta0 = 0.5 * float(F @ F)
    if theta0 <= 0.0:
        raise LinesearchError("merit already zero; no descent possible")
    if not np.all(np.isfinite(dx)):
        raise InvalidProblem("non-finite search direction")
    n = p.n
    for j in range(max_backtracks + 1):
        t = beta**j
        z_t, v_t = z + t * dx[:n], v + t * dx[n:]
        F_t, y_t = _evaluate(p, z_t, v_t, eps)
        if 0.5 * float(F_t @ F_t) < (1.0 - 2.0 * t * sigma) * theta0:
            return t, j, z_t, v_t, F_t, y_t
    raise LinesearchError(f"no acceptable step after {max_backtracks} backtracks")


def _solve_step(sys: NewtonSystem):
    try:
        return solve_condensed(sys)
    except CholeskyFailure:
        return solve_full(sys)


def fbrs_solve(p: QpProblem, x0: PrimalDualPoint, cfg: SolverConfig | None = None) -> SolverResult:
    """Run the damped Newton iteration from x0 (feasibility not required).

    Per pass: shrink delta to min(delta, ||F_eps||), stop if ||F_0|| <= tol
    already holds (so a warmstart at the solution costs zero Newton
    solves), otherwise take a globalized step. When the linesearch rejects the
    Newton step, delta shrinks by 10 (up to 3 times, carried forward) and the
    step is recomputed; as a last resort a merit-gradient step is taken. The
    trace gets one record per pass including the terminal one, so it has
    iterations + 1 entries. A non-finite step direction ends the solve with
    INVALID_PROBLEM at the last finite iterate.
    """
    cfg = cfg or SolverConfig()
    _check_dims(p, x0)
    n = p.n
    eps = cfg.effective_eps(p.q)
    search = (eps, cfg.sigma, cfg.beta, cfg.max_backtracks)
    delta = cfg.delta0
    z, v = x0.z, x0.v
    F, y = _evaluate(p, z, v, eps)
    trace: list[IterationRecord] = []
    status = Status.MAX_ITERS
    iterations = 0

    for k in range(cfg.max_iters + 1):
        n_feps = float(np.linalg.norm(F))
        delta = min(delta, n_feps)
        n_f0 = float(np.linalg.norm(np.concatenate([F[:n], phi_eps(v, y, 0.0)])))
        n_fnr = float(np.linalg.norm(np.concatenate([F[:n], np.minimum(y, v)])))
        rec = IterationRecord(
            k=k, norm_Feps=n_feps, norm_F0=n_f0, norm_Fnr=n_fnr,
            t=0.0, delta=delta, eps=eps, backtracks=0, linear_solve_residual=0.0,
        )
        trace.append(rec)
        if n_f0 <= cfg.tol:
            status = Status.SOLVED
            break
        if k == cfg.max_iters:
            break
        try:
            for shrink in range(4):
                if shrink:
                    delta = delta / 10.0
                dx, lsr = _solve_step(_newton_system(p, F, y, v, eps, delta))
                try:
                    t, nb, z, v, F, y = linesearch(p, z, v, F, dx, *search)
                    break
                except LinesearchError:
                    pass
            else:
                dx, lsr = -_merit_gradient(_newton_system(p, F, y, v, eps, 0.0)), 0.0
                t, nb, z, v, F, y = linesearch(p, z, v, F, dx, *search)
        except LinesearchError:
            status = Status.LINESEARCH_FAILURE
            break
        except InvalidProblem:
            # non-finite direction; (z, v) is still the last finite iterate
            status = Status.INVALID_PROBLEM
            break
        rec.t = t
        rec.backtracks = nb
        rec.linear_solve_residual = lsr
        iterations += 1

    last = trace[-1]
    return SolverResult(
        x=PrimalDualPoint(z, v),
        status=status,
        iterations=iterations,
        final_norm_F0=last.norm_F0,
        final_norm_Feps=last.norm_Feps,
        final_norm_Fnr=last.norm_Fnr,
        trace=trace,
    )
