"""The regularized, smoothed Fischer-Burmeister Newton solver.

Each iteration assembles the block system

    [ H    A' ] [dz]   [r_s]          r_s = -(Hz + f + A'v)
    [-CA   D  ] [dv] = [r_c]          r_c = -phi_eps(v, y)

with C = diag(gamma), D = diag(mu) from the FB kernel, and solves it through
the condensed SPD Schur complement H + A' C D^-1 A with LAPACK potrf/potrs.
When every row of A is a signed unit vector, as in an input-boxed MPC QP, the
Schur matrix is H plus the row weights summed onto its diagonal, with no dense
product. When the Cholesky factorization fails, the step falls back to a
dense LU of the full matrix (getrf/getrs); when that is singular too, the
solve ends with INVALID_PROBLEM. The loop globalizes with a backtracking
linesearch on the merit function theta = 0.5 ||F_eps||^2, with a
merit-gradient step when the Newton step fails it. The smoothing eps stays
fixed; each point is regularized with delta = min(delta0, ||F_eps||). The
solve stops once ||F_0|| <= tol. The Armijo constants and the regularization
cap are fixed (SolverConfig.sigma, .beta, .max_backtracks, .delta0); tol and
max_iters are the only settings.

fbrs_solve holds one evaluated point, fb._evaluate's record of the flat
iterate x = [z; v] with F_eps, y, hypot(v, y), hypot(hypot(v, y), eps) and
F_eps'F_eps, and the linesearch returns the point it accepts. That point gives
the next pass its norms, its delta, its Newton right-hand side -F_eps, its FB
coefficients and theta; the loop itself forms only the ||F_0|| and
natural-residual vectors of its trace. Inputs are validated at entry only;
the step functions take the loop's arrays unchecked, and overflow in the loop
becomes a status, not a warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar

import numpy as np
import scipy.linalg

from .errors import InvalidConfig
from .fb import _coefficients, _evaluate, _phi, _Point
from .problem import PrimalDualPoint, QpProblem, _check_dims, _check_type, _count, _positive

# LAPACK's float64 routines, called without the per-call work of scipy's wrappers
_potrf, _potrs, _getrf, _getrs = scipy.linalg.get_lapack_funcs(
    ("potrf", "potrs", "getrf", "getrs"), dtype=np.float64)


# The step's failure signals. fbrs_solve catches each and turns it into a
# Status, so none reaches its caller; they are not FbrsErrors.
class CholeskyFailure(Exception):
    """The condensed Schur matrix is not numerically positive definite."""


class NoDirection(Exception):
    """No usable Newton direction: the full system has a negligible pivot, or
    the direction is not finite."""


class LinesearchError(Exception):
    """No acceptable steplength within the backtracking budget."""


class Status(Enum):
    SOLVED = "Solved"
    MAX_ITERS = "MaxIters"
    LINESEARCH_FAILURE = "LinesearchFailure"
    INVALID_PROBLEM = "InvalidProblem"


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the solve loop: stop once ||F_0|| <= tol, or after
    max_iters Newton steps (a finite real > 0 and an int >= 1, else InvalidConfig).

    tol also fixes the smoothing (see effective_eps). The class constants are
    the Armijo parameters of the linesearch and the regularization cap delta0:
    each pass regularizes with delta = min(delta0, ||F_eps||) at its point.
    """

    tol: float = 1e-8
    max_iters: int = 30
    sigma: ClassVar[float] = 1e-4
    beta: ClassVar[float] = 0.7
    delta0: ClassVar[float] = 1e-8
    max_backtracks: ClassVar[int] = 40

    def __post_init__(self):
        _positive(self.tol, "tol", InvalidConfig)
        _count(self.max_iters, "max_iters", InvalidConfig)

    def effective_eps(self, q: int) -> float:
        """Smoothing tol / (2 sqrt(q)): the gap sqrt(q) eps between ||F_eps||
        and ||F_0|| is then half the tolerance."""
        return self.tol / (2.0 * math.sqrt(q))


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


@dataclass
class SolverResult:
    x: PrimalDualPoint
    status: Status
    iterations: int
    final_norm_F0: float
    final_norm_Feps: float
    final_norm_Fnr: float
    trace: list[IterationRecord] = field(default_factory=list)


def kkt_matrix(p: QpProblem, gamma: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """The dense (n+q) x (n+q) iteration matrix [H A'; -CA D]."""
    n, q = p.n, p.q
    K = np.zeros((n + q, n + q))
    K[:n, :n] = p.H
    K[:n, n:] = p.A.T
    K[n:, :n] = -gamma[:, None] * p.A
    K[n:, n:] = np.diag(mu)
    return K


def solve_full(p: QpProblem, gamma: np.ndarray, mu: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve kkt_matrix(p, gamma, mu) dx = rhs by dense LU with partial
    pivoting (LAPACK getrf, then getrs) and return the step dx = (dz, dv).
    Arguments are not checked.

    Raises NoDirection when a pivot falls below 1e-14 times the matrix
    scale, which signals an A3 violation, as with H = 0 and A = 0.
    """
    K = kkt_matrix(p, gamma, mu)
    lu, piv, info = _getrf(K)
    if info < 0:
        raise ValueError(f"getrf: illegal value in argument {-info}")
    if np.abs(lu.diagonal()).min() <= 1e-14 * np.abs(K).max():
        raise NoDirection("negligible pivot in the full Newton system")
    return _getrs(lu, piv, rhs)[0]


def solve_condensed(p: QpProblem, gamma: np.ndarray, mu: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve kkt_matrix(p, gamma, mu) dx = rhs, rhs = (r_s, r_c), via the Schur
    complement (H + A' C D^-1 A) dz = r_s - A' D^-1 r_c (LAPACK potrf, potrs),
    then the diagonal back-substitution D dv = r_c + C A dz, and return the
    step dx = (dz, dv). Arguments are not checked.

    A box-only problem (p._box_cols set) adds each row's w = gamma / mu onto
    the diagonal of H in place of A'WA: the same bits, as the dense product
    adds only exact zeros, except perhaps the last bit of a column hit by
    three or more rows (duplicate bounds). Other problems symmetrize H + A'WA.

    Requires all mu_i > 0. Raises CholeskyFailure when the Schur matrix is not
    numerically positive definite; fbrs_solve then falls back to solve_full.
    """
    if mu.min() <= 0.0:
        raise CholeskyFailure("D has a nonpositive diagonal entry")
    A, r_s, r_c = p.A, rhs[:p.n], rhs[p.n:]
    w = gamma / mu
    if p._box_cols is None:
        S = p.H + A.T @ (w[:, None] * A)
        S = 0.5 * (S + S.T)
    else:
        S = p.H + np.diag(np.bincount(p._box_cols, w, p.n))
    c, info = _potrf(S, lower=False, clean=False)
    if info:
        raise CholeskyFailure(f"potrf info {info}: Schur matrix not numerically positive definite")
    dz = _potrs(c, r_s - A.T @ (r_c / mu), lower=False)[0]
    dv = (r_c + gamma * (A @ dz)) / mu
    return np.concatenate([dz, dv])


def _merit_gradient(p: QpProblem, F: np.ndarray, gamma: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """grad theta_eps = V' F_eps, with V = kkt_matrix(p, gamma, mu) the
    iteration matrix at delta = 0 and F = F_eps. Arguments are not checked."""
    F_top, F_bot = F[:p.n], F[p.n:]
    gz = p.H @ F_top - p.A.T @ (gamma * F_bot)
    gv = p.A @ F_top + mu * F_bot
    return np.concatenate([gz, gv])


def linesearch(p: QpProblem, point: _Point, dx, eps: float):
    """First t in {1, beta, beta^2, ...} with theta(x + t dx) < (1 - 2 t sigma) theta(x),
    where x = point.x, theta = 0.5 ||F_eps||^2 = 0.5 point.ff and sigma, beta
    are SolverConfig's. Returns (t, backtracks, point') with point' the
    evaluated accepted point. Raises LinesearchError when
    SolverConfig.max_backtracks reductions were not enough (dx is no usable
    descent direction), NoDirection when dx is not finite.
    """
    if not np.isfinite(dx).all():
        raise NoDirection("non-finite search direction")
    theta0 = 0.5 * point.ff
    for j in range(SolverConfig.max_backtracks + 1):
        t = SolverConfig.beta**j
        trial = _evaluate(p, point.x + t * dx, eps)
        if 0.5 * trial.ff < (1.0 - 2.0 * t * SolverConfig.sigma) * theta0:
            return t, j, trial
    raise LinesearchError(f"no acceptable step after {SolverConfig.max_backtracks} backtracks")


def _solve_step(p: QpProblem, gamma, mu, rhs):
    try:
        return solve_condensed(p, gamma, mu, rhs)
    except CholeskyFailure:
        return solve_full(p, gamma, mu, rhs)


def fbrs_solve(p: QpProblem, x0: PrimalDualPoint, cfg: SolverConfig | None = None) -> SolverResult:
    """Run the damped Newton iteration from x0 (feasibility not required).

    Per pass: set delta = min(delta0, ||F_eps||) at the current point, stop if
    ||F_0|| <= tol already holds (so a warmstart at the solution costs zero
    Newton solves), otherwise take a globalized step. When the linesearch
    rejects the Newton step, a merit-gradient step is taken instead. The
    trace gets one record per pass including the terminal one, so it has
    iterations + 1 entries. Each pass reads the evaluated point (fb._evaluate)
    that the previous linesearch accepted, so every point is evaluated once.
    A non-finite step direction, or a Newton system that neither the Cholesky
    nor the LU step can solve (as with H = 0 and A = 0), ends the solve with
    status INVALID_PROBLEM at the last accepted iterate. The loop emits no
    floating-point warnings, and each step failure ends in a status. The
    InvalidProblem exception comes only from the entry checks: p must be a
    QpProblem and x0 a PrimalDualPoint of its (n, q). InvalidConfig unless
    cfg is a SolverConfig or None.
    """
    _check_type(p, QpProblem, "p")
    cfg = SolverConfig() if cfg is None else cfg
    _check_type(cfg, SolverConfig, "cfg", InvalidConfig)
    _check_dims(x0, p.n, p.q, "x0")
    n = p.n
    eps = cfg.effective_eps(p.q)
    trace: list[IterationRecord] = []
    status = Status.MAX_ITERS
    # overflow and NaN are statuses here (a failed Armijo test or a
    # non-finite direction), not warnings
    with np.errstate(all="ignore"):
        point = _evaluate(p, x0.as_vector(), eps)
        for k in range(cfg.max_iters + 1):
            F, y, v = point.F, point.y, point.x[n:]
            F0 = np.concatenate([F[:n], _phi(v, y, 0.0, point.r0)])
            Fnr = np.concatenate([F[:n], np.minimum(y, v)])
            n_feps, n_f0, n_fnr = math.sqrt(point.ff), math.sqrt(F0 @ F0), math.sqrt(Fnr @ Fnr)
            delta = min(cfg.delta0, n_feps)
            rec = IterationRecord(
                k=k, norm_Feps=n_feps, norm_F0=n_f0, norm_Fnr=n_fnr,
                t=0.0, delta=delta, eps=eps, backtracks=0,
            )
            trace.append(rec)
            if n_f0 <= cfg.tol:
                status = Status.SOLVED
                break
            if k == cfg.max_iters:
                break
            try:
                dx = _solve_step(p, *_coefficients(y, v, point.r, delta), -F)
                try:
                    t, nb, point = linesearch(p, point, dx, eps)
                except LinesearchError:
                    dx = -_merit_gradient(p, F, *_coefficients(y, v, point.r, 0.0))
                    t, nb, point = linesearch(p, point, dx, eps)
            except LinesearchError:
                status = Status.LINESEARCH_FAILURE
                break
            except NoDirection:
                # point is still the last accepted iterate
                status = Status.INVALID_PROBLEM
                break
            rec.t = t
            rec.backtracks = nb

    last = trace[-1]
    return SolverResult(
        x=PrimalDualPoint(point.x[:n], point.x[n:]),
        status=status,
        iterations=len(trace) - 1,
        final_norm_F0=last.norm_F0,
        final_norm_Feps=last.norm_Feps,
        final_norm_Fnr=last.norm_Fnr,
        trace=trace,
    )
