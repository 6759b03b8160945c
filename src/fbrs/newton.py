"""The regularized, smoothed Fischer-Burmeister Newton solver.

Each iteration assembles the block system

    [ H    A' ] [dz]   [r_s]          r_s = -(Hz + f + A'v)
    [-CA   D  ] [dv] = [r_c]          r_c = -phi_eps(v, y)

with C = diag(gamma), D = diag(mu) from the FB kernel, solves it through the
condensed SPD Schur complement H + A' C D^-1 A (falling back to a dense LU of
the full matrix when the Cholesky factorization fails; when that is singular
too, the solve ends with INVALID_PROBLEM), and globalizes with a
backtracking linesearch on the merit function theta = 0.5 ||F_eps||^2. The
smoothing eps stays fixed; the regularization delta shrinks with ||F_eps||.
The solve stops once ||F_0|| <= tol. The Armijo constants and the starting
regularization are fixed (SolverConfig.sigma, .beta, .max_backtracks,
.delta0); tol and max_iters are the only settings.

fbrs_solve holds the iterate as plain arrays (z, v) and evaluates each point
it visits once, with fb._evaluate (the one definition of F_eps): the residual
F_eps and slack y of the point the linesearch accepts give the next pass its
norms, its Newton right-hand side -F_eps, its FB coefficients and theta.
Inputs are validated at entry only; the step functions take the loop's
arrays unchecked, and overflow in the loop becomes a status, not a warning.
"""

from __future__ import annotations

import math
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
from .fb import _coefficients, _evaluate, phi_eps
from .problem import PrimalDualPoint, QpProblem, _check_dims, _count, _positive


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
    pivoting and return the step dx = (dz, dv). Arguments are not checked.

    Raises SingularSystem when a pivot falls below 1e-14 times the matrix
    scale, which signals an A3 violation or, on a PSD H, an unbounded problem.
    """
    K = kkt_matrix(p, gamma, mu)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(K, check_finite=False)
    scale = np.max(np.abs(K))
    if np.min(np.abs(np.diag(lu))) <= 1e-14 * scale:
        raise SingularSystem("negligible pivot in the full Newton system")
    return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)


def solve_condensed(p: QpProblem, gamma: np.ndarray, mu: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve kkt_matrix(p, gamma, mu) dx = rhs, rhs = (r_s, r_c), via the Schur
    complement (H + A' C D^-1 A) dz = r_s - A' D^-1 r_c, then the diagonal
    back-substitution D dv = r_c + C A dz, and return the step dx = (dz, dv).
    Arguments are not checked.

    Requires all mu_i > 0. Raises CholeskyFailure when the Schur matrix is not
    numerically positive definite; fbrs_solve then falls back to solve_full.
    """
    if np.min(mu) <= 0.0:
        raise CholeskyFailure("D has a nonpositive diagonal entry")
    A, r_s, r_c = p.A, rhs[:p.n], rhs[p.n:]
    w = gamma / mu
    S = p.H + A.T @ (w[:, None] * A)
    S = 0.5 * (S + S.T)
    try:
        factor = scipy.linalg.cho_factor(S, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise CholeskyFailure(str(exc)) from exc
    dz = scipy.linalg.cho_solve(factor, r_s - A.T @ (r_c / mu), check_finite=False)
    dv = (r_c + gamma * (A @ dz)) / mu
    return np.concatenate([dz, dv])


def _merit_gradient(p: QpProblem, F: np.ndarray, gamma: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """grad theta_eps = V' F_eps, with V = kkt_matrix(p, gamma, mu) the
    iteration matrix at delta = 0 and F = F_eps. Arguments are not checked."""
    F_top, F_bot = F[:p.n], F[p.n:]
    gz = p.H @ F_top - p.A.T @ (gamma * F_bot)
    gv = p.A @ F_top + mu * F_bot
    return np.concatenate([gz, gv])


def linesearch(p: QpProblem, z, v, F, dx, eps: float):
    """First t in {1, beta, beta^2, ...} with theta(x + t dx) < (1 - 2 t sigma) theta(x),
    where x = (z, v), F = F_eps(x), theta = 0.5 ||F_eps||^2 and sigma, beta are
    SolverConfig's. Returns (t, backtracks, z', v', F', y') at the accepted point,
    y' = b - Az'. Raises LinesearchError when SolverConfig.max_backtracks
    reductions were not enough (delta too large or a defective direction),
    InvalidProblem when dx is not finite.
    """
    theta0 = 0.5 * float(F @ F)
    if theta0 <= 0.0:
        raise LinesearchError("merit already zero; no descent possible")
    if not np.all(np.isfinite(dx)):
        raise InvalidProblem("non-finite search direction")
    n = p.n
    for j in range(SolverConfig.max_backtracks + 1):
        t = SolverConfig.beta**j
        z_t, v_t = z + t * dx[:n], v + t * dx[n:]
        F_t, y_t = _evaluate(p, z_t, v_t, eps)
        if 0.5 * float(F_t @ F_t) < (1.0 - 2.0 * t * SolverConfig.sigma) * theta0:
            return t, j, z_t, v_t, F_t, y_t
    raise LinesearchError(f"no acceptable step after {SolverConfig.max_backtracks} backtracks")


def _solve_step(p: QpProblem, gamma, mu, rhs):
    try:
        return solve_condensed(p, gamma, mu, rhs)
    except CholeskyFailure:
        return solve_full(p, gamma, mu, rhs)


def fbrs_solve(p: QpProblem, x0: PrimalDualPoint, cfg: SolverConfig | None = None) -> SolverResult:
    """Run the damped Newton iteration from x0 (feasibility not required).

    Per pass: shrink delta to min(delta, ||F_eps||), stop if ||F_0|| <= tol
    already holds (so a warmstart at the solution costs zero Newton
    solves), otherwise take a globalized step. When the linesearch rejects the
    Newton step, delta shrinks by 10 (up to 3 times, carried forward) and the
    step is recomputed; as a last resort a merit-gradient step is taken. The
    trace gets one record per pass including the terminal one, so it has
    iterations + 1 entries. A non-finite step direction, or a Newton system
    that neither the Cholesky nor the LU step can solve (SingularSystem, as on
    an unbounded problem with a singular H), ends the solve with
    INVALID_PROBLEM at the last accepted iterate. The loop emits no
    floating-point warnings.
    """
    cfg = cfg or SolverConfig()
    _check_dims(x0, p.n, p.q, "x0")
    n = p.n
    eps = cfg.effective_eps(p.q)
    delta = cfg.delta0
    z, v = x0.z, x0.v
    trace: list[IterationRecord] = []
    status = Status.MAX_ITERS
    iterations = 0
    # overflow and NaN are statuses here (a failed Armijo test or a
    # non-finite direction), not warnings
    with np.errstate(all="ignore"):
        F, y = _evaluate(p, z, v, eps)
        for k in range(cfg.max_iters + 1):
            n_feps = float(np.linalg.norm(F))
            delta = min(delta, n_feps)
            n_f0 = float(np.linalg.norm(np.concatenate([F[:n], phi_eps(v, y, 0.0)])))
            n_fnr = float(np.linalg.norm(np.concatenate([F[:n], np.minimum(y, v)])))
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
                for shrink in range(4):
                    if shrink:
                        delta = delta / 10.0
                    dx = _solve_step(p, *_coefficients(y, v, eps, delta), -F)
                    try:
                        t, nb, z, v, F, y = linesearch(p, z, v, F, dx, eps)
                        break
                    except LinesearchError:
                        pass
                else:
                    dx = -_merit_gradient(p, F, *_coefficients(y, v, eps, 0.0))
                    t, nb, z, v, F, y = linesearch(p, z, v, F, dx, eps)
            except LinesearchError:
                status = Status.LINESEARCH_FAILURE
                break
            except (InvalidProblem, SingularSystem):
                # non-finite direction or singular Newton system; (z, v) is
                # still the last accepted iterate
                status = Status.INVALID_PROBLEM
                break
            rec.t = t
            rec.backtracks = nb
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
