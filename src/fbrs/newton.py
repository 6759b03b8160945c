"""The regularized, smoothed Fischer-Burmeister Newton solver.

Each iteration assembles the block system

    [ H    A' ] [dz]   [r_s]          r_s = -(Hz + f + A'v)
    [-CA   D  ] [dv] = [r_c]          r_c = -phi_eps(v, y)

with C = diag(gamma), D = diag(mu) from the FB kernel, and solves it through
the condensed Schur complement H + A'WA, W = C D^-1 >= 0: the one linear
solve. fbrs.problem owns A, H and their linear algebra: it binds, once per
problem, the products with A and A' and the Schur solve that this module
calls, p._A_dot, p._At_dot and p._schur_solve, and fbrs.fb forms
every residual, so this module owns only the iteration and reads neither the
row structure of A nor a residual formula. The loop globalizes with a
backtracking linesearch on the merit function theta = 0.5 ||F_eps||^2, and
takes a merit-gradient step instead of the Newton step when the Newton step
fails: the Schur matrix is not numerically positive definite (as on ker H
when H is only PSD), or the linesearch rejects the direction, as its Armijo
test rejects every trial of one that is not finite. Each step function
reports its failure by returning None; none raises. The smoothing eps stays
fixed; each point is regularized with delta = min(delta0, ||F_eps||). The
solve stops once ||F_0|| <= tol. The Armijo constants and the regularization
cap are fixed (SolverConfig.sigma, .beta, .max_backtracks, .delta0); tol and
max_iters are the only settings.

fbrs_solve holds one evaluated point, fb._evaluate's record of the flat
iterate x = [z; v] with v, F_eps, y, hypot(hypot(v, y), eps) and F_eps'F_eps,
and the linesearch returns the point it accepts. That point gives the next
pass its norms, its delta, its Newton right-hand side -F_eps, its FB
coefficients and theta. Each pass's IterationRecord keeps its point. The loop
stops on ||F_eps|| <= _CERTIFIED tol, which certifies ||F_0|| <= tol, and
forms ||F_0|| only on the passes between that and 2 tol, so the stop is the
pass that the test ||F_0|| <= tol picks; nothing is formed at exit. Every
other norm of a record, and so the result's final norms, is formed the first
time it is read, so a solve whose trace nobody reads forms few or none.
Inputs are validated at entry only: the step functions take the loop's
arrays unchecked, the returned point is not checked again, and overflow in
the loop becomes a status, not a warning.

The loop hands the ufuncs of fbrs.fb a 0-d float64 eps and delta, which numpy
takes faster than a Python float and with the same bits (see fbrs.fb), and
enters one np.errstate context per solve, at about a microsecond per entry;
the records and the result hold Python floats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar

import numpy as np

from .errors import InvalidConfig
from .fb import _coefficients, _evaluate, _norm_F0, _norm_Fnr, _Point
from .problem import PrimalDualPoint, QpProblem, _check_dims, _check_type, _count, _positive


# ||F_eps|| <= _CERTIFIED tol certifies ||F_0|| <= tol without forming ||F_0||.
# The residuals share their top block and |phi_0 - phi_eps| <= eps per row, so
# ||F_0|| <= ||F_eps|| + sqrt(q) eps = ||F_eps|| + tol / 2 <= 0.99 tol. The
# 0.01 tol margin holds the rounding: fb._phi forms the rows with a + b > 0 in
# quotient form, where a + b - r would cancel, so each computed phi_0 row errs
# by a few ulps of its value and each phi_eps row by a few ulps of |phi_eps| +
# eps, and both norms are accurate to far below 1% of tol.
# The certificate thus stops no pass that ||F_0|| <= tol would not stop, and
# since ||F_0|| >= ||F_eps|| - tol / 2, the loop forms ||F_0|| only on passes
# with _CERTIFIED tol < ||F_eps|| <= 2 tol
_CERTIFIED = 0.49


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
    """Observable state of one loop pass, in Python floats; t = 0 means no
    step was taken. norm_F0 and norm_Fnr are formed from the pass's point
    when first read, each in its own np.errstate context, so overflow reads
    inf without a warning; the solve loop caches the norm_F0 it forms in its
    own context, on passes with _CERTIFIED tol < ||F_eps|| <= 2 tol."""

    k: int
    norm_Feps: float
    t: float
    delta: float
    eps: float
    backtracks: int
    _point: _Point = field(repr=False, compare=False)

    @functools.cached_property
    def norm_F0(self) -> float:
        with np.errstate(all="ignore"):
            return _norm_F0(self._point)

    @functools.cached_property
    def norm_Fnr(self) -> float:
        with np.errstate(all="ignore"):
            return _norm_Fnr(self._point)


@dataclass
class SolverResult:
    """The returned point, the status, the Newton steps taken and one record
    per pass. The final norms are the last record's, read from it, so
    final_norm_F0 and final_norm_Fnr are formed when first read (see
    IterationRecord)."""

    x: PrimalDualPoint
    status: Status
    iterations: int
    trace: list[IterationRecord]

    @property
    def final_norm_F0(self) -> float:
        return self.trace[-1].norm_F0

    @property
    def final_norm_Feps(self) -> float:
        return self.trace[-1].norm_Feps

    @property
    def final_norm_Fnr(self) -> float:
        return self.trace[-1].norm_Fnr


def solve_condensed(p: QpProblem, gamma: np.ndarray, mu: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve [H A'; -CA D] dx = rhs, rhs = (r_s, r_c), C = diag(gamma),
    D = diag(mu), via the Schur complement
    (H + A' C D^-1 A) dz = r_s - A' D^-1 r_c (p._schur_solve),
    then the diagonal back-substitution D dv = r_c + C A dz, and return the
    step dx = (dz, dv). Arguments are not checked. The row weights
    w = gamma / mu are >= 0 (|y| <= r makes 1 - y/r >= 0, and delta >= 0).

    Returns None when the Schur matrix is not numerically positive definite;
    fbrs_solve then takes a merit-gradient step. dx is returned unchecked:
    linesearch rejects one that is not finite, since no trial along it has a
    finite merit. The loop's mu is >= delta > 0 (|v| <= r); a zero mu_i
    gives None or a direction that is not finite.
    """
    n = p.n
    r_s, r_c = rhs[:n], rhs[n:]
    dz = p._schur_solve(gamma / mu, r_s - p._At_dot(r_c / mu))
    if dz is None:
        return None
    return np.concatenate([dz, (r_c + gamma * p._A_dot(dz)) / mu])


def _merit_gradient(p: QpProblem, F: np.ndarray, gamma: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """grad theta_eps = V' F_eps, with V = [H A'; -CA D] the iteration matrix
    at delta = 0 and F = F_eps. Arguments are not checked."""
    F_top, F_bot = F[:p.n], F[p.n:]
    gz = p.H.dot(F_top) - p._At_dot(gamma * F_bot)
    gv = p._A_dot(F_top) + mu * F_bot
    return np.concatenate([gz, gv])


def linesearch(p: QpProblem, point: _Point, dx, eps):
    """First t in {1, beta, beta^2, ...} with theta(x + t dx) < (1 - 2 t sigma) theta(x),
    where x = point.x, theta = 0.5 ||F_eps||^2 = 0.5 point.ff at eps (a float
    or a 0-d float array, passed on to _evaluate) and sigma, beta are
    SolverConfig's. Returns (t, backtracks, point') with point' the
    evaluated accepted point, or None when SolverConfig.max_backtracks
    reductions were not enough (dx is no usable descent direction). A dx
    that is not finite is one such: an inf or nan entry makes an entry of
    Hz, or a phi row, of every trial non-finite, and so its merit, which
    fails the Armijo test. A finite dx whose first trials overflow the
    merit backtracks on the same way.
    """
    # read at call time, not import time, so a patched constant takes effect
    beta, sigma, max_backtracks = SolverConfig.beta, SolverConfig.sigma, SolverConfig.max_backtracks
    x, theta0 = point.x, 0.5 * point.ff
    for j in range(max_backtracks + 1):
        t = beta**j
        # t = 1.0 at j = 0, and 1.0 * dx is dx bit for bit
        trial = _evaluate(p, x + t * dx if j else x + dx, eps)
        if 0.5 * trial.ff < (1.0 - 2.0 * t * sigma) * theta0:
            return t, j, trial
    return None


def fbrs_solve(p: QpProblem, x0: PrimalDualPoint, cfg: SolverConfig | None = None) -> SolverResult:
    """Run the damped Newton iteration from x0 (feasibility not required).

    Per pass: set delta = min(delta0, ||F_eps||) at the current point, stop if
    ||F_0|| <= tol already holds (so a warmstart at the solution costs zero
    Newton solves), otherwise take a globalized step. ||F_eps|| <=
    _CERTIFIED tol certifies the stop without forming ||F_0||, which is
    formed only on passes with _CERTIFIED tol < ||F_eps|| <= 2 tol. When the
    Newton step fails (solve_condensed or linesearch returns None), a
    merit-gradient step is taken instead; when the linesearch rejects that
    too, the solve ends with status LINESEARCH_FAILURE (as with H = 0 and
    A = 0, at iteration 0).
    A non-finite merit gradient (the residual overflowed), which
    np.isfinite finds exactly and without a warning, ends it with status
    INVALID_PROBLEM. Either way the last accepted iterate is returned. The
    trace gets one record per pass including the terminal one, so it has
    iterations + 1 entries, and the result's final norms read the last
    one, which forms them when first read, as every record does. Each pass
    reads the evaluated point (fb._evaluate) that the previous linesearch
    accepted, so every point is evaluated once. The solve enters one
    np.errstate context, emits no floating-point warnings, and ends each
    step failure in a status; the ufuncs get eps and delta as 0-d arrays,
    and the records and result get Python floats. The
    InvalidProblem exception comes only from the entry checks: p must be a
    QpProblem and x0 a PrimalDualPoint of its (n, q). InvalidConfig unless
    cfg is a SolverConfig or None.
    """
    _check_type(p, QpProblem, "p")
    cfg = SolverConfig() if cfg is None else cfg
    _check_type(cfg, SolverConfig, "cfg", InvalidConfig)
    _check_dims(x0, p.n, p.q, "x0")
    n = p.n
    tol, max_iters, delta0 = cfg.tol, cfg.max_iters, cfg.delta0
    eps = cfg.effective_eps(p.q)
    # the ufuncs' 0-d operands; delta0's serves every pass with
    # ||F_eps|| >= delta0
    eps_0d, delta0_0d = np.array(eps), np.array(delta0)
    trace: list[IterationRecord] = []
    status = Status.MAX_ITERS
    certified, near_tol = _CERTIFIED * tol, 2.0 * tol
    # overflow and NaN are statuses here (a failed Armijo test or a
    # non-finite merit gradient), not warnings; the norms the loop forms are
    # formed in this one context
    with np.errstate(all="ignore"):
        point = _evaluate(p, x0.as_vector(), eps_0d)
        for k in range(max_iters + 1):
            F, y, v = point.F, point.y, point.v
            n_feps = math.sqrt(point.ff)
            # delta = min(delta0, ||F_eps||) without the builtin's call: delta0
            # unless ||F_eps|| is below it, so also when ||F_eps|| is nan
            if n_feps < delta0:
                delta, delta_0d = n_feps, np.array(n_feps)
            else:
                delta, delta_0d = delta0, delta0_0d
            # positional: keywords cost a dataclass __init__ their parsing
            rec = IterationRecord(k, n_feps, 0.0, delta, eps, 0, point)
            trace.append(rec)
            # see _CERTIFIED: the certificate, then ||F_0|| <= tol, which no
            # point with ||F_eps|| > 1.5 tol passes (2 tol leaves a margin
            # for rounding)
            if n_feps <= near_tol:
                if n_feps > certified:
                    rec.norm_F0 = _norm_F0(point)
                if n_feps <= certified or rec.norm_F0 <= tol:
                    status = Status.SOLVED
                    break
            if k == max_iters:
                break
            dx = solve_condensed(p, *_coefficients(y, v, point.r, delta_0d), -F)
            step = None if dx is None else linesearch(p, point, dx, eps_0d)
            if step is None:
                dx = -_merit_gradient(p, F, *_coefficients(y, v, point.r, 0.0))
                if not np.isfinite(dx).all():
                    status = Status.INVALID_PROBLEM
                    break
                step = linesearch(p, point, dx, eps_0d)
                if step is None:
                    status = Status.LINESEARCH_FAILURE
                    break
            rec.t, rec.backtracks, point = step

    return SolverResult(
        x=PrimalDualPoint._trusted(point.x[:n], point.v),
        status=status,
        iterations=len(trace) - 1,
        trace=trace,
    )
