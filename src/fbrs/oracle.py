"""Independent ground truth for small QPs.

`solve_by_enumeration` brute-forces every candidate active set and solves the
bordered equality-KKT system for each; `verify_kkt` certifies any point against
the first-order conditions. Both are deliberately kept free of any code shared
with the Newton solver so they can act as an oracle for it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import (
    DegenerateKkt,
    EnumerationTooLarge,
    InfeasibleProblem,
    UnboundedProblem,
)
from .problem import PrimalDualPoint, QpProblem, _check_dims, _positive, constraint_slack

MAX_ENUM_CONSTRAINTS = 16
MAX_ENUM_VARIABLES = 8
ENUM_TOL = 1e-9  # feasibility / dual-sign acceptance inside the enumeration
START_SCALE = 10.0  # standard deviation of random_infeasible_start's entries


@dataclass(frozen=True)
class KktReport:
    """The four first-order optimality measures at a point."""

    stationarity_norm: float
    primal_infeasibility: float  # max(0, max_i (Az - b)_i)
    dual_infeasibility: float  # max(0, -min_i v_i)
    complementarity: float  # max_i |v_i * y_i|
    tol: float
    passed: bool


def verify_kkt(p: QpProblem, x: PrimalDualPoint, tol: float) -> KktReport:
    """Evaluate stationarity, feasibility, and complementarity at x; x must match
    p's (n, q) and tol be a finite real > 0 (else InvalidProblem)."""
    _check_dims(x, p.n, p.q, "x")
    tol = _positive(tol, "tol")
    y = constraint_slack(p, x.z)
    stat = float(np.linalg.norm(p.H @ x.z + p.f + p.A.T @ x.v))
    primal = float(max(0.0, np.max(-y)))
    dual = float(max(0.0, -np.min(x.v)))
    comp = float(np.max(np.abs(x.v * y)))
    passed = stat <= tol and primal <= tol and dual <= tol and comp <= tol
    return KktReport(stat, primal, dual, comp, tol, passed)


def solve_by_enumeration(p: QpProblem) -> PrimalDualPoint:
    """Exact small-QP solve by enumerating active sets.

    For every subset S of constraints with |S| <= n and A_S of full row rank,
    solve the bordered system [H A_S'; A_S 0] (z, v_S) = (-f, b_S) and accept
    the candidate if it is primal feasible and has nonnegative duals on S.
    Returns the accepted candidate with the lowest objective (ties broken
    lexicographically on z). Budget: q <= 16 and n <= 8.
    """
    n, q = p.n, p.q
    if q > MAX_ENUM_CONSTRAINTS or n > MAX_ENUM_VARIABLES:
        raise EnumerationTooLarge(
            f"enumeration supports q <= {MAX_ENUM_CONSTRAINTS} and n <= {MAX_ENUM_VARIABLES},"
            f" got (n, q) = ({n}, {q})"
        )
    best = None
    best_key = None
    solved_any = False
    singular_any = False
    for size in range(min(n, q) + 1):
        for subset in itertools.combinations(range(q), size):
            S = list(subset)
            A_S = p.A[S, :]
            if size > 0 and np.linalg.matrix_rank(A_S) < size:
                continue
            m = n + size
            bordered = np.zeros((m, m))
            bordered[:n, :n] = p.H
            if size > 0:
                bordered[:n, n:] = A_S.T
                bordered[n:, :n] = A_S
            rhs = np.concatenate([-p.f, p.b[S]])
            try:
                sol = np.linalg.solve(bordered, rhs)
            except np.linalg.LinAlgError:
                singular_any = True
                continue
            if np.linalg.norm(bordered @ sol - rhs) > 1e-8 * (1.0 + np.linalg.norm(rhs)):
                singular_any = True
                continue
            solved_any = True
            z = sol[:n]
            v = np.zeros(q)
            v[S] = sol[n:]
            if np.max(p.A @ z - p.b) > ENUM_TOL:
                continue
            if size > 0 and np.min(v[S]) < -ENUM_TOL:
                continue
            obj = 0.5 * z @ (p.H @ z) + p.f @ z
            key = (obj, tuple(z))
            if best_key is None or key < best_key:
                best_key = key
                best = PrimalDualPoint(z, np.maximum(v, 0.0))
    if best is not None:
        return best
    if not solved_any and singular_any:
        raise DegenerateKkt("every candidate active set gave a singular bordered system")
    if _is_feasible(p):
        raise UnboundedProblem("feasible but no active set satisfies the KKT conditions")
    raise InfeasibleProblem("no point satisfies Az <= b")


def _is_feasible(p: QpProblem) -> bool:
    # min s >= 0 subject to Az - s*1 <= b; feasible iff the optimum is <= ENUM_TOL
    c = np.zeros(p.n + 1)
    c[-1] = 1.0
    A_ub = np.hstack([p.A, -np.ones((p.q, 1))])
    bounds = [(None, None)] * p.n + [(0.0, None)]
    res = linprog(c, A_ub=A_ub, b_ub=p.b, bounds=bounds, method="highs")
    return res.status == 0 and res.fun <= ENUM_TOL


def random_strictly_convex_qp(n: int, q: int, rng: np.random.Generator) -> QpProblem:
    """A random instance satisfying A1-A3 by construction.

    H = M'M + 1e-2 I is strictly positive definite (A1, A3); constraint rows
    are resampled when nearly parallel to an earlier row so that any active
    subset is numerically independent (A2); b = A z0 + positive slack makes z0
    strictly feasible.
    """
    M = rng.standard_normal((n, n)) / np.sqrt(n)
    H = M.T @ M + 1e-2 * np.eye(n)
    A = np.empty((q, n))
    for row in range(q):
        cand = rng.standard_normal(n)
        cand /= np.linalg.norm(cand)
        # thin same-direction near-duplicates; parallel rows with distinct
        # offsets are harmless, so give up after a few retries (tiny n)
        for _ in range(50):
            if row == 0 or np.max(A[:row] @ cand) < 1.0 - 1e-8:
                break
            cand = rng.standard_normal(n)
            cand /= np.linalg.norm(cand)
        A[row] = cand
    z0 = rng.standard_normal(n)
    b = A @ z0 + rng.uniform(0.1, 1.1, q)
    f = rng.standard_normal(n)
    return QpProblem(H, f, A, b)


def random_infeasible_start(p: QpProblem, rng: np.random.Generator) -> PrimalDualPoint:
    """A primal-infeasible, sign-mixed starting point for cold-start stress tests."""
    z = START_SCALE * rng.standard_normal(p.n)
    for _ in range(100):
        if np.max(p.A @ z - p.b) > 0:
            break
        z = START_SCALE * rng.standard_normal(p.n)
    return PrimalDualPoint(z, START_SCALE * rng.standard_normal(p.q))
