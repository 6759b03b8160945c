import numpy as np
import pytest
import scipy.linalg

from fbrs import PrimalDualPoint, QpProblem
from fbrs.fb import _phi
from fbrs.oracle import random_infeasible_start, random_strictly_convex_qp


@pytest.fixture
def qp_1d():
    """min 0.5 z^2 - z  s.t.  z <= 0.5; optimum z* = 0.5, v* = 0.5."""
    return QpProblem([[1.0]], [-1.0], [[1.0]], [0.5])


@pytest.fixture
def qp_box_2d():
    """min 0.5||z||^2 - 2.1'z  s.t.  z <= (1, 1); optimum z* = (1, 1), v* = (1, 1)."""
    return QpProblem(np.eye(2), [-2.0, -2.0], np.eye(2), [1.0, 1.0])


@pytest.fixture
def qp_interior():
    """min 0.5 z^2  s.t.  z <= 1; unconstrained optimum z* = 0, v* = 0."""
    return QpProblem([[1.0]], [0.0], [[1.0]], [1.0])


def pool(n, q, count):
    """The fixed (n, q) pool: (problem, start) for i < count, a strictly
    convex QP and an infeasible start, both drawn from default_rng([1, i])."""
    for i in range(count):
        rng = np.random.default_rng([1, i])
        p = random_strictly_convex_qp(n, q, rng)
        yield p, random_infeasible_start(p, rng)


def survey(seed):
    """The 100 fixed QPs of a survey from zeros, each from default_rng([seed, i]):
    rank-n/2 PSD Hessians at seed 7, LPs (H = 0) at seed 9, n in [2, 9)."""
    for i in range(100):
        rng = np.random.default_rng([seed, i])
        n = int(rng.integers(2, 9))
        q = int(rng.integers(n + 1, 2 * n + 3))
        M = rng.standard_normal((max(n // 2, 1), n)) if seed == 7 else np.zeros((1, n))
        A = rng.standard_normal((q, n))
        b = rng.uniform(0.1, 1, q)
        f = rng.standard_normal(n)
        yield QpProblem(M.T @ M, f, A, b), PrimalDualPoint.zeros(n, q)


def kkt_matrix(p, gamma, mu):
    """The dense (n+q) x (n+q) iteration matrix [H A'; -CA D]."""
    n = p.n
    K = np.zeros((n + p.q, n + p.q))
    K[:n, :n] = p.H
    K[:n, n:] = p.A.T
    K[n:, :n] = -gamma[:, None] * p.A
    K[n:, n:] = np.diag(mu)
    return K


def lu_step(p, gamma, mu, rhs):
    """The reference step: dense LU with partial pivoting of the full system."""
    return scipy.linalg.lu_solve(scipy.linalg.lu_factor(kkt_matrix(p, gamma, mu)), rhs)


def tail_pairs(trace):
    """The consecutive records (a, b) of a trace with a step taken (a.t > 0)
    from ||F_eps|| <= 1e-3: the tail the contraction and unit-step bounds read."""
    return [(a, b) for a, b in zip(trace, trace[1:]) if a.t > 0 and a.norm_Feps <= 1e-3]


def phi_eps(a, b, eps):
    """a + b - sqrt(a^2 + b^2 + eps^2) by fb._phi; a float for scalar input,
    which goes in as a one-entry array, as _phi writes into an array."""
    scalar = np.ndim(a) == np.ndim(b) == 0
    a, b = np.atleast_1d(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    out = _phi(a, b, eps, np.hypot(np.hypot(a, b), eps))
    return float(out[0]) if scalar else out
