import numpy as np
import pytest
import scipy.linalg

from fbrs import QpProblem
from fbrs.fb import _phi


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
    """a + b - sqrt(a^2 + b^2 + eps^2) by fb._phi; a float for scalar input."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = _phi(a, b, eps, np.hypot(np.hypot(a, b), eps))
    return float(out) if out.ndim == 0 else out
