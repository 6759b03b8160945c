import dataclasses
import functools
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
import scipy.linalg

from fbrs import PrimalDualPoint, QpProblem, SolverConfig, mpc, newton
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


def psd_pool():
    """The 10 fixed QPs with rank-n/2 PSD Hessians, n in [48, 100), from zeros,
    each from default_rng([2, i]): rejected Newton steps are common here, on
    both sides of problem._PRUNE_MIN_N."""
    for i in range(10):
        rng = np.random.default_rng([2, i])
        n = int(rng.integers(48, 100))
        q = int(rng.integers(n + 1, 2 * n + 3))
        M = rng.standard_normal((n // 2, n))
        p = QpProblem(M.T @ M, rng.standard_normal(n), rng.standard_normal((q, n)), rng.uniform(0.1, 1, q))
        yield p, PrimalDualPoint.zeros(n, q)


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


def in_f0_band(rec, tol):
    """Whether the loop forms the ||F_0|| of this record's pass: ||F_eps||
    above the certificate's _CERTIFIED tol, and not above 2 tol."""
    return newton._CERTIFIED * tol < rec.norm_Feps <= 2.0 * tol


# --- the fixed solve set ------------------------------------------------------
# Declared once: the (20, 40), (100, 200) and (300, 600) pools, the PSD-Hessian
# (seed 7) and LP (seed 9) surveys and psd_pool at CFG, and the 18 closed loops
# of LOOPS, 50 steps each at run_sequence's default tol. test_paths.py pins
# their paths and hashes their bits in KEYS order; psd_pool comes last, so the
# first digest line keeps its solves.

CFG = SolverConfig(tol=1e-8, max_iters=100)
POOLS = {"pool-20-40": (20, 40, 50), "pool-100-200": (100, 200, 20), "pool-300-600": (300, 600, 3)}
SURVEYS = {"survey-psd-solved": 7, "survey-lp-solved": 9}
MODES = ("cold", "warm", "shift")


def _loop_specs() -> dict:
    x_hi = np.full(6, 3.0)
    specs = {
        "mass-spring-40": mpc.mass_spring_chain(40),
        "double-integrator-8": mpc.double_integrator(8),
        "mass-spring-8": mpc.mass_spring_chain(8),
        "double-integrator-40": mpc.double_integrator(40),
    }
    for N in (8, 40):
        specs[f"mass-spring-{N}-box"] = dataclasses.replace(mpc.mass_spring_chain(N), x_lo=-x_hi, x_hi=x_hi)
    return specs


LOOPS = [f"loop {name} {mode}" for name in _loop_specs() for mode in MODES]
PSD_POOL = "pool-psd-48-100"
KEYS = [*POOLS, *SURVEYS, *LOOPS, PSD_POOL]


def instances(key):
    """The (problem, start) pairs of a fixed key that is not a loop."""
    if key == PSD_POOL:
        return psd_pool()
    return pool(*POOLS[key]) if key in POOLS else survey(SURVEYS[key])


class Run(NamedTuple):
    """One key's solves, each (tol, result, merit-gradient steps), and a
    closed loop's Trajectory and SequenceStats."""

    solves: list
    trajectory: mpc.Trajectory | None = None
    stats: mpc.SequenceStats | None = None


def _solve(p, x0, cfg) -> tuple:
    with mock.patch.object(newton, "_merit_gradient", side_effect=newton._merit_gradient) as gradient:
        result = newton.fbrs_solve(p, x0, cfg)
    return cfg.tol, result, gradient.call_count


def fixed_run(key: str) -> Run:
    """The Run of one fixed key."""
    if key not in LOOPS:
        return Run([_solve(p, x0, CFG) for p, x0 in instances(key)])
    _, name, mode = key.split()
    solves = []

    def capture(p, x0, cfg):
        solves.append(_solve(p, x0, cfg))
        return solves[-1][1]

    with mock.patch.object(mpc, "fbrs_solve", capture):
        return Run(solves, *mpc.run_sequence(_loop_specs()[name], 50, mode))


@pytest.fixture(scope="session")
def runs():
    """fixed_run, cached: each key is solved the first time a test asks for
    it. Ask before patching anything that a solve calls."""
    return functools.cache(fixed_run)
