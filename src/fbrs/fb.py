"""Smoothed Fischer-Burmeister kernel and the residual F_eps.

phi_eps(a, b) = a + b - sqrt(a^2 + b^2 + eps^2) recasts the complementarity
pair (a, b) as a single equation; its partial derivatives supply the diagonal
coefficients of the Newton system. The residual

    F_eps(z, v) = [Hz + f + A'v; phi_eps(v, y)],   y = b - Az,

is formed in one place, _evaluate, which returns the evaluated point
(_Point): the flat iterate x = [z; v] with F_eps, y, r0 = hypot(v, y),
r = hypot(r0, eps) and F_eps'F_eps. The solve loop reads every per-point
quantity from it: the coefficients (_coefficients with r) and the merit, and
a trace record, when read, ||F_0|| and ||F_nr|| (_norm_F0, _norm_Fnr). This
module forms every residual; none of these functions checks its arguments.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .problem import QpProblem, _times_A, _times_At


def _phi(a: np.ndarray, b: np.ndarray, eps: float, r: np.ndarray) -> np.ndarray:
    """phi_eps(a, b) = a + b - r elementwise on float arrays, given
    r = hypot(hypot(a, b), eps); at eps = 0, r = hypot(a, b) exactly. With
    s = a + b, rows with s > 0 use the equal quotient (2ab - eps^2) / (s + r),
    taken as 2b (a / (s + r)) - eps (eps / (s + r)): s - r cancels there, and
    at (a, b) = (-1, 1e16) it reads 0, not -1. Arguments are not checked."""
    s = a + b
    pos = s > 0
    # d = inf on the other rows keeps their unused quotient finite and silent
    d = np.where(pos, s + r, np.inf)
    return np.where(pos, 2.0 * (b * (a / d)) - eps * (eps / d), s - r)


def _coefficients(y: np.ndarray, v: np.ndarray, r: np.ndarray, delta: float):
    """(gamma, mu), the diagonals of the blocks C, D of the Newton system:
    gamma_i = 1 - y_i/r_i + delta, mu_i = 1 - v_i/r_i + delta, given
    r = sqrt(y^2 + v^2 + eps^2) (a point's r). Arguments are not checked; the
    solve loop's eps > 0 keeps every r_i positive, and it passes delta >= 0."""
    return (1.0 - y / r) + delta, (1.0 - v / r) + delta


class _Point(NamedTuple):
    """An evaluated iterate: x = [z; v], F = F_eps(x), y = b - Az,
    r0 = hypot(v, y), r = hypot(r0, eps) and ff = F'F."""

    x: np.ndarray
    F: np.ndarray
    y: np.ndarray
    r0: np.ndarray
    r: np.ndarray
    ff: float


def _evaluate(p: QpProblem, x: np.ndarray, eps: float) -> _Point:
    """The _Point of x = [z; v], whose F is [Hz + f + A'v; phi_eps(v, y)].
    Arguments are not checked."""
    z, v = x[:p.n], x[p.n:]
    y = p.b - _times_A(p, z)
    r0 = np.hypot(v, y)
    r = np.hypot(r0, eps)
    F = np.concatenate([p.H @ z + p.f + _times_At(p, v), _phi(v, y, eps, r)])
    return _Point(x, F, y, r0, r, float(F @ F))


def _norm_F0(point: _Point) -> float:
    """||F_0|| at point: its F_eps with the phi tail at eps = 0, from r0."""
    n = point.x.size - point.y.size
    with np.errstate(all="ignore"):
        F0 = np.concatenate([point.F[:n], _phi(point.x[n:], point.y, 0.0, point.r0)])
        return math.sqrt(F0 @ F0)


def _norm_Fnr(point: _Point) -> float:
    """||F_nr|| at point: its F_eps with the natural-residual tail min(y, v)."""
    n = point.x.size - point.y.size
    with np.errstate(all="ignore"):
        Fnr = np.concatenate([point.F[:n], np.minimum(point.y, point.x[n:])])
        return math.sqrt(Fnr @ Fnr)
