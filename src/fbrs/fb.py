"""Smoothed Fischer-Burmeister kernel and the residual F_eps.

phi_eps(a, b) = a + b - sqrt(a^2 + b^2 + eps^2) recasts the complementarity
pair (a, b) as a single equation; its partial derivatives supply the diagonal
coefficients of the Newton system. The residual

    F_eps(z, v) = [Hz + f + A'v; phi_eps(v, y)],   y = b - Az,

is formed in one place, _evaluate, which returns the evaluated point
(_Point): the flat iterate x = [z; v], its v, F_eps, y,
r = hypot(hypot(v, y), eps) and ||F_eps||, each of which every Newton pass
reads: the coefficients (_coefficients with r), the right-hand side and the
merit. A trace record's ||F_0|| and ||F_nr|| (_norm_F0, _norm_Fnr), which
few passes read, form what else they need from the point. Every one of these
norms is formed by _norm, which is finite for every finite vector, so no
norm reads inf where its residual is finite. This module forms every
residual; none of these functions checks its arguments.

Every scalar that these functions hand a ufunc is a 0-d float64 array: the
read-only constants below, and the eps and delta the solve loop passes. A
ufunc call on a short vector takes about two thirds of the time with a 0-d
array operand that it takes with a Python float, which numpy must convert
first; it applies the same float64 operation, so the bits are the same. The
functions take Python floats as well.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .problem import QpProblem, _frobenius, _readonly

_ZERO, _ONE, _TWO, _INF = (_readonly(np.array(value)) for value in (0.0, 1.0, 2.0, math.inf))


def _phi(a: np.ndarray, b: np.ndarray, eps, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """phi_eps(a, b) = a + b - r elementwise on float arrays of at least one
    axis, given r = hypot(hypot(a, b), eps); at eps = 0, r = hypot(a, b)
    exactly. eps is a float or a 0-d float array. The result is written into
    out, a float array of a's shape that no argument shares memory with, or
    a new array when out is None. With s = a + b, rows with
    s > 0 use the equal quotient (2ab - eps^2) / d, d = s + r, taken as
    2b (a / d) - eps (eps / d): s - r cancels there, and at (a, b) =
    (-1, 1e16) it reads 0, not -1. The quotient's last ufunc writes into
    s - r where s > 0 (out= and where=, which need an array to write into, so
    0-d input does not do): the entries np.where would pick, nan and inf
    included, with no array for the quotient or for np.where's output. The
    other rows' quotient terms are formed and discarded, so their d need
    only keep them finite and silent: at eps > 0, d = |s| + r >= eps > 0
    (the same d where s > 0); at eps = 0, where a = b = 0 would give 0 / 0,
    d = inf, and the eps term, exactly 0, is left out. eps is tested by
    truth value, which on a 0-d array costs far less than a comparison.
    Arguments are not checked."""
    s = a + b
    pos = s > _ZERO
    out = np.subtract(s, r, out=out)
    if eps:
        d = np.abs(s) + r
        np.subtract(_TWO * (b * (a / d)), eps * (eps / d), out=out, where=pos)
    else:
        d = np.where(pos, s + r, _INF)
        np.multiply(_TWO, b * (a / d), out=out, where=pos)
    return out


def _coefficients(y: np.ndarray, v: np.ndarray, r: np.ndarray, delta):
    """(gamma, mu), the diagonals of the blocks C, D of the Newton system:
    gamma_i = 1 - y_i/r_i + delta, mu_i = 1 - v_i/r_i + delta, given
    r = sqrt(y^2 + v^2 + eps^2) (a point's r) and delta a float or a 0-d
    float array. Arguments are not checked; the solve loop's eps > 0 keeps
    every r_i positive, and it passes delta >= 0."""
    return (_ONE - y / r) + delta, (_ONE - v / r) + delta


def _norm(vec: np.ndarray) -> float:
    """||vec|| of a float vector: sqrt(vec'vec) while that square is below
    inf, else BLAS dnrm2 (problem._frobenius), which scales instead of
    squaring: finite for every finite vec, inf when an entry is, and nan
    when one is nan."""
    square = float(vec.dot(vec))
    return math.sqrt(square) if square < math.inf else _frobenius(vec)


class _Point(NamedTuple):
    """An evaluated iterate: x = [z; v], v (a view of x), F = F_eps(x),
    y = b - Az, r = hypot(hypot(v, y), eps) and norm = ||F|| (_norm)."""

    x: np.ndarray
    v: np.ndarray
    F: np.ndarray
    y: np.ndarray
    r: np.ndarray
    norm: float


def _evaluate(p: QpProblem, x: np.ndarray, eps) -> _Point:
    """The _Point of x = [z; v], whose F is [Hz + f + A'v; phi_eps(v, y)],
    at eps a float or a 0-d float array (the solve loop passes the latter).
    A and A' are applied by the problem's bound products. F is one new array
    that the last add of (Hz + f) + A'v and _phi write their blocks into, with
    the bits of the concatenated blocks. Of r = hypot(hypot(v, y), eps) the
    point keeps only r: the inner hypot(v, y) serves only _norm_F0, which
    forms it again. Arguments are not checked."""
    n = p.n
    z, v = x[:n], x[n:]
    y = p.b - p._A_dot(z)
    r = np.hypot(np.hypot(v, y), eps)
    F = np.empty(x.size)
    np.add(p.H.dot(z) + p.f, p._At_dot(v), out=F[:n])
    _phi(v, y, eps, r, F[n:])
    return _Point(x, v, F, y, r, _norm(F))


def _norm_F0(point: _Point) -> float:
    """||F_0|| at point: its F_eps with the phi tail at eps = 0, from
    r = hypot(v, y), formed here since few passes read it. Overflow warns
    unless the caller holds an np.errstate context, as fbrs_solve and the
    IterationRecord properties do."""
    return _norm(np.concatenate([point.F[:-point.v.size], _phi(point.v, point.y, _ZERO, np.hypot(point.v, point.y))]))


def _norm_Fnr(point: _Point) -> float:
    """||F_nr|| at point: its F_eps with the natural-residual tail min(y, v).
    Overflow warns unless the caller holds an np.errstate context."""
    return _norm(np.concatenate([point.F[:-point.v.size], np.minimum(point.y, point.v)]))
