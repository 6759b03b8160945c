"""Smoothed Fischer-Burmeister kernel and the residual F_eps.

phi_eps(a, b) = a + b - sqrt(a^2 + b^2 + eps^2) recasts the complementarity
pair (a, b) as a single equation; its partial derivatives supply the diagonal
coefficients of the Newton system. The residual

    F_eps(z, v) = [Hz + f + A'v; phi_eps(v, y)],   y = b - Az,

is formed in one place, _evaluate, and the coefficients in one place,
_coefficients. The solve loop calls both on its own arrays; neither checks
its arguments. The loop forms one hypot(v, y) per accepted point and shares
it between the ||F_0|| tail (_phi at eps = 0) and the coefficients.
"""

from __future__ import annotations

import numpy as np

from .problem import QpProblem


def phi_eps(a, b, eps: float):
    """a + b - sqrt(a^2 + b^2 + eps^2), elementwise on array input.

    With s = a + b and r = sqrt(a^2 + b^2 + eps^2) (evaluated hypot-style, so
    large |a|, |b| do not overflow), rows with s > 0 use the equal quotient
    (2ab - eps^2) / (s + r), taken as 2b (a / (s + r)) - eps (eps / (s + r)):
    s - r cancels there, and at (a, b) = (-1, 1e16) it reads 0, not -1.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = _phi(a, b, eps, np.hypot(np.hypot(a, b), eps))
    return float(out) if out.ndim == 0 else out


def _phi(a: np.ndarray, b: np.ndarray, eps: float, r: np.ndarray) -> np.ndarray:
    """phi_eps(a, b, eps) on float arrays, given r = hypot(hypot(a, b), eps);
    at eps = 0, r = hypot(a, b) exactly. Arguments are not checked."""
    s = a + b
    pos = s > 0
    # d = inf on the other rows keeps their unused quotient finite and silent
    d = np.where(pos, s + r, np.inf)
    return np.where(pos, 2.0 * (b * (a / d)) - eps * (eps / d), s - r)


def _coefficients(y: np.ndarray, v: np.ndarray, eps: float, delta: float, r0=None):
    """(gamma, mu), the diagonals of the blocks C, D of the Newton system:
    gamma_i = 1 - y_i/r_i + delta, mu_i = 1 - v_i/r_i + delta with
    r = hypot(r0, eps) = sqrt(y^2 + v^2 + eps^2), where r0 = hypot(y, v) unless
    the caller passes it. Arguments are not checked; the solve loop passes
    eps > 0, which keeps every r_i positive, and delta >= 0."""
    r = np.hypot(np.hypot(y, v) if r0 is None else r0, eps)
    return (1.0 - y / r) + delta, (1.0 - v / r) + delta


def _evaluate(p: QpProblem, z: np.ndarray, v: np.ndarray, eps: float):
    """(F_eps, y) at (z, v): the residual [Hz + f + A'v; phi_eps(v, y)] and the
    slack y = b - Az. Arguments are not checked."""
    y = p.b - p.A @ z
    return np.concatenate([p.H @ z + p.f + p.A.T @ v, phi_eps(v, y, eps)]), y
