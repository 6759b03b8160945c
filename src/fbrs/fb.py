"""Smoothed Fischer-Burmeister kernel.

phi_eps(a, b) = a + b - sqrt(a^2 + b^2 + eps^2) recasts the complementarity
pair (a, b) as a single equation; its partial derivatives supply the diagonal
coefficients of the Newton system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .problem import PrimalDualPoint, QpProblem, constraint_slack, lagrangian_gradient

# Tie-break at eps = 0, (y_i, v_i) = (0, 0): alpha = beta = 1/sqrt(2), so both
# coefficients equal 1 - 1/sqrt(2) before regularization. Deterministic,
# symmetric in (y, v), and strictly positive even at delta = 0.
SEMISMOOTH_TIE = 1.0 - 1.0 / math.sqrt(2.0)

VARIANTS = ("smoothed", "semismooth")


@dataclass(frozen=True)
class FbCoefficients:
    """Diagonals gamma, mu of the blocks C, D."""

    gamma: np.ndarray
    mu: np.ndarray


def phi_eps(a, b, eps: float):
    """a + b - sqrt(a^2 + b^2 + eps^2), elementwise on array input.

    The root is evaluated hypot-style so large |a|, |b| do not overflow.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = a + b - np.hypot(np.hypot(a, b), eps)
    return float(out) if out.ndim == 0 else out


def fb_coefficients(
    y: np.ndarray,
    v: np.ndarray,
    eps: float,
    delta: float,
    variant: str = "smoothed",
) -> FbCoefficients:
    """Per-row coefficients gamma_i = 1 - y_i/r_i + delta, mu_i = 1 - v_i/r_i + delta
    with r_i = sqrt(y_i^2 + v_i^2 + eps^2).

    The smoothed variant requires eps > 0. The semismooth variant allows
    eps = 0 and applies the fixed tie-break at rows where r_i = 0.
    """
    if variant not in VARIANTS:
        raise InvalidConfig(f"variant must be one of {VARIANTS}, got {variant!r}")
    if eps < 0:
        raise InvalidConfig("eps must be nonnegative")
    if variant == "smoothed" and eps == 0:
        raise InvalidConfig("the smoothed variant requires eps > 0")
    if delta < 0:
        raise InvalidConfig("delta must be nonnegative")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    r = np.hypot(np.hypot(y, v), eps)
    gamma = np.full_like(r, SEMISMOOTH_TIE)
    mu = np.full_like(r, SEMISMOOTH_TIE)
    nz = r > 0.0
    gamma[nz] = 1.0 - y[nz] / r[nz]
    mu[nz] = 1.0 - v[nz] / r[nz]
    return FbCoefficients(gamma=gamma + delta, mu=mu + delta)


def residual_map(p: QpProblem, x: PrimalDualPoint, eps: float) -> np.ndarray:
    """F_eps(x) = [Hz + f + A'v; phi_eps(v, y)] with y = b - Az."""
    y = constraint_slack(p, x.z)
    return np.concatenate([lagrangian_gradient(p, x), phi_eps(x.v, y, eps)])


def smoothing_gap_bound_check(p: QpProblem, x: PrimalDualPoint, eps: float):
    """(gap, bound) with gap = ||F_eps(x) - F_0(x)|| and bound = sqrt(q) * eps.

    The gap never exceeds the bound; equality needs every (v_i, y_i) at the
    origin.
    """
    gap = float(np.linalg.norm(residual_map(p, x, eps) - residual_map(p, x, 0.0)))
    return gap, math.sqrt(p.q) * eps
