"""Dense inequality-constrained QP data, primal-dual points and the checkable
problem assumptions.

The problem is  minimize 0.5 z'Hz + f'z  subject to  Az <= b,  with H symmetric
positive semidefinite and at least one constraint row.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import FbrsError, InvalidProblem


def _readonly(arr: np.ndarray) -> np.ndarray:
    """arr itself, made read-only: for arrays derived from checked input."""
    arr.setflags(write=False)
    return arr


def _frozen(value, name: str, shape: tuple, error: type[FbrsError] = InvalidProblem) -> np.ndarray:
    """Caller input as a read-only float copy with real, finite entries and the
    given shape, where None is any length >= 1; lower-rank input gains leading
    unit axes (as np.atleast_2d). Raises `error`, naming `name`, otherwise."""
    try:
        arr = np.array(value, ndmin=len(shape))
        if arr.dtype.kind == "c":
            raise TypeError(f"complex dtype {arr.dtype}")
        arr = arr.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise error(f"{name} is not a real numeric array: {exc}") from None
    expected = tuple(got if want is None else want for got, want in zip(arr.shape, shape))
    if arr.shape != expected:
        raise error(f"{name} must have shape {expected}, got {arr.shape}")
    if arr.size == 0 or not np.isfinite(arr).all():
        raise error(f"{name} must have finite entries and no empty axis, got shape {arr.shape}")
    return _readonly(arr)


def _positive(value, name: str, error: type[FbrsError] = InvalidProblem) -> float:
    """A real (not a bool) in (0, inf) as a float."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and 0 < value < math.inf):
        raise error(f"{name} must be a finite real > 0, got {value!r}")
    return float(value)


def _count(value, name: str, error: type[FbrsError] = InvalidProblem) -> int:
    """An integer >= 1 (not a bool) as an int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise error(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class QpProblem:
    """The quadruple (H, f, A, b) as read-only float copies, H symmetrized.

    InvalidProblem names an array that is not finite or not of shape H (n, n),
    f (n,), A (q, n), b (q,) with n, q >= 1. The Frobenius asymmetry of the
    supplied Hessian is kept in `symmetry_defect` so validation can report it.
    """

    H: np.ndarray
    f: np.ndarray
    A: np.ndarray
    b: np.ndarray
    symmetry_defect: float = field(init=False, default=0.0)

    def __post_init__(self):
        H = _frozen(self.H, "H", (None, None))
        n = H.shape[0]
        if H.shape[1] != n:
            raise InvalidProblem(f"H must be square, got shape {H.shape}")
        A = _frozen(self.A, "A", (None, n))
        f, b = _frozen(self.f, "f", (n,)), _frozen(self.b, "b", (A.shape[0],))
        defect = float(np.linalg.norm(H - H.T))
        vars(self).update(H=_readonly(0.5 * (H + H.T)), f=f, A=A, b=b, symmetry_defect=defect)

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def q(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class PrimalDualPoint:
    """A primal-dual iterate (z, v) of finite, nonempty, read-only float vectors;
    v may be sign-mixed mid-solve."""

    z: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        vars(self).update(z=_frozen(self.z, "z", (None,)), v=_frozen(self.v, "v", (None,)))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.z, self.v])

    @staticmethod
    def zeros(n: int, q: int) -> "PrimalDualPoint":
        return PrimalDualPoint(np.zeros(n), np.zeros(q))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the checkable problem assumptions.

    `a3_ok` is the kernel-intersection check: the stacked (n+q) x n matrix
    [H; A] must have full numerical column rank.
    """

    symmetry_defect: float
    symmetry_ok: bool
    sigma_min: float
    sigma_max: float
    a3_ok: bool
    passed: bool
    notes: tuple = ()


def validate_problem(p: QpProblem, tol: float = 1e-10) -> ValidationReport:
    """Check symmetry of the supplied Hessian and the kernel condition.

    Passes iff the construction-time asymmetry is below tol * (1 + ||H||)
    and sigma_min([H; A]) > tol * sigma_max([H; A]). Raises InvalidProblem
    unless tol is a finite real > 0.
    """
    tol = _positive(tol, "tol")
    h_scale = 1.0 + float(np.linalg.norm(p.H))
    symmetry_ok = p.symmetry_defect <= tol * h_scale
    stacked = np.vstack([p.H, p.A])
    svals = np.linalg.svd(stacked, compute_uv=False)
    sigma_max = float(svals[0])
    sigma_min = float(svals[-1])
    a3_ok = sigma_min > tol * sigma_max
    notes = []
    if p.symmetry_defect > 1e-8 * h_scale:
        notes.append(
            f"supplied Hessian asymmetry {p.symmetry_defect:.3e} exceeds 1e-8 relative;"
            " the symmetrized matrix is being used"
        )
    if not a3_ok:
        notes.append(
            "A3 violated: ker H and ker A share a direction "
            f"(sigma_min/sigma_max = {sigma_min / sigma_max if sigma_max else 0.0:.3e})"
        )
    return ValidationReport(
        symmetry_defect=p.symmetry_defect,
        symmetry_ok=symmetry_ok,
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        a3_ok=a3_ok,
        passed=symmetry_ok and a3_ok,
        notes=tuple(notes),
    )


def constraint_slack(p: QpProblem, z: np.ndarray) -> np.ndarray:
    """y = b - Az. Raises InvalidProblem unless z is a finite vector of length n."""
    return p.b - p.A @ _frozen(z, "z", (p.n,))


def objective(p: QpProblem, z: np.ndarray) -> float:
    """0.5 z'Hz + f'z. Raises InvalidProblem unless z is a finite vector of length n."""
    z = _frozen(z, "z", (p.n,))
    return float(0.5 * z @ (p.H @ z) + p.f @ z)


def _check_dims(x: PrimalDualPoint, n: int, q: int, name: str, error: type[FbrsError] = InvalidProblem):
    """Raise `error`, naming `name`, unless point x has len z = n and len v = q."""
    if x.z.shape != (n,) or x.v.shape != (q,):
        raise error(f"{name} has (len z, len v) = ({x.z.size}, {x.v.size}), expected ({n}, {q})")
