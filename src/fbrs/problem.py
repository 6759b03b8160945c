"""Dense inequality-constrained QP data, primal-dual points and the checkable
problem assumptions.

The problem is  minimize 0.5 z'Hz + f'z  subject to  Az <= b,  with H symmetric
positive semidefinite and at least one constraint row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidProblem


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class QpProblem:
    """The quadruple (H, f, A, b). H is symmetrized at construction.

    The Frobenius asymmetry of the user-supplied Hessian is kept in
    `symmetry_defect` so validation can report it.
    """

    H: np.ndarray
    f: np.ndarray
    A: np.ndarray
    b: np.ndarray
    symmetry_defect: float = field(init=False, default=0.0)

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        f = np.atleast_1d(np.asarray(self.f, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise InvalidProblem(f"H must be square, got shape {H.shape}")
        n = H.shape[0]
        if n < 1:
            raise InvalidProblem("decision dimension n must be >= 1")
        if A.ndim != 2 or A.shape[1] != n:
            raise InvalidProblem(f"A must have {n} columns, got shape {A.shape}")
        q = A.shape[0]
        if q < 1:
            raise InvalidProblem("at least one inequality row is required (q >= 1)")
        if f.shape != (n,):
            raise InvalidProblem(f"f must have shape ({n},), got {f.shape}")
        if b.shape != (q,):
            raise InvalidProblem(f"b must have shape ({q},), got {b.shape}")
        for name, arr in (("H", H), ("f", f), ("A", A), ("b", b)):
            if not np.all(np.isfinite(arr)):
                raise InvalidProblem(f"{name} contains non-finite entries")
        defect = float(np.linalg.norm(H - H.T))
        object.__setattr__(self, "symmetry_defect", defect)
        object.__setattr__(self, "H", _frozen(0.5 * (H + H.T)))
        object.__setattr__(self, "f", _frozen(f))
        object.__setattr__(self, "A", _frozen(A))
        object.__setattr__(self, "b", _frozen(b))

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def q(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class PrimalDualPoint:
    """A primal-dual iterate (z, v). Duals may be sign-mixed mid-solve."""

    z: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z, dtype=float))
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        if z.ndim != 1 or v.ndim != 1:
            raise InvalidProblem("z and v must be vectors")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(v))):
            raise InvalidProblem("iterate contains non-finite entries")
        object.__setattr__(self, "z", _frozen(z))
        object.__setattr__(self, "v", _frozen(v))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.z, self.v])

    @staticmethod
    def zeros(n: int, q: int) -> "PrimalDualPoint":
        return PrimalDualPoint(np.zeros(n), np.zeros(q))

    @staticmethod
    def from_vector(vec: np.ndarray, n: int) -> "PrimalDualPoint":
        vec = np.asarray(vec, dtype=float)
        return PrimalDualPoint(vec[:n], vec[n:])


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
    and sigma_min([H; A]) > tol * sigma_max([H; A]).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidProblem("tol must be finite and positive")
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
    """y = b - Az."""
    z = np.asarray(z, dtype=float)
    if z.shape != (p.n,):
        raise InvalidProblem(f"z must have shape ({p.n},), got {z.shape}")
    return p.b - p.A @ z


def objective(p: QpProblem, z: np.ndarray) -> float:
    """0.5 z'Hz + f'z."""
    z = np.asarray(z, dtype=float)
    return float(0.5 * z @ (p.H @ z) + p.f @ z)


def _check_dims(p: QpProblem, x: PrimalDualPoint) -> None:
    if x.z.shape != (p.n,) or x.v.shape != (p.q,):
        raise InvalidProblem(
            f"iterate shape ({x.z.shape[0]}, {x.v.shape[0]}) does not match problem ({p.n}, {p.q})"
        )
