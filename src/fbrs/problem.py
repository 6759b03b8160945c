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
from scipy.linalg.blas import dnrm2

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
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{name} is not a real numeric array: {exc}") from None
    expected = tuple(got if want is None else want for got, want in zip(arr.shape, shape))
    if arr.shape != expected:
        raise error(f"{name} must have shape {expected}, got {arr.shape}")
    if arr.size == 0 or not np.isfinite(arr).all():
        raise error(f"{name} must have finite entries and no empty axis, got shape {arr.shape}")
    return _readonly(arr)


def _shown(value) -> str:
    """repr(value) for an error message; Python refuses to print an int of
    more than sys.get_int_max_str_digits() digits."""
    try:
        return repr(value)
    except ValueError:
        return "an int too long to print"


def _positive(value, name: str, error: type[FbrsError] = InvalidProblem) -> float:
    """A real (not a bool) whose float lies in (0, inf), as that float; an int
    too large for a float is out of range."""
    try:
        out = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:
        out = math.inf
    if not 0 < out < math.inf:
        raise error(f"{name} must be a finite real > 0, got {_shown(value)}")
    return out


def _count(value, name: str, error: type[FbrsError] = InvalidProblem) -> int:
    """An integer >= 1 (not a bool) as an int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise error(f"{name} must be an integer >= 1, got {_shown(value)}")
    return int(value)


def _frobenius(M: np.ndarray) -> float:
    """||M||_F by BLAS dnrm2, which scales instead of squaring: finite for
    every finite M, inf when an entry is."""
    return float(dnrm2(M.ravel()))


def _unit_row_columns(A: np.ndarray) -> np.ndarray | None:
    """The column of each row of A when every row is a signed unit vector
    (one nonzero, of magnitude 1), else None. The nonzero count goes first,
    so a dense A costs one pass; -0.0 counts as zero."""
    q = A.shape[0]
    nonzero = A != 0.0
    if np.count_nonzero(nonzero) != q:
        return None
    cols = nonzero.argmax(axis=1)
    return _readonly(cols) if (np.abs(A[np.arange(q), cols]) == 1.0).all() else None


@dataclass(frozen=True)
class QpProblem:
    """The quadruple (H, f, A, b) as read-only float copies, H symmetrized
    as 0.5 H + 0.5 H', which cannot overflow.

    InvalidProblem names an array that is not finite or not of shape H (n, n),
    f (n,), A (q, n), b (q,) with n, q >= 1. The Frobenius asymmetry of the
    supplied Hessian is kept in `symmetry_defect` so validation can report it;
    it reads inf, without a warning, only when H - H' itself overflows.

    When every row of A is a signed unit vector, as in [I; -I], the private
    `_box_cols` holds each row's column (read-only), else None; the Newton
    step then skips the product A'WA.
    """

    H: np.ndarray
    f: np.ndarray
    A: np.ndarray
    b: np.ndarray
    symmetry_defect: float = field(init=False, default=0.0)
    _box_cols: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        H = _frozen(self.H, "H", (None, None))
        n = H.shape[0]
        if H.shape[1] != n:
            raise InvalidProblem(f"H must be square, got shape {H.shape}")
        A = _frozen(self.A, "A", (None, n))
        f, b = _frozen(self.f, "f", (n,)), _frozen(self.b, "b", (A.shape[0],))
        with np.errstate(over="ignore"):
            defect = _frobenius(H - H.T)
        vars(self).update(H=_readonly(0.5 * H + 0.5 * H.T), f=f, A=A, b=b, symmetry_defect=defect,
                          _box_cols=_unit_row_columns(A))

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
    and sigma_min([H; A]) > tol * sigma_max([H; A]); an asymmetry too large
    to measure (inf) fails. Raises InvalidProblem unless tol is a finite
    real > 0.
    """
    _check_type(p, QpProblem, "p")
    tol = _positive(tol, "tol")
    h_scale = 1.0 + _frobenius(p.H)
    unmeasured = p.symmetry_defect == math.inf
    symmetry_ok = not unmeasured and p.symmetry_defect <= tol * h_scale
    stacked = np.vstack([p.H, p.A])
    svals = np.linalg.svd(stacked, compute_uv=False)
    sigma_max = float(svals[0])
    sigma_min = float(svals[-1])
    a3_ok = sigma_min > tol * sigma_max
    notes = []
    if unmeasured or p.symmetry_defect > 1e-8 * h_scale:
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
    """y = b - Az, whose entries are inf or nan without a warning where they
    overflow. Raises InvalidProblem unless z is a finite vector of length n."""
    _check_type(p, QpProblem, "p")
    z = _frozen(z, "z", (p.n,))
    with np.errstate(over="ignore", invalid="ignore"):
        return p.b - p.A @ z


def objective(p: QpProblem, z: np.ndarray) -> float:
    """0.5 z'Hz + f'z, which is inf or nan without a warning when it overflows.
    Raises InvalidProblem unless z is a finite vector of length n."""
    _check_type(p, QpProblem, "p")
    z = _frozen(z, "z", (p.n,))
    with np.errstate(over="ignore", invalid="ignore"):
        return float(0.5 * z @ (p.H @ z) + p.f @ z)


def _check_type(value, cls: type, name: str, error: type[FbrsError] = InvalidProblem):
    """Raise `error`, naming `name`, unless value is an instance of cls."""
    if not isinstance(value, cls):
        raise error(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def _check_dims(x: PrimalDualPoint, n: int, q: int, name: str, error: type[FbrsError] = InvalidProblem):
    """Raise `error`, naming `name`, unless x is a PrimalDualPoint of len z = n, len v = q."""
    _check_type(x, PrimalDualPoint, name, error)
    if x.z.shape != (n,) or x.v.shape != (q,):
        raise error(f"{name} has (len z, len v) = ({x.z.size}, {x.v.size}), expected ({n}, {q})")
