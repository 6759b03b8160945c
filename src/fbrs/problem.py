"""Dense inequality-constrained QP data, primal-dual points and the checkable
problem assumptions.

The problem is  minimize 0.5 z'Hz + f'z  subject to  Az <= b,  with H symmetric
positive semidefinite and at least one constraint row.

This module owns the row structure of A, decided once per QpProblem by
_row_ops (box-only, dense, or dense with at least _PRUNE_MIN_N columns) and
read by nothing else: it binds the products with A and A' (A.dot and A.T.dot,
or a gather and a scatter) and the Schur solve, the one linear solve of a
Newton step, which builds H + A'WA as the structure allows (a diagonal sum
onto a copy of H, one syrk over every row, or one syrk over the rows whose
term does not fall below the rounding of the sum, and every row when that
fails), and factors and solves with it in one LAPACK call. It also owns the
input checks (_frozen), which points built by the package skip (_trusted).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.linalg.blas import dnrm2, dsyrk as _syrk
# the LAPACK float64 Cholesky solve, called without the per-call work of
# scipy's wrappers
from scipy.linalg.lapack import dposv as _posv

from .errors import FbrsError, InvalidProblem

# _pruned_solve drops rows from the dense build only at n >= _PRUNE_MIN_N: below
# about n = 60 (q = 2n, 60% of rows kept, one thread) the gather of the kept
# rows costs more than the flops it saves. A row is dropped when its term is
# at most _ROUNDING times the largest one.
_PRUNE_MIN_N = 64
_ROUNDING = np.finfo(float).eps


def _readonly(arr: np.ndarray) -> np.ndarray:
    """arr itself, made read-only: for arrays derived from checked input."""
    arr.setflags(write=False)
    return arr


def _load_read_only(self, state: dict):
    """__setstate__ of a frozen dataclass of arrays: loads the pickled state
    dict with every array made read-only, as the constructors make them, since
    pickle loads arrays writeable."""
    vars(self).update({k: _readonly(v) if isinstance(v, np.ndarray) else v for k, v in state.items()})


def _frozen(value, name: str, shape: tuple, error: type[FbrsError] = InvalidProblem) -> np.ndarray:
    """Caller input as a read-only, C-ordered float copy with real, finite
    entries and the given shape, where None is any length >= 1; lower-rank
    input gains leading unit axes (as np.atleast_2d). Raises `error`, naming
    `name`, otherwise; an array of complex numbers, strings, bytes, dates or
    time spans is rejected, not cast, and so is an object array with any such
    entry; an object array of real numbers is cast entry by entry. The copy
    is C-ordered whatever the caller's layout, as BLAS runs another kernel,
    with other bits, on a Fortran-ordered matrix."""
    try:
        arr = np.array(value, ndmin=len(shape), order="C")
        if arr.dtype.kind in "cUSMm":
            raise TypeError(f"dtype {arr.dtype}")
        if arr.dtype.kind == "O":
            for entry in arr.flat:
                if np.asarray(entry).dtype.kind in "cUSMm":
                    raise TypeError(f"entry {_shown(entry)}")
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


def _gather(cols: np.ndarray, sign: np.ndarray, z: np.ndarray) -> np.ndarray:
    """A z as sign * z[cols] for the box-only A of (cols, sign). On finite z
    these are the bits of the dense product, whose other terms are exact
    zeros. Arguments are not checked."""
    return sign * z[cols]


def _scatter(cols: np.ndarray, sign: np.ndarray, n: int, v: np.ndarray) -> np.ndarray:
    """A'v as bincount(cols, sign * v, n) for the box-only A of (cols, sign)
    with n columns: the bits of the dense product on finite v, except perhaps
    the last bit of a column hit by three or more rows. Arguments are not
    checked."""
    return np.bincount(cols, sign * v, n)


def _box_solve(H: np.ndarray, cols: np.ndarray, n: int, w: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """The Schur solve of a box-only A whose rows sit on the columns cols: S
    is a copy of H with each row's w summed onto its diagonal, the bits of
    the dense H + A'(WA), except perhaps the last bit of a column hit by
    three or more rows. H, which an MPC run shares, is not written."""
    S = H.copy()
    S.reshape(-1)[::n + 1] += np.bincount(cols, w, n)
    # positional (a, b, lower, overwrite_a): S.T is a fresh Fortran-ordered
    # array, so posv factors it in place
    _, dz, info = _posv(S.T, rhs, 1, 1)
    return None if info else dz


def _dense_solve(H: np.ndarray, A: np.ndarray, w: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """The Schur solve over every row of A: S from one BLAS syrk of
    W^1/2 A onto a copy of H."""
    # H.T (H is exactly symmetric) and the transposed factor are in Fortran
    # order, so f2py copies only H; the arguments are positional (alpha, a,
    # beta, c, trans, lower), as f2py parses keywords slowly
    _, dz, info = _posv(_syrk(1.0, (np.sqrt(w)[:, None] * A).T, 1.0, H.T, 0, 1), rhs, 1, 1)
    return None if info else dz


def _pruned_solve(H: np.ndarray, A: np.ndarray, row_sq: np.ndarray, w: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """The Schur solve of a dense A with n >= _PRUNE_MIN_N columns, whose
    squared row norms ||a_i||^2 are row_sq (inf where they overflow): the
    syrk leaves out the rows whose term falls below rounding, and when posv
    fails on that matrix, or the rule would keep every row or none,
    _dense_solve solves over every row, so pruning alone never gives None.

    Row i is kept when w_i ||a_i||^2 > u max_j w_j ||a_j||^2, u = _ROUNDING
    (machine epsilon). As H is PSD, ||S|| >= max_j w_j ||a_j||^2, so each
    dropped term w_i a_i a_i' has norm at most u ||S||: the change lies inside
    the normwise rounding bound of the syrk's own sum of q terms. Near a
    solution an inactive row weighs about delta <= 1e-8 and an active one
    about 1/delta, so on random (300, 600) QPs about 43% of the rows drop out.
    The weights alone (w_i > u max w) were rejected, as they ignore the row
    scale: on 300 random QPs with row scales 10^U(-4, 4) and n in [48, 100), a
    class whose trajectories rounding alone reorders, they ended Solved 20
    times, the row norms 24, every row 33 and every row in reversed order 41.
    A nan or inf scale keeps no row, and then every row enters, so it reaches
    S.
    """
    scaled = w * row_sq
    keep = scaled > _ROUNDING * scaled.max()
    if 0 < np.count_nonzero(keep) < A.shape[0]:
        rows = A[keep]
        rows *= np.sqrt(w[keep])[:, None]
        _, dz, info = _posv(_syrk(1.0, rows.T, 1.0, H.T, 0, 1), rhs, 1, 1)
        if not info:
            return dz
    return _dense_solve(H, A, w, rhs)


def _row_ops(H: np.ndarray, A: np.ndarray) -> dict:
    """What a QpProblem derives from its read-only H and A, as attributes:
    the sizes n and q, the products _A_dot (z -> Az) and _At_dot (v -> A'v),
    and _schur_solve (w, rhs -> dz), which solves (H + A'WA) dz = rhs,
    W = diag(w) >= 0, or gives None when that matrix is not numerically
    positive definite. The row structure of A is decided here, once:

    - box-only, every row a signed unit vector (one nonzero, of magnitude 1;
      -0.0 counts as zero): partial objects of _gather, _scatter and
      _box_solve, bound to each row's column and sign (read-only). The
      nonzero count goes first, so a dense A costs one pass;
    - dense: A.dot, A.T.dot and _dense_solve;
    - dense with n >= _PRUNE_MIN_N columns: A.dot, A.T.dot and
      _pruned_solve, bound to the read-only squared row norms.

    Every solve is one positional LAPACK posv, which factors its fresh
    Schur matrix in place and solves with the factor (posv is potrf followed
    by potrs, so the bits are theirs); only a pruned matrix that fails makes
    a second one. Arguments are not checked."""
    (q, n), nonzero = A.shape, A != 0.0
    if np.count_nonzero(nonzero) == q:
        cols = nonzero.argmax(axis=1)
        sign = A[np.arange(q), cols]
        if (np.abs(sign) == 1.0).all():
            cols, sign = _readonly(cols), _readonly(sign)
            return dict(n=n, q=q, _A_dot=partial(_gather, cols, sign), _At_dot=partial(_scatter, cols, sign, n),
                        _schur_solve=partial(_box_solve, H, cols, n))
    if n < _PRUNE_MIN_N:
        return dict(n=n, q=q, _A_dot=A.dot, _At_dot=A.T.dot, _schur_solve=partial(_dense_solve, H, A))
    with np.errstate(over="ignore"):
        row_sq = _readonly(np.einsum("ij,ij->i", A, A))
    return dict(n=n, q=q, _A_dot=A.dot, _At_dot=A.T.dot, _schur_solve=partial(_pruned_solve, H, A, row_sq))


@dataclass(frozen=True, eq=False)
class QpProblem:
    """The quadruple (H, f, A, b) as read-only, C-ordered float copies, H
    symmetrized as 0.5 H + 0.5 H', which cannot overflow. A Fortran-ordered
    H or A is copied to C order, so the solve has the bits of its C-ordered
    twin.

    InvalidProblem names an array that is not finite or not of shape H (n, n),
    f (n,), A (q, n), b (q,) with n, q >= 1. The Frobenius asymmetry of the
    supplied Hessian is kept in `symmetry_defect` so validation can report it;
    it reads inf, without a warning, only when H - H' itself overflows.

    The sizes n and q are read once here and stored as plain instance
    attributes, not fields: a plain attribute costs a quarter of a property's
    read, and the solve loop reads n about 2.4 times per iteration.

    The private attributes `_A_dot`, `_At_dot` and `_schur_solve` are the
    products z -> Az and v -> A'v and the Schur solve of a Newton step, bound
    once here by _row_ops, which decides the row structure of A (box-only,
    dense, or dense with at least _PRUNE_MIN_N columns), and shared by
    _with_rhs, for the solve path to call directly. A pickle holds H, f, A,
    b and symmetry_defect only; loading makes the arrays read-only and
    derives the sizes and the callables through _row_ops again, so a pickle
    of any earlier layout, whose extra entries are ignored, loads too. A
    problem compares and hashes by identity, as every dataclass of arrays
    here does: an array has no single truth value for a generated == to
    return.
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
        with np.errstate(over="ignore"):
            defect = _frobenius(H - H.T)
        H = _readonly(0.5 * H + 0.5 * H.T)
        vars(self).update(H=H, f=f, A=A, b=b, symmetry_defect=defect, **_row_ops(H, A))

    def __getstate__(self) -> dict:
        # pickled, A.T.dot would carry a second copy of A
        return {k: getattr(self, k) for k in ("H", "f", "A", "b", "symmetry_defect")}

    def __setstate__(self, state: dict):
        H, f, A, b = (_readonly(state[k]) for k in "HfAb")
        vars(self).update(H=H, f=f, A=A, b=b, symmetry_defect=state["symmetry_defect"], **_row_ops(H, A))

    def _with_rhs(self, f, b=None) -> "QpProblem":
        """A new QpProblem with this one's H, A, symmetry_defect, n, q,
        _A_dot, _At_dot and _schur_solve (read-only or bound to read-only
        arrays, this H among them, so shared, not copied), the given f and
        the given b, or this one's b when b is None; f and b are checked as
        the constructor checks them (InvalidProblem)."""
        new = object.__new__(QpProblem)
        vars(new).update(vars(self), f=_frozen(f, "f", (self.n,)),
                         b=self.b if b is None else _frozen(b, "b", (self.q,)))
        return new


@dataclass(frozen=True, eq=False)
class PrimalDualPoint:
    """A primal-dual iterate (z, v) of finite, nonempty, read-only float vectors;
    v may be sign-mixed mid-solve."""

    z: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        vars(self).update(z=_frozen(self.z, "z", (None,)), v=_frozen(self.v, "v", (None,)))

    __setstate__ = _load_read_only

    @staticmethod
    def _trusted(z: np.ndarray, v: np.ndarray) -> "PrimalDualPoint":
        """A point of the float vectors z and v, which the package built from
        checked input: made read-only in place, neither copied nor checked."""
        new = object.__new__(PrimalDualPoint)
        vars(new).update(z=_readonly(z), v=_readonly(v))
        return new

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
