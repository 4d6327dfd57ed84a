"""Dense complex linear algebra kernels shared by the whole package.

Everything here is a pure function of its arguments.  Determinants are
carried as :class:`LogDet` (log-magnitude plus unit phase) because the
determinants appearing downstream grow or shrink exponentially with chain
size and time; they are only ever exponentiated after being combined with
other log-scale terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack


class LinalgError(Exception):
    """Numerical failure in one of the dense kernels."""


class NotPositiveDefiniteError(LinalgError):
    """A Cholesky factorization met a nonpositive pivot."""


class SingularMatrixError(LinalgError):
    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(f"matrix is exactly singular (zero pivot at index {pivot})")


@dataclass(frozen=True)
class LogDet:
    """Determinant in polar log form: det = exp(log_abs) * phase, |phase| = 1."""

    log_abs: float
    phase: complex

    @property
    def value(self) -> complex:
        return np.exp(self.log_abs) * self.phase


class LUFactors(NamedTuple):
    """Partial-pivoting LU factorization, reusable for solves."""

    lu: np.ndarray
    piv: np.ndarray


class CholeskyFactor(NamedTuple):
    """Lower-triangular factor R of a Hermitian positive definite a = R R^dag."""

    lower: np.ndarray


def _as_square(a, name="matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def expm(a) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with Pade approximation.

    Uses the standard double-precision order/scaling constants.  Raises
    :class:`LinalgError` if the squaring phase overflows.
    """
    a = _as_square(a)
    e = sla.expm(a)
    if not np.all(np.isfinite(e)):
        raise LinalgError(
            f"overflow in matrix exponential (input 1-norm {np.linalg.norm(a, 1):.3e})"
        )
    return e


#: Eigenvector condition number ||V||_1 ||V^-1||_1 above which
#: :class:`Propagator` falls back to expm: the eigen-reconstruction loses
#: about cond(V) units of roundoff, and exceptional points (cond ~ 1e8 for
#: a 2 x 2 Jordan block) lie above.
PROPAGATOR_COND_MAX = 1e6


class Propagator:
    """exp(g t) for any t >= 0 from one eigendecomposition of g, or expm per call.

    With g = V diag(w) V^-1, exp(g t) = V diag(e^{w t}) V^-1 costs one matrix
    product (``matrix``) or two matrix-vector products (``apply``) per time.
    g is generally non-normal; if V is ill-conditioned beyond
    PROPAGATOR_COND_MAX (near an exceptional point) or the decomposition
    residual is poor, every call falls back to scaling-and-squaring
    (Moler & Van Loan, SIAM Rev. 2003).  The path is chosen from these two
    measurements only.  At t = 0 both return the identity exactly.
    """

    def __init__(self, g):
        self.g = _as_square(g)
        self._eig = None
        w, v = np.linalg.eig(self.g)
        try:
            vinv = np.linalg.inv(v)
        except np.linalg.LinAlgError:  # exactly defective
            return
        cond = np.linalg.norm(v, 1) * np.linalg.norm(vinv, 1)
        resid = np.linalg.norm(self.g @ v - v * w) / max(np.linalg.norm(self.g), 1e-300)
        if cond < PROPAGATOR_COND_MAX and resid < 1e-10:
            self._eig = (w, v, vinv)

    @property
    def uses_eig(self) -> bool:
        """Whether calls use the eigendecomposition rather than expm."""
        return self._eig is not None

    @property
    def eig(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(w, V, V^-1) with g = V diag(w) V^-1, or None on the expm fallback."""
        return self._eig

    def matrix(self, t: float) -> np.ndarray:
        """exp(g t) as a dense matrix."""
        if t == 0.0:
            return np.eye(self.g.shape[0], dtype=complex)
        if self._eig is None:
            return expm(self.g * t)
        w, v, vinv = self._eig
        return (v * np.exp(w * t)) @ vinv

    def apply(self, t: float, vec: np.ndarray) -> np.ndarray:
        """exp(g t) @ vec for a vector or a block of columns."""
        if t == 0.0:
            return np.array(vec, dtype=complex)
        if self._eig is None:
            return expm(self.g * t) @ vec
        w, v, vinv = self._eig
        return v @ (np.exp(w * t) * (vinv @ vec).T).T


def lu_logdet(a) -> tuple[LUFactors, LogDet]:
    """LU-factorize ``a`` and assemble its determinant in log space.

    The determinant is the product of the U pivots times the permutation
    sign; accumulating log-magnitudes and phase angles separately keeps it
    exact even when the plain determinant would over/underflow.
    """
    a = _as_square(a)
    lu, piv, info = lapack.zgetrf(a)
    if info > 0:
        raise SingularMatrixError(info - 1)
    diag = np.diagonal(lu)
    sign = 1.0 if np.count_nonzero(piv != np.arange(len(piv))) % 2 == 0 else -1.0
    log_abs = float(np.sum(np.log(np.abs(diag))))
    phase = sign * np.exp(1j * np.sum(np.angle(diag)))
    return LUFactors(lu, piv), LogDet(log_abs, complex(phase))


def solve_factored(factors: LUFactors, b) -> np.ndarray:
    """Solve A X = B from an existing factorization."""
    b = np.asarray(b, dtype=complex)
    x, info = lapack.zgetrs(factors.lu, factors.piv, b.reshape(b.shape[0], -1))
    if info != 0:
        raise LinalgError(f"zgetrs failed with info = {info}")
    return x.reshape(b.shape)


def cholesky_logdet(a: np.ndarray) -> tuple[CholeskyFactor, np.ndarray]:
    """Cholesky-factorize a stack (..., n, n) of Hermitian positive definite matrices.

    Returns the lower factors and log det of each matrix, an array of the
    stack's shape.  Reads the lower triangles only.  Uses numpy's gufunc,
    which factorizes the whole stack in one call and releases the GIL, so
    threads factorizing different matrices overlap.  Raises
    :class:`NotPositiveDefiniteError` when any matrix of the stack is not
    numerically positive definite, including non-finite input.
    """
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from None
    log_det = 2.0 * np.sum(np.log(np.diagonal(lower, axis1=-2, axis2=-1).real), axis=-1)
    if not np.all(np.isfinite(log_det)):
        raise NotPositiveDefiniteError("log det is not finite")
    return CholeskyFactor(lower), log_det


def half_solve(factor: CholeskyFactor, b) -> np.ndarray:
    """R^-1 B for a = R R^dag, so that B^dag a^-1 B = (R^-1 B)^dag (R^-1 B).

    Solves (R^T)^T X = B: the transpose of numpy's C-ordered factor is
    Fortran-ordered, so LAPACK reads it without a copy.
    """
    x, info = lapack.ztrtrs(factor.lower.T, b, lower=0, trans=1)
    if info != 0:
        raise LinalgError(f"ztrtrs failed with info = {info}")
    return x


def condition_estimate(factors: LUFactors | CholeskyFactor, anorm: float) -> float:
    """1-norm condition number estimate from LU or Cholesky factors (LAPACK gecon/pocon).

    For a = R R^dag the estimate is taken on conj(a) = U^dag U with U = R^T,
    which has the same condition number and 1-norm: R^T is the
    Fortran-ordered view of numpy's C-ordered factor, so LAPACK reads it
    without a copy.
    """
    if isinstance(factors, CholeskyFactor):
        rcond, info = lapack.zpocon(factors.lower.T, anorm, uplo="U")
    else:
        rcond, info = lapack.zgecon(factors.lu, anorm, norm="1")
    if info != 0 or rcond == 0.0:
        return np.inf
    return 1.0 / rcond


def lyapunov_solve(w, f) -> np.ndarray:
    """Solve W C + C W^dag = F for Hermitian C (Bartels & Stewart, CACM 1972).

    With the complex Schur form W = U T U^dag the equation becomes
    T Y + Y T^dag = U^dag F U, solved by LAPACK ``trsyl``, and C = U Y U^dag:
    O(n^3) for any W, defective or not.  Every eigenvalue pair sum
    lam_a + conj(lam_b) (from the diagonal of T) must be nonzero, as it is
    when the spectrum of W lies strictly in the right half plane; a vanishing
    pair, such as a mode that couples to no bath, is a named error, read
    from the diagonal of T and from ``trsyl``'s own check.  The residual is
    checked last.
    """
    w = _as_square(w, "W")
    f = _as_square(f, "F")
    if w.shape != f.shape:
        raise ValueError(f"shape mismatch: W {w.shape} vs F {f.shape}")

    t, u = sla.schur(w, output="complex")
    lam = np.diagonal(t)
    denom = lam[:, None] + lam[None, :].conj()
    bad = np.abs(denom) < 1e-14 * max(1.0, float(np.abs(lam).max()))
    if np.any(bad):
        a, b = np.argwhere(bad)[0]
        raise LinalgError(
            "no unique Lyapunov solution: eigenvalue pair "
            f"lam[{a}]={lam[a]:.6g} and conj(lam[{b}])={np.conj(lam[b]):.6g} sum to ~0"
        )

    y, scale, info = lapack.ztrsyl(t, t, u.conj().T @ f @ u, tranb="C")
    if info != 0:  # 1: trsyl perturbed a pair sum below eps * max|T|
        raise LinalgError(
            "no unique Lyapunov solution: an eigenvalue pair sum is below "
            f"ztrsyl's perturbation floor (info = {info})"
        )
    c = u @ (y / scale) @ u.conj().T
    c = 0.5 * (c + c.conj().T)
    resid = np.linalg.norm(w @ c + c @ w.conj().T - f)
    fnorm = np.linalg.norm(f)
    if resid > 1e-10 * max(fnorm, 1e-300):
        raise LinalgError(
            f"Lyapunov residual {resid:.3e} exceeds 1e-10 * ||F|| = {1e-10 * fnorm:.3e}"
        )
    return c
