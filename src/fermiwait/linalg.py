"""Dense complex linear algebra kernels shared by the whole package.

Everything here is a pure function of its arguments.  Determinants are
carried as :class:`LogDet` (log-magnitude plus unit phase) because the
determinants appearing downstream grow or shrink exponentially with chain
size and time; they are only ever exponentiated after being combined with
other log-scale terms.

One LAPACK provider.  Besides numpy's own linalg gufuncs, the kernels call
seven LAPACK routines directly from the OpenBLAS bundled with numpy
(``numpy.libs/libscipy_openblas64_*.so``), which exports them as
``scipy_<name>_64_``: Fortran calling convention, 64-bit integers, and the
hidden length of each character argument passed last.  They are

- ``zgees`` (complex Schur form) and ``ztrsyl3`` (blocked triangular
  Sylvester solve, which hands blocks of one to ``ztrsyl``) in
  :func:`lyapunov_solve`;
- ``zgetrf``, ``zgetrs`` and ``zgecon`` (LU factors, solves and condition
  estimate) in :func:`lu_logdet`, :func:`solve_factored` and
  :func:`condition_estimate`;
- ``ztrtrs`` and ``zpocon`` (triangular solve and condition estimate on
  Cholesky factors), both in :func:`cholesky_half_solve`.

Character arguments and their hidden lengths are ctypes objects made once
at import; integer arguments are made once per call and shared by every
argument that takes the same value.  ``OPENBLAS`` is the one handle on that
library, so numpy's matrix products and these routines run on the same
BLAS; :func:`blas_threads` reads its thread count and
:func:`set_blas_threads` sets it (``cli.main`` pins it to one).  There is
one set of bindings and no second provider: if the library or one of the
symbols is missing, importing this module raises an ImportError naming the
library path and the symbol.  ctypes releases the GIL for the length of
each call, so threads calling these routines overlap.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


def _openblas_path() -> str:
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    found = sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")))
    return found[0] if found else os.path.join(libs, "libscipy_openblas64_*.so")


OPENBLAS_PATH = _openblas_path()
try:
    OPENBLAS = ctypes.CDLL(OPENBLAS_PATH)
except OSError as exc:
    raise ImportError(f"cannot load numpy's bundled OpenBLAS {OPENBLAS_PATH}: {exc}") from None


def _symbol(symbol: str, argtypes: list, restype):
    """The function ``symbol`` of OPENBLAS, with its ctypes signature."""
    try:
        fn = getattr(OPENBLAS, symbol)
    except AttributeError:
        raise ImportError(f"{OPENBLAS_PATH} exports no symbol {symbol}") from None
    fn.argtypes, fn.restype = argtypes, restype
    return fn


def _lapack(name: str, chars: int, pointers: int):
    """The routine ``name`` of OPENBLAS: ``chars`` character arguments first, then ``pointers``."""
    args = [ctypes.c_char_p] * chars + [ctypes.c_void_p] * pointers + [ctypes.c_size_t] * chars
    return _symbol(f"scipy_{name}_64_", args, None)


_get_num_threads = _symbol("scipy_openblas_get_num_threads64_", [], ctypes.c_int)
_set_num_threads = _symbol("scipy_openblas_set_num_threads64_", [ctypes.c_int], None)


def blas_threads() -> int:
    """Threads that OPENBLAS, numpy's BLAS and this module's LAPACK, runs on."""
    return _get_num_threads()


def set_blas_threads(threads: int) -> None:
    """Run OPENBLAS on ``threads`` threads, for the whole process."""
    _set_num_threads(threads)


_zgees = _lapack("zgees", 2, 13)
_ztrsyl3 = _lapack("ztrsyl3", 2, 13)
_zgetrf = _lapack("zgetrf", 0, 6)
_zgetrs = _lapack("zgetrs", 1, 8)
_zgecon = _lapack("zgecon", 1, 8)
_zpocon = _lapack("zpocon", 1, 8)
_ztrtrs = _lapack("ztrtrs", 3, 7)

#: The character arguments the bindings pass, and their hidden length.
_N, _C, _T, _U, _V, _NORM1 = (ctypes.c_char_p(c) for c in (b"N", b"C", b"T", b"U", b"V", b"1"))
_ONE = ctypes.c_size_t(1)


def _int(value: int):
    """A LAPACK integer argument."""
    return ctypes.byref(ctypes.c_int64(value))


class LinalgError(Exception):
    """Numerical failure in one of the dense kernels."""


class NotPositiveDefiniteError(LinalgError):
    """A Cholesky factorization met a nonpositive pivot."""


class SingularMatrixError(LinalgError):
    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(f"matrix is exactly singular (zero pivot at index {pivot})")


def _check_info(name: str, info: ctypes.c_int64) -> None:
    """A negative LAPACK info flags an illegal argument: a defect of this module."""
    if info.value < 0:
        raise LinalgError(f"{name}: illegal value in argument {-info.value}")


@dataclass(frozen=True)
class LogDet:
    """Determinant in polar log form: det = exp(log_abs) * phase, |phase| = 1."""

    log_abs: float
    phase: complex

    @property
    def value(self) -> complex:
        return np.exp(self.log_abs) * self.phase


class LUFactors(NamedTuple):
    """Partial-pivoting LU factorization, reusable for solves.

    ``lu`` is Fortran-ordered; ``piv`` holds LAPACK's 1-based row interchanges.
    """

    lu: np.ndarray
    piv: np.ndarray


def _as_square(a, name="matrix") -> np.ndarray:
    """``a`` as a complex square matrix or stack of them (..., n, n), all entries finite."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


#: Coefficients b_0 ... b_13 of the degree-13 Pade approximant to e^x.
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
#: Largest 1-norm at which the degree-13 approximant has backward error
#: below the unit roundoff (theta_13 of Higham 2005).
_THETA13 = 5.371920351148152


def expm(a) -> np.ndarray:
    """Matrix exponential of one matrix or a stack (..., n, n), by scaling and squaring.

    The degree-13 Pade approximant r13 of Higham (SIAM J. Matrix Anal.
    Appl. 26, 2005) is evaluated at a / 2^s and squared s times, with
    s = max(0, ceil(log2(||a||_1 / theta_13))).  A stack takes one sequence
    of batched products, one batched solve and max(s) batched squarings,
    each matrix keeping its own s: a matrix of small norm in a stack of
    large ones is not overscaled, and comes out as it would alone.  Raises
    :class:`LinalgError` if the squaring phase overflows.
    """
    a = _as_square(a)
    norm = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    s = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(int)
    a = a * np.exp2(-s)[..., None, None]
    b = _PADE13
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    e = np.linalg.solve(v - u, v + u)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(int(s.max(initial=0))):
            e = np.where((s > k)[..., None, None], e @ e, e)
    if not np.all(np.isfinite(e)):
        raise LinalgError(f"overflow in matrix exponential (input 1-norm {norm.max(initial=0.0):.3e})")
    return e


#: Eigenvector condition number ||V||_1 ||V^-1||_1 above which
#: :class:`Propagator` falls back to expm: the eigen-reconstruction loses
#: about cond(V) units of roundoff, and exceptional points (cond ~ 1e8 for
#: a 2 x 2 Jordan block) lie above.
PROPAGATOR_COND_MAX = 1e6


class Propagator:
    """exp(g t) for any t >= 0 from one eigendecomposition of g, or expm per call.

    With g = V diag(w) V^-1, exp(g t) = V diag(e^{w t}) V^-1 costs one matrix
    product per time (``matrix``).
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
        resid = self.g @ v
        resid -= v * w  # in place: one n x n temporary besides g V
        resid = np.linalg.norm(resid) / max(np.linalg.norm(self.g), 1e-300)
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


def lu_logdet(a) -> tuple[LUFactors, LogDet]:
    """LU-factorize ``a`` (LAPACK zgetrf) and assemble its determinant in log space.

    The determinant is the product of the U pivots times the permutation
    sign; accumulating log-magnitudes and phase angles separately keeps it
    exact even when the plain determinant would over/underflow.
    """
    a = _as_square(a)
    if a.ndim != 2:
        raise ValueError(f"lu_logdet takes one matrix, got shape {a.shape}")
    n = a.shape[0]
    lu = np.array(a, order="F")
    piv = np.empty(n, dtype=np.int64)
    info = ctypes.c_int64()
    n_arg = _int(n)
    _zgetrf(n_arg, n_arg, lu.ctypes.data, _int(max(1, n)), piv.ctypes.data, ctypes.byref(info))
    _check_info("zgetrf", info)
    if info.value > 0:
        raise SingularMatrixError(info.value - 1)
    diag = np.diagonal(lu)
    sign = 1.0 if np.count_nonzero(piv != np.arange(1, n + 1)) % 2 == 0 else -1.0
    log_abs = float(np.sum(np.log(np.abs(diag))))
    phase = sign * np.exp(1j * np.sum(np.angle(diag)))
    return LUFactors(lu, piv), LogDet(log_abs, complex(phase))


def solve_factored(factors: LUFactors, b) -> np.ndarray:
    """Solve A X = B from an existing factorization (LAPACK zgetrs)."""
    b = np.asarray(b, dtype=complex)
    n = factors.lu.shape[0]
    if b.shape[0] != n:
        raise ValueError(f"right-hand side has {b.shape[0]} rows, the matrix {n}")
    x = np.array(b.reshape(n, -1), order="F")
    info = ctypes.c_int64()
    lda = _int(max(1, n))
    _zgetrs(
        _N, _int(n), _int(x.shape[1]), factors.lu.ctypes.data, lda,
        factors.piv.ctypes.data, x.ctypes.data, lda, ctypes.byref(info), _ONE,
    )
    if info.value != 0:
        raise LinalgError(f"zgetrs failed with info = {info.value}")
    return x.reshape(b.shape)


def condition_estimate(factors: LUFactors, anorm: float) -> float:
    """1-norm condition estimate from the LU factors of a matrix of 1-norm ``anorm`` (zgecon).

    A failed or zero estimate reads inf.
    """
    n = factors.lu.shape[0]
    info, rcond = ctypes.c_int64(), ctypes.c_double()
    work, rwork = np.empty(2 * n, dtype=complex), np.empty(2 * n)
    _zgecon(
        _NORM1, _int(n), factors.lu.ctypes.data, _int(max(1, n)),
        ctypes.byref(ctypes.c_double(anorm)), ctypes.byref(rcond),
        work.ctypes.data, rwork.ctypes.data, ctypes.byref(info), _ONE,
    )
    return np.inf if info.value != 0 or rcond.value == 0.0 else 1.0 / rcond.value


def cholesky_half_solve(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R^-1 B, log det a and cond(a) for each a = R R^dag of a stack.

    ``a`` is a stack (n, L, L) of Hermitian positive definite matrices and
    ``b`` a stack (n, L, k), so that B^dag a^-1 B = (R^-1 B)^dag (R^-1 B).
    Returns the C-contiguous (n, L, k) R^-1 B and the (n,) log determinants
    and 1-norm condition estimates (inf where the estimate fails or is not
    positive).  One call of numpy's batched Cholesky, which reads the lower
    triangles and releases the GIL, factorizes the stack;
    :class:`NotPositiveDefiniteError` is raised if any matrix is not
    numerically positive definite, a non-finite lower triangle included.
    Then one loop calls LAPACK ztrtrs and zpocon on the Fortran-ordered view
    U = R^T of each factor, the upper factor of conj(a) = U^dag U, which has
    a's condition number and 1-norm; only the matrix pointers change per
    step.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"matrices must be a stack (n, L, L), got shape {a.shape}")
    n, size = a.shape[:2]
    if b.ndim != 3 or b.shape[:2] != (n, size):
        raise ValueError(f"right-hand sides must be a stack ({n}, {size}, k), got shape {b.shape}")
    try:
        lower = np.ascontiguousarray(np.linalg.cholesky(a))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from None
    log_det = 2.0 * np.sum(np.log(np.diagonal(lower, axis1=-2, axis2=-1).real), axis=-1)
    if not np.all(np.isfinite(log_det)):
        raise NotPositiveDefiniteError("log det is not finite")
    anorm = np.abs(a).sum(axis=1).max(axis=1)
    x = np.array(b.transpose(0, 2, 1), order="C")  # x[m] is B_m in Fortran order
    work, rwork = np.empty(2 * size, dtype=complex), np.empty(size)
    info, norm, rcond = ctypes.c_int64(), ctypes.c_double(), ctypes.c_double()
    size_arg, k_arg, info_arg = _int(size), _int(b.shape[2]), ctypes.byref(info)
    norm_arg, rcond_arg = ctypes.byref(norm), ctypes.byref(rcond)
    w0, r0 = work.ctypes.data, rwork.ctypes.data
    a0, a_step = lower.ctypes.data, lower.strides[0]
    x0, x_step = x.ctypes.data, x.strides[0]
    cond = np.empty(n)
    for m in range(n):
        factor = a0 + m * a_step
        _ztrtrs(
            _U, _T, _N, size_arg, k_arg, factor, size_arg,
            x0 + m * x_step, size_arg, info_arg, _ONE, _ONE, _ONE,
        )
        if info.value != 0:
            raise LinalgError(f"ztrtrs failed with info = {info.value} at stack index {m}")
        norm.value = anorm[m]
        _zpocon(_U, size_arg, factor, size_arg, norm_arg, rcond_arg, w0, r0, info_arg, _ONE)
        cond[m] = np.inf if info.value != 0 or not rcond.value > 0.0 else 1.0 / rcond.value
    return np.ascontiguousarray(x.transpose(0, 2, 1)), log_det, cond


def _schur(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form w = U T U^dag (LAPACK zgees), T and U Fortran-ordered.

    The workspace is sized by zgees's own query, so the blocked code paths
    are taken.
    """
    n = w.shape[0]
    t = np.array(w, order="F")
    u = np.empty((n, n), dtype=complex, order="F")
    lam = np.empty(n, dtype=complex)
    rwork = np.empty(n)
    sdim, info = ctypes.c_int64(), ctypes.c_int64()
    n_arg = _int(n)

    def call(work: np.ndarray, lwork: int) -> None:
        _zgees(
            _V, _N, None, n_arg, t.ctypes.data, n_arg, ctypes.byref(sdim),
            lam.ctypes.data, u.ctypes.data, n_arg, work.ctypes.data, _int(lwork),
            rwork.ctypes.data, None, ctypes.byref(info), _ONE, _ONE,
        )
        _check_info("zgees", info)

    query = np.empty(1, dtype=complex)
    call(query, -1)
    lwork = max(1, int(query[0].real))
    call(np.empty(lwork, dtype=complex), lwork)
    if info.value > 0:
        raise LinalgError(f"zgees did not converge (info = {info.value})")
    return t, u


def _trsyl(t: np.ndarray, y: np.ndarray) -> float:
    """Overwrite the Fortran-ordered y with the solution X of T X + X T^dag = scale * y.

    LAPACK ztrsyl3, the blocked solver built on level-3 BLAS, which solves
    with ztrsyl directly when T is a single block (n <= 24 in LAPACK's block
    size rule).  Its scaling workspace is sized by its own query.  Returns
    scale (<= 1, below 1 only to avoid overflow).  A pair sum below
    ztrsyl's perturbation floor eps * max|T| is a named error.
    """
    n_arg = _int(t.shape[0])
    one, scale, info = _int(1), ctypes.c_double(), ctypes.c_int64()

    def call(swork: np.ndarray, ldswork: int) -> None:
        _ztrsyl3(
            _N, _C, one, n_arg, n_arg, t.ctypes.data, n_arg, t.ctypes.data, n_arg,
            y.ctypes.data, n_arg, ctypes.byref(scale), swork.ctypes.data, _int(ldswork),
            ctypes.byref(info), _ONE, _ONE,
        )
        _check_info("ztrsyl3", info)

    query = np.zeros(2)
    call(query, -1)
    rows, cols = max(2, int(query[0])), max(1, int(query[1]))
    call(np.empty((cols, rows)), rows)  # Fortran (rows, cols)
    if info.value != 0:  # 1: trsyl perturbed a pair sum below eps * max|T|
        raise LinalgError(
            "no unique Lyapunov solution: an eigenvalue pair sum is below "
            f"ztrsyl's perturbation floor (info = {info.value})"
        )
    return scale.value


def lyapunov_solve(w, f) -> np.ndarray:
    """Solve W C + C W^dag = F for Hermitian C (Bartels & Stewart, CACM 1972).

    With the complex Schur form W = U T U^dag the equation becomes
    T Y + Y T^dag = U^dag F U, solved by LAPACK ``ztrsyl3`` (``_trsyl``), and
    C = U Y U^dag: O(n^3) for any W, defective or not.  Every eigenvalue
    pair sum lam_a + conj(lam_b) (from the diagonal of T) must be nonzero, as
    it is when the spectrum of W lies strictly in the right half plane; a
    vanishing pair, such as a mode that couples to no bath, is a named
    error, read from the diagonal of T and from the solver's own check.
    The residual is checked last.  At most four n x n matrices are live at
    once: U is conjugated in place, never copied, and each factor is
    dropped as soon as the next step no longer reads it.
    """
    w = _as_square(w, "W")
    f = _as_square(f, "F")
    if w.ndim != 2 or w.shape != f.shape:
        raise ValueError(f"shape mismatch: W {w.shape} vs F {f.shape}")

    t, u = _schur(w)
    lam = np.diagonal(t).copy()  # not a view, which would keep T alive
    bad = np.abs(lam[:, None] + lam[None, :].conj()) < 1e-14 * max(1.0, float(np.abs(lam).max()))
    if np.any(bad):
        a, b = np.argwhere(bad)[0]
        raise LinalgError(
            "no unique Lyapunov solution: eigenvalue pair "
            f"lam[{a}]={lam[a]:.6g} and conj(lam[{b}])={np.conj(lam[b]):.6g} sum to ~0"
        )

    np.conjugate(u, out=u)
    y = u.T @ f  # U^dag F
    np.conjugate(u, out=u)
    y = y @ u
    y = np.asfortranarray(y)
    scale = _trsyl(t, y)
    del t
    y /= scale
    c = u @ y  # U Y U^dag
    del y
    np.conjugate(u, out=u)
    c = c @ u.T
    del u
    c += c.conj().T
    c *= 0.5

    r = w @ c  # W C + C W^dag - F, with C W^dag = (W C)^dag as C is Hermitian
    r += r.conj().T
    r -= f
    resid = np.linalg.norm(r)
    fnorm = np.linalg.norm(f)
    if resid > 1e-10 * max(fnorm, 1e-300):
        raise LinalgError(
            f"Lyapunov residual {resid:.3e} exceeds 1e-10 * ||F|| = {1e-10 * fnorm:.3e}"
        )
    return c
