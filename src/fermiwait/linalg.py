"""Dense complex linear algebra kernels shared by the whole package.

Everything here is a pure function of its arguments.  Determinants are
carried as :class:`LogDet` (log-magnitude plus unit phase) because the
determinants appearing downstream grow or shrink exponentially with chain
size and time; they are only ever exponentiated after being combined with
other log-scale terms.

The chain's generators W and Q are i h plus a diagonal at the two bath
sites, so in the eigenbasis of the Hermitian h they are a real diagonal
times i plus a rank-2 term.  :func:`secular_eig` finds their eigenpairs by
Aberth-Ehrlich sweeps on the secular equation, O(L^2) each, and
:func:`secular_lyapunov_solve` the steady state from them; the one O(L^3)
decomposition of the setup is then numpy's ``eigh`` of h (in ``model``).
Where they refuse, the LAPACK paths below are the fallbacks:
:class:`Propagator` on numpy's ``eig`` and then :func:`expm`, the steady
state on :func:`lyapunov_solve`.

One LAPACK provider, bound directly only where numpy lacks the routine or
its gufunc cannot hand the result to a bound one in place.  The kernels
call numpy's own linalg gufuncs (``eigh``, ``eig``, ``inv``, ``solve``,
``slogdet``, the batched Cholesky) wherever they serve, and bind a LAPACK
routine through ctypes only where numpy has none, or where a bound routine
works on its output: numpy's Cholesky copies each matrix into and out of a
scratch buffer around its LAPACK call, while ``zpotrf`` factorizes in place
the buffer that ``ztrtrs`` and ``zpocon`` then read.  Both run on the
OpenBLAS bundled with numpy (``numpy.libs/libscipy_openblas64_*.so``),
which exports its routines as ``scipy_<name>_64_``: Fortran calling
convention, 64-bit integers, and the hidden length of each character
argument passed last.  The five bindings are

- ``zgees`` (complex Schur form) and ``ztrsyl3`` (blocked triangular
  Sylvester solve, which hands blocks of one to ``ztrsyl``) in
  :func:`lyapunov_solve`, the steady state's fallback: numpy has no Schur
  form and no Sylvester solver;
- ``zpotrf``, ``ztrtrs`` and ``zpocon`` (Cholesky factorization, then the
  triangular solve and condition estimate on its factor), all in
  :func:`cholesky_half_solve`, which calls them only for stacks of more
  than ``BATCHED_SOLVE_MAX_SITES`` rows: numpy has no triangular solve and
  no condition estimator, and ``zpotrf`` leaves its factor where they read
  it.

Character arguments and their hidden lengths are ctypes objects made once
at import; integer arguments are made once per call and shared by every
argument that takes the same value.  ``OPENBLAS`` is the one handle on that
library, so numpy's matrix products and these routines run on the same
BLAS; :func:`blas_threads` reads its thread count and
:func:`set_blas_threads` sets it (the command line pins it to one: through
``OPENBLAS_NUM_THREADS`` before it loads when ``cli`` is imported before
numpy, and in ``cli.main`` always).  There is
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
_zpocon = _lapack("zpocon", 1, 8)
_zpotrf = _lapack("zpotrf", 1, 4)
_ztrtrs = _lapack("ztrtrs", 3, 7)

#: The character arguments the bindings pass, and their hidden length.
_N, _C, _T, _U, _V = (ctypes.c_char_p(c) for c in (b"N", b"C", b"T", b"U", b"V"))
_ONE = ctypes.c_size_t(1)


def _int(value: int):
    """A LAPACK integer argument."""
    return ctypes.byref(ctypes.c_int64(value))


class LinalgError(Exception):
    """Numerical failure in one of the dense kernels."""


class NotPositiveDefiniteError(LinalgError):
    """A Cholesky factorization met a nonpositive pivot."""


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

    @classmethod
    def of(cls, a: np.ndarray, name: str) -> LogDet:
        """det of the one matrix ``a``, refused as in :func:`checked_slogdet`."""
        sign, log_abs = checked_slogdet(a, name)
        return cls(float(log_abs), complex(sign))


def checked_slogdet(a: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(sign, log|det|) of a matrix or of each of a stack (..., n, n), from numpy's ``slogdet``.

    A non-finite or exactly singular matrix, or any such member of a stack,
    is a named error.
    """
    if not np.isfinite(a).all():
        raise LinalgError(f"{name} has non-finite entries")
    sign, log_abs = np.linalg.slogdet(a)
    if not np.all(sign):
        raise LinalgError(f"{name} is exactly singular")
    return sign, log_abs


def _as_square(a, name="matrix") -> np.ndarray:
    """``a`` as a complex square matrix or stack of them (..., n, n), all entries finite."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
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


def _checked_eig(g, w, v) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(w, V, V^-1) if g V = V diag(w) passes both measurements, else None."""
    try:
        vinv = np.linalg.inv(v)
    except np.linalg.LinAlgError:  # exactly defective
        return None
    cond = np.linalg.norm(v, 1) * np.linalg.norm(vinv, 1)
    resid = g @ v
    resid -= v * w  # in place: one n x n temporary besides g V
    resid = np.linalg.norm(resid) / max(np.linalg.norm(g), 1e-300)
    if cond < PROPAGATOR_COND_MAX and resid < 1e-10:
        return w, v, vinv
    return None


class Propagator:
    """exp(g t) for any t >= 0 from one eigendecomposition of g, or expm per call.

    With g = V diag(w) V^-1, exp(g t) = V diag(e^{w t}) V^-1 costs one matrix
    product per time (``matrix``).  ``eig`` holds (w, V, V^-1): the caller's
    pairs when given (``path`` "given"), else LAPACK's ``eig`` of g ("eig"),
    with V^-1 one ``inv`` of V either way.  g is generally non-normal; if V is
    ill-conditioned beyond PROPAGATOR_COND_MAX (near an exceptional point) or
    the decomposition residual is poor, given pairs fall back to LAPACK's, and
    LAPACK's to scaling-and-squaring on every call (Moler & Van Loan, SIAM
    Rev. 2003; ``path`` "expm", where ``eig`` is None and g is the one matrix
    kept).  The path is chosen from these two measurements only.  At t = 0
    every path returns the identity exactly.
    """

    def __init__(self, g, eig: tuple[np.ndarray, np.ndarray] | None = None):
        g = _as_square(g)
        self._size = g.shape[0]
        self.eig = None if eig is None else _checked_eig(g, *eig)
        self.path = "given"
        if self.eig is None:
            self.eig = _checked_eig(g, *np.linalg.eig(g))
            self.path = "eig" if self.eig is not None else "expm"
        self._g = g if self.eig is None else None

    def matrix(self, t: float) -> np.ndarray:
        """exp(g t) as a dense matrix."""
        if t == 0.0:
            return np.eye(self._size, dtype=complex)
        if self.eig is None:
            return expm(self._g * t)
        w, v, vinv = self.eig
        return (v * np.exp(w * t)) @ vinv


#: Largest L at which :func:`cholesky_half_solve` inverts a stack's
#: Cholesky factors in one batched call instead of calling zpotrf, ztrtrs
#: and zpocon once per time.  Microseconds per time on two cores, one BLAS
#: thread, eight right-hand sides, min of 15 rounds; a stack holds
#: wtd.STACK_BYTES of matrices (at most 135 times), "one" is a stack of one
#: time; the loop factorized the stack by numpy's batched Cholesky here:
#:
#:     L              2    4    6    7    8    9   10   11   12   16
#:     loop, stack  6.1  6.8  7.7  8.4  9.0 10.1 10.6 11.1 11.3 13.9
#:     inv, stack   1.4  2.0  3.1  4.0  4.3  5.8  6.9  8.6  9.0 15.3
#:     loop, one   32.7 32.2 33.1 34.9 35.1 37.5 36.4 37.1 37.5 39.4
#:     inv, one    31.1 31.2 32.3 34.4 33.1 36.6 37.4 37.6 38.6 43.4
#:
#: Up to 8 the inverse is about twice as fast on stacks and no slower on one
#: time; from 9 on the stacked gain shrinks, from 10 on one time costs more,
#: and from 16 on stacks do too.  With zpotrf in the loop (two runs on a
#: noisier host) the split holds: the inverse is 2.3-2.5 times as fast on
#: stacks at 7 and 8 and within 10% on one time, and from 9 to 16 one time
#: costs it 2-74% more.
BATCHED_SOLVE_MAX_SITES = 8


def _log_det(factors: np.ndarray) -> np.ndarray:
    """log det a = 2 sum log diag R for each Cholesky factor R of a stack; a non-finite one is refused."""
    log_det = 2.0 * np.sum(np.log(np.diagonal(factors, axis1=-2, axis2=-1).real), axis=-1)
    if not np.all(np.isfinite(log_det)):
        raise NotPositiveDefiniteError("log det is not finite")
    return log_det


def cholesky_half_solve(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R^-1 B, log det a and cond(a) for each a = R R^dag of a stack.

    ``a`` is a stack (n, L, L) of Hermitian positive definite matrices and
    ``b`` a stack (n, L, k), so that B^dag a^-1 B = (R^-1 B)^dag (R^-1 B).
    Returns the C-contiguous (n, L, k) R^-1 B and the (n,) log determinants
    and 1-norm condition numbers (inf where the number is NaN or not
    positive, or LAPACK's estimate fails).  The factorization reads the lower
    triangle of each matrix only.  :class:`NotPositiveDefiniteError` is
    raised if any matrix is not numerically positive definite, or if a log
    determinant is not finite, as it is for a NaN in the lower triangle,
    which neither factorization refuses.  The path depends on L alone, never
    on n, so matrix m of a stack comes out bitwise as the call on it alone:

    - up to ``BATCHED_SOLVE_MAX_SITES`` rows, one call of numpy's batched
      Cholesky factorizes the stack, one batched ``inv`` of the factors gives
      R^-1, one batched product R^-1 B, and ||a||_1 ||R^-dag R^-1||_1 the
      exact condition number;
    - above, one loop over the times factorizes a copy of each matrix in
      place with LAPACK zpotrf on its Fortran-ordered view, which reads a's
      lower triangle as the upper one of conj(a) and leaves U = R^T, the
      upper factor of conj(a) = U^dag U (a's condition number and 1-norm);
      then ztrtrs and zpocon (an estimate of the condition number, from
      below) run on that factor.  Only the matrix pointers change per step.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"matrices must be a stack (n, L, L), got shape {a.shape}")
    n, size = a.shape[:2]
    if b.ndim != 3 or b.shape[:2] != (n, size):
        raise ValueError(f"right-hand sides must be a stack ({n}, {size}, k), got shape {b.shape}")
    anorm = np.abs(a).sum(axis=1).max(axis=1)
    if size <= BATCHED_SOLVE_MAX_SITES:
        try:
            lower = np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(str(exc)) from None
        log_det = _log_det(lower)
        r_inv = np.linalg.inv(lower)
        cond = anorm * np.abs(r_inv.conj().transpose(0, 2, 1) @ r_inv).sum(axis=1).max(axis=1)
        return r_inv @ b, log_det, np.where(cond > 0.0, cond, np.inf)
    factors = np.array(a, order="C")  # overwritten by the factors, one at a time
    x = np.array(b.transpose(0, 2, 1), order="C")  # x[m] is B_m in Fortran order
    work, rwork = np.empty(2 * size, dtype=complex), np.empty(size)
    info, norm, rcond = ctypes.c_int64(), ctypes.c_double(), ctypes.c_double()
    size_arg, k_arg, info_arg = _int(size), _int(b.shape[2]), ctypes.byref(info)
    norm_arg, rcond_arg = ctypes.byref(norm), ctypes.byref(rcond)
    w0, r0 = work.ctypes.data, rwork.ctypes.data
    a0, a_step = factors.ctypes.data, factors.strides[0]
    x0, x_step = x.ctypes.data, x.strides[0]
    cond = np.empty(n)
    for m in range(n):
        factor = a0 + m * a_step
        _zpotrf(_U, size_arg, factor, size_arg, info_arg, _ONE)
        _check_info("zpotrf", info)
        if info.value > 0:
            raise NotPositiveDefiniteError(
                f"zpotrf: leading minor {info.value} is not positive definite at stack index {m}"
            )
        _ztrtrs(
            _U, _T, _N, size_arg, k_arg, factor, size_arg,
            x0 + m * x_step, size_arg, info_arg, _ONE, _ONE, _ONE,
        )
        if info.value != 0:
            raise LinalgError(f"ztrtrs failed with info = {info.value} at stack index {m}")
        norm.value = anorm[m]
        _zpocon(_U, size_arg, factor, size_arg, norm_arg, rcond_arg, w0, r0, info_arg, _ONE)
        cond[m] = np.inf if info.value != 0 or not rcond.value > 0.0 else 1.0 / rcond.value
    return np.ascontiguousarray(x.transpose(0, 2, 1)), _log_det(factors), cond


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
    The residual is checked last.
    """
    w = _as_square(w, "W")
    f = _as_square(f, "F")
    if w.ndim != 2 or w.shape != f.shape:
        raise ValueError(f"shape mismatch: W {w.shape} vs F {f.shape}")

    t, u = _schur(w)
    _check_pair_sums(np.diagonal(t))

    y = np.asfortranarray(u.conj().T @ f @ u)
    scale = _trsyl(t, y)  # overwrites y with the solution, times scale
    y /= scale
    c = u @ y @ u.conj().T  # U Y U^dag
    c = 0.5 * (c + c.conj().T)

    r = w @ c  # W C + C W^dag - F, with C W^dag = (W C)^dag as C is Hermitian
    r += r.conj().T
    r -= f
    _check_residual(np.linalg.norm(r), np.linalg.norm(f))
    return c


def _check_pair_sums(lam: np.ndarray) -> None:
    """A named error unless every pair sum lam_a + conj(lam_b) is at least 1e-14 max(1, max |lam|); NaN is not."""
    bad = ~(np.abs(lam[:, None] + lam[None, :].conj()) >= 1e-14 * max(1.0, float(np.abs(lam).max())))
    if np.any(bad):
        a, b = np.argwhere(bad)[0]
        raise LinalgError(
            "no unique Lyapunov solution: eigenvalue pair "
            f"lam[{a}]={lam[a]:.6g} and conj(lam[{b}])={np.conj(lam[b]):.6g} sum to ~0"
        )


def _check_residual(resid: float, fnorm: float) -> None:
    """A named error unless the Lyapunov residual norm is at most 1e-10 ||F||; NaN is not."""
    if not resid <= 1e-10 * max(fnorm, 1e-300):
        raise LinalgError(
            f"Lyapunov residual {resid:.3e} exceeds 1e-10 * ||F|| = {1e-10 * fnorm:.3e}"
        )


#: Aberth-Ehrlich sweeps after which :func:`secular_eig` gives up.
SECULAR_MAX_SWEEPS = 50

#: The 2 x 2 identity as a row of entries 00, 01, 10, 11.
_EYE2 = np.array([1.0, 0.0, 0.0, 1.0])


def _pole_reciprocals(e, rows, near, far) -> np.ndarray:
    """1 / (i (e_m - e_j) + near_m - far_j) for each m in ``rows`` and every j, 0 at j = m.

    Built in one (n, L) buffer, real and imaginary parts apart, so that a
    sweep holds about one such array at a time.
    """
    out = np.empty((rows.size, e.size), dtype=complex)
    out.real = near.real[:, None] - np.real(far)
    out.imag = np.subtract.outer(e[rows], e)
    out.imag += near.imag[:, None] - np.imag(far)
    own = (np.arange(rows.size), rows)
    out[own] = 1.0
    np.reciprocal(out, out=out)
    out[own] = 0.0
    return out


def secular_eig(e, r, delta) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of A = i diag(e) + r^dag diag(delta) r, a diagonal plus rank-2 matrix.

    ``e`` holds L >= 2 real values in ascending order, ``r`` is 2 x L and
    ``delta`` two reals.  Returns the eigenvalues lam and the unit
    eigenvector columns Y, A Y = Y diag(lam), pair m in the slot of e[m].
    A sweep costs O(L) per unconverged root, and the eigenvectors O(L^2);
    nothing is O(L^3).

    Eigenvalues.  det(lam - A) = prod_j (lam - i e_j) det(1 - diag(delta)
    r (lam - i e)^-1 r^dag).  Root m is carried as its offset eps_m =
    lam_m - i e_m from its own pole, so that a root near its pole, a weakly
    coupled mode, keeps its relative accuracy, its decay rate Re eps_m
    included.  With the pole split off the 2 x 2 determinant by the matrix
    determinant lemma,

        g_m(lam) = eps_m det(A_m) - r_m^dag adj(A_m) diag(delta) r_m,
        A_m = 1 - diag(delta) sum_{j != m} r_j r_j^dag / (lam - i e_j),

    is analytic there, and p'/p = sum_{j != m} 1 / (lam - i e_j) + g_m'/g_m
    is the logarithmic derivative of the characteristic polynomial p.  One
    Aberth-Ehrlich sweep (Aberth, Math. Comp. 27, 1973; Bini, Gemignani &
    Pan, Numer. Math. 100, 2005) moves every unconverged root at once.  The
    sweeps start from the first-order points eps_m = sum_b delta_b |r_bm|^2,
    moved off the pole by (1 + i) / 2 times the coupling w_m = sum_b
    |delta_b| |r_bm|^2.  A root is frozen once its step is at most
    4 eps max(|eps_m|, w_m), or once |g_m| is within 8 eps of the size of
    its two terms, where further steps are roundoff (near a double root
    the first test is never met); a step from an exactly zero g_m could be
    NaN.

    Eigenvectors.  (lam - i e) y = r^dag c with c = diag(delta) r y, so
    component j != m of y is r_j^dag c / (lam - i e_j), and c and y_m span
    the null space of the bordered matrix [[A_m, -diag(delta) r_m],
    [r_m^dag, -eps_m]], whose determinant is -g_m: the largest cross
    product of two of its rows.  A root on its own pole (eps_m = 0 with
    r_m != 0, as mirror symmetry makes it on odd chains) keeps its vector.

    Refusals, each a :class:`LinalgError`: two values of e within L eps
    max|e| (a repeated pole), a mode whose weight on every site of nonzero
    delta is below eps (a dark mode, which the secular equation does not
    see), no convergence within ``SECULAR_MAX_SWEEPS`` sweeps, or a
    non-finite step.
    """
    e = np.asarray(e, dtype=float)
    r = np.asarray(r, dtype=complex)
    delta = np.asarray(delta, dtype=float)
    size = e.size
    if e.ndim != 1 or size < 2 or r.shape != (2, size) or delta.shape != (2,):
        raise ValueError(f"need e (L,), r (2, L) and delta (2,), got {e.shape}, {r.shape}, {delta.shape}")
    eps_mach = np.finfo(float).eps
    gap = np.diff(e)
    if gap.min() <= size * eps_mach * max(float(np.abs(e).max()), 1e-300):
        m = int(np.argmin(gap))
        raise LinalgError(f"repeated eigenvalue: e[{m}] = {e[m]:.6g} and e[{m + 1}] = {e[m + 1]:.6g}")
    weight = np.abs(r) ** 2
    coupling = np.abs(delta) @ weight
    dark = coupling <= eps_mach**2 * np.abs(delta).sum()
    if dark.any():
        m = int(np.argmax(dark))
        raise LinalgError(f"dark mode: mode {m} (e = {e[m]:.6g}) has no weight on a coupled boundary site")

    # The 2 x 2 matrices of a stack are (n, 4) rows of entries 00, 01, 10, 11:
    # M_m = inv @ outer, A_m = 1 - diag(delta) M_m, and
    # r_m^dag adj(A_m) diag(delta) r_m = sum(A_m * quad[m]).
    outer = np.stack([weight[0], r[0] * r[1].conj(), r[1] * r[0].conj(), weight[1], np.ones(size)], axis=1)
    rows_delta = delta[[0, 0, 1, 1]]
    quad = np.stack(
        [delta[1] * weight[1], -delta[1] * r[0].conj() * r[1], -delta[0] * r[1].conj() * r[0], delta[0] * weight[0]],
        axis=1,
    )
    eps = delta @ weight + 0.5 * (1.0 + 1.0j) * coupling
    active = np.arange(size)
    for _ in range(SECULAR_MAX_SWEEPS):
        em = eps[active]
        inv = _pole_reciprocals(e, active, em, 0.0)  # 1 / (lam_m - i e_j), 0 at j = m
        resolvent = inv @ outer  # M_m, and the pole sum in the last column
        dm = (inv * inv) @ outer[:, :4]  # -dM_m/dlam
        del inv
        a = _EYE2 - rows_delta * resolvent[:, :4]
        da = rows_delta * dm  # dA_m/dlam
        det = a[:, 0] * a[:, 3] - a[:, 1] * a[:, 2]
        ddet = da[:, 0] * a[:, 3] + a[:, 0] * da[:, 3] - da[:, 1] * a[:, 2] - a[:, 1] * da[:, 2]
        q = (a * quad[active]).sum(axis=1)
        dq = (da * quad[active]).sum(axis=1)
        g = em * det - q
        newton = g / (g * resolvent[:, 4] + det + em * ddet - dq)
        root_sum = _pole_reciprocals(e, active, em, eps).sum(axis=1)  # sum 1 / (lam_m - lam_j)
        step = newton / (1.0 - newton * root_sum)
        if not np.all(np.isfinite(step)):
            raise LinalgError("secular equation: non-finite Aberth step")
        eps[active] = em - step
        small = np.abs(step) <= 4.0 * eps_mach * np.maximum(np.abs(eps[active]), coupling[active])
        roundoff = np.abs(g) <= 8.0 * eps_mach * (np.abs(em * det) + np.abs(q))
        active = active[~(small | roundoff)]
        if active.size == 0:
            break
    else:
        raise LinalgError(
            f"secular equation: {active.size} roots unconverged after {SECULAR_MAX_SWEEPS} sweeps"
        )

    every = np.arange(size)
    inv = _pole_reciprocals(e, every, eps, 0.0)
    a = _EYE2 - rows_delta * (inv @ outer[:, :4])
    bordered = np.empty((size, 3, 3), dtype=complex)
    bordered[:, 0, :2], bordered[:, 1, :2] = a[:, :2], a[:, 2:]
    bordered[:, :2, 2] = -delta * r.T
    bordered[:, 2, :2] = r.T.conj()
    bordered[:, 2, 2] = -eps
    x, z = bordered[:, [0, 0, 1]], bordered[:, [1, 2, 2]]  # the row pairs 0 1, 0 2 and 1 2
    crosses = x[..., [1, 2, 0]] * z[..., [2, 0, 1]] - x[..., [2, 0, 1]] * z[..., [1, 2, 0]]
    null = crosses[every, np.argmax((np.abs(crosses) ** 2).sum(axis=2), axis=1)]  # (c_1, c_L, y_m)
    y = r.conj().T @ null[:, :2].T
    y *= inv.T
    del inv
    y[every, every] = null[:, 2]
    y /= np.linalg.norm(y, axis=0)
    return 1j * e + eps, y


def secular_lyapunov_solve(e, r, delta, phi) -> np.ndarray:
    """Solve A C + C A^dag = F for Hermitian C, A = i diag(e) + r^dag diag(delta) r, F = r^dag diag(phi) r.

    With the eigenpairs A Y = Y diag(mu) of :func:`secular_eig` (whose
    refusals it raises), C = Y M Y^dag and

        M_ij = (X diag(phi) X^dag)_ij / (mu_i + conj(mu_j)),   X = Y^-1 r^dag,

    at the cost of one two-column solve and two n x n products.  Re mu_i is
    the real part of the Rayleigh quotient, sum_b delta_b |(r y_i)_b|^2 for
    the unit y_i: exact for an eigenvector, and formed from the same boundary
    amplitudes as the numerator, so a barely decaying mode's M_ii is a ratio
    of two small numbers of the same origin.  The pair-sum error and the
    residual check are those of :func:`lyapunov_solve`, and exactly singular
    eigenvectors are a named error too; the residual is formed
    in O(L^2) as

        A C + C A^dag - F = i (e_i - e_j) C_ij + K + K^dag,
        K = r^dag (diag(delta) r C - diag(phi) r / 2),

    and ||F|| from r r^dag.  Y is conjugated in place; at most three n x n
    matrices besides Y's LU factors are live at once.
    """
    e, r = np.asarray(e, dtype=float), np.asarray(r, dtype=complex)
    delta, phi = np.asarray(delta, dtype=float), np.asarray(phi, dtype=float)
    mu, y = secular_eig(e, r, delta)
    mu = delta @ np.abs(r @ y) ** 2 + 1j * mu.imag
    _check_pair_sums(mu)
    try:
        x = np.linalg.solve(y, r.conj().T)
    except np.linalg.LinAlgError:  # an exactly zero pivot
        raise LinalgError("secular equation: the eigenvectors are exactly singular") from None
    c = (x * phi) @ x.conj().T
    c /= mu[:, None] + mu.conj()
    c = y @ c  # Y M Y^dag
    np.conjugate(y, out=y)
    c = c @ y.T
    del y
    c += c.conj().T
    c *= 0.5

    k = r.conj().T @ (delta[:, None] * (r @ c) - 0.5 * phi[:, None] * r)
    k += k.conj().T
    k += c * (1j * e)[:, None]
    k -= c * (1j * e)
    rr = phi[:, None] * (r @ r.conj().T)  # ||F||^2 = tr((diag(phi) r r^dag)^2)
    _check_residual(np.linalg.norm(k), float(np.sqrt(abs(np.trace(rr @ rr)))))
    return c
