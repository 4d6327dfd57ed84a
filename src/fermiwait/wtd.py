"""Closed-form waiting-time densities between jump clicks.

The density for a click in channel k a time t after a click in channel q,
starting from a Gaussian state with covariance C, reduces to L x L matrix
algebra built from G = e^{-Qt} and the state.  Writing Gd = G^dag, all
sixteen (k, q) densities follow from the system matrix

    A = (1 - C) + Gd G C,

whose determinant equals the determinant-ratio prefactor
det(1 + e^{-Qt} e^{-M} e^{-Q^dag t}) / det(1 + e^{-M}) and whose inverse
yields the occupation kernel T = G C A^{-1} Gd of the no-click propagation.
The channels act on the bath sites b = (1, L) only, so a density reads
nothing but the 2 x 2 boundary entries of seven blocks (``_Blocks``), and the
scalar prefactor combines exp(-Gamma t) and log|det A| before a single
exponentiation.  One function (``_assemble``) turns the blocks into any set
of the sixteen densities, so a density matrix and a single density agree
bitwise.

Eigenbasis kernel.  With the eigendecomposition G = V D V^-1 of the shared
propagator (``SingleParticleSet.propagator``), the Hermitian matrices
S = V^dag V and Z = V^dag (C^-1 - 1) V do not depend on t, and

    A = V^-dag (Z + Dbar S D) V^-1 C.

Where a bath has f > 1/2 some modes grow (|d| > 1); multiplied into A they
take the result's digits.  The diagonal is therefore split into a big and a
small part, d_b = max(|d|, 1) and d_s = d / d_b, the graded scaling of
determinant QMC (Loh et al., PRB 1989; Bai, Lee, Li & Xu, LAA 2011), so
that Z + Dbar S D = D_b B D_b with

    B = Z o (d_b^-1 d_b^-T) + S o (dbar_s d_s^T),

Hermitian positive definite for 0 < C <= 1, with every growing factor in
the scaling and none in B.  Per time the work is that O(L^2) update of B,
one Cholesky factorization B = R R^dag and one eight-column triangular
solve R^-1 [X, Y, U, F] with X = D_b^-1 V^dag[:, b], Y = Dbar_s V^dag[:, b]
and U = D_b^-1 Z V^-1[:, b].  Its Gram matrix gives every block:

    ext_same = X^dag B^-1 X,  ext_left = Y^dag B^-1 X,  ext_right = X^dag B^-1 Y,
    T = Y^dag B^-1 Y,         inj_left = Y^dag B^-1 U,  inj_right = U^dag B^-1 Y,
    inj_same = (C^-1 - 1)[b, b] - U^dag B^-1 U
             = K_G + U^dag B^-1 F,

and log|det A| = log det B + 2 sum log d_b + log det C - 2 log|det V| with
phase exactly 1.  The second form of inj_same splits the modes into growing
(P_G) and the rest (P_N): K_G = (Z V^-1[:, b])^dag P_G V^-1[:, b] and
F = Dbar_s S D_s P_N V^-1[:, b] - D_b^-1 Z P_G V^-1[:, b], so the difference of
two terms of size 1 / min(C) is left only where modes grow.  S, Z, the
boundary rows and columns, K_G and the log-determinants are built once per
(state, single-particle set) and kept in ``SingleParticleSet.memo``: every
point, curve, moment pass and repeated call on the same objects reuses them.

Fallback.  The LU form -- G, Gd G, A, one LU of A and a six-column solve
A^{-1} [Gd, Gd G, 1][:, b] multiplied by C and the boundary rows of G and
1 - C -- is used

- when the propagator is on its expm fallback near an exceptional point
  (``linalg.PROPAGATOR_COND_MAX``);
- when C has an eigenvalue below ``C_MIN_EIGENVALUE``, until G has grown
  by 1 / min(C) (for all t if no mode grows): the eigenbasis form loses
  about 1 / min(C) units of roundoff there, the LU form about e^{2 g t};
- when the Cholesky factorization of B fails.

The imaginary-residue check, the clamp window and its flags and the
impossible-click rejection are the same on both forms.  ``cond_estimate``
of a point is LAPACK's 1-norm condition estimate of the matrix factorized
for it: B (``zpocon``) on the eigenbasis form, A (``zgecon``) on the LU
form.

Stacks of times.  Every density runs through one evaluator
(``_densities``) on a 1-D array of n times: ``wtd_density_matrix`` takes one
time or such a stack and returns a (4, 4) or an (n, 4, 4) array, matrix m of
a stack equal to the call at t[m] alone bitwise; ``wtd_point`` is a stack of
one and ``wtd_curve`` one stack of the whole grid.  On the eigenbasis form
the B matrices of a part of the stack are built as one (n, L, L) array and
factorized by one call of numpy's batched Cholesky; the right-hand sides,
the Gram blocks and the assembly of the densities are batched as well.
What has no batched LAPACK routine takes the whole part in one call that
loops over its times inside ``linalg``: the condition estimate
(``zpocon``) and the eight-column triangular solve (``ztrtrs``; numpy has
no batched triangular solve, and a row-by-row batched substitution saves
about a microsecond a time at L <= 5 but costs three to four times the
per-time call from L = 50 on).  Every time on the LU form is its own
call.  If the batched Cholesky refuses a matrix, the part is factorized
again time by time, so only the refused times take the LU form.  One part
holds at most ``STACK_BYTES`` of L x L matrices, so a quadrature round at
L = 200-400 does not grow the memory.

Starting from the vacuum (C = 0) the densities are analytic:

    P(t, i-|j+) = rate_i- * e^{-Gamma t} * |G_ij|^2
    P(t, i+|j+) = rate_i+ * e^{-Gamma t} * [(Gd G)_jj - |G_ij|^2]

and densities conditioned on an extraction vanish identically.  These need
only the boundary columns G[:, b], O(L^2) per time; on the eigen-propagator
a whole stack is V (e^{w t} o V^-1[:, b]) in one product, on the expm
fallback one propagator per time.

Thread policy.  There are two parallel phases, one after the other and
never nested, and both run from ``POOL_MIN_SITES`` sites on with the
worker count of ``_pool_workers``: ``prepare`` builds the propagator on
one worker thread while the calling thread solves for the initial state,
and the pool of ``_build_blocks`` runs over the parts of a stack.  Below
that size no thread starts.  The command line pins numpy's bundled
OpenBLAS, the one BLAS and LAPACK of the package (``linalg.OPENBLAS``), to
one thread (``cli.main``), so BLAS threads never nest under either phase's
threads, and keeps freed memory in the heap (``cli._keep_freed_memory``),
so the workers do not fault their temporaries' pages in afresh at every
part.  With one BLAS thread each phase's results are bitwise those of
running its steps in order.  Importing or calling the library never
changes the process-wide BLAS setting: library callers that bypass
``cli.main`` keep their process's setting, and to get the same behaviour
they set ``OPENBLAS_NUM_THREADS=1`` before numpy is first imported, or cap
the threads at run time (for example with threadpoolctl), otherwise the
phases' threads and BLAS threads contend for the same cores.  Such callers
also keep glibc's default allocator thresholds; to get the command line's
allocator behaviour they set ``MALLOC_MMAP_THRESHOLD_=33554432`` and
``MALLOC_TRIM_THRESHOLD_=67108864`` (the values of
``cli._keep_freed_memory``) in the environment before the process starts.
Threads overlap only code that releases the GIL: numpy's linalg gufuncs
(the Cholesky factorization, ``eig``, ``inv``), large elementwise
operations and every LAPACK call of ``linalg`` do, the Schur form and
Sylvester solve of the steady state and the per-time ``zpocon`` and
``ztrtrs`` calls included, since ctypes releases the GIL for each call.
What holds it is the Python between those calls.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .linalg import (
    CholeskyFactor,
    NotPositiveDefiniteError,
    cholesky_logdet,
    condition_estimate,
    half_solve,
    lu_logdet,
    solve_factored,
)
from .model import (
    CHANNEL_ORDER,
    ChainSpec,
    Channel,
    GaussianState,
    SingleParticleSet,
    derive_single_particle,
)

#: Roundoff window: densities above -CLAMP_WINDOW are clamped to zero.
CLAMP_WINDOW = 1e-12

#: Relative imaginary residue allowed before the result is rejected.
IMAG_TOL = 1e-9

#: Condition estimate of the factorized matrix (B or A) above which points
#: are flagged.
COND_THRESHOLD = 1e12

#: Occupation factor (C_jj for q = j-, 1 - C_jj for q = j+) at or below
#: which a click in q is impossible and densities conditioned on it are
#: undefined.
MIN_OCCUPATION_FACTOR = 1e-14

#: Smallest eigenvalue of C from which the eigenbasis kernel is used at
#: every time.  Below it cond(B) grows like 1 / min(C) and the blocks lose
#: about that many units of roundoff, while the LU form loses about
#: e^{2 g t}, g the fastest growth rate of G: such a state takes the LU form
#: until e^{2 g t} reaches 1 / min(C), and for all t when no mode grows.
#: Eigenvalues near 1 need no fallback: B stays positive definite, and for
#: C = 1 (both baths full) only the eigenbasis form survives the growth.
C_MIN_EIGENVALUE = 1e-3

#: Bytes of the L x L complex matrices (for the vacuum, of the L x 2
#: boundary columns) that one stack of times holds at once.  Longer stacks
#: are evaluated in parts, so memory does not grow with the stack: 128 KiB
#: is 8192 two-site matrices, 20 at L = 20 and one from L = 65 on.  Larger
#: parts gain nothing: once the batched elementwise work leaves the cache
#: it costs more per time than one time alone.
STACK_BYTES = 1 << 17

#: Smallest chain that runs on threads, in either of the two parallel
#: phases (``_pool_workers``): the propagator built beside the initial state
#: (``prepare``) and the block build (``_build_blocks``).  Below it the
#: Python between the LAPACK calls, which holds the GIL, outweighs what the
#: pool overlaps: on two cores, with every LAPACK call releasing the GIL,
#: pool/serial time per node was 1.06-1.12 at L = 64, 1.01-1.08 at 100,
#: 0.90-1.06 at 128, 0.72-1.07 at 160 and 0.60-1.01 at 200 (three runs).
POOL_MIN_SITES = 128

DEFAULT_GRID_POINTS = 400


class WtdNumericsError(Exception):
    """The closed-form evaluation lost its real-valuedness or solvability."""


@dataclass(frozen=True)
class WtdPoint:
    """One sampled density value with its conditioning diagnostic.

    ``flag`` is empty for a clean point, otherwise a comma-joined list of
    "clamped" (tiny negative rounded up to 0), "negative" (clamp window
    exceeded) and/or "ill_conditioned" (``cond_estimate``, the condition
    estimate of the matrix factorized for the point, above COND_THRESHOLD).
    """

    t: float
    value: float
    cond_estimate: float
    flag: str = ""


@dataclass(frozen=True)
class WtdCurve:
    """Density samples for one (to_channel | from_channel) pair."""

    from_channel: Channel
    to_channel: Channel
    points: tuple[WtdPoint, ...]
    state_kind: str

    @property
    def times(self) -> np.ndarray:
        return np.array([p.t for p in self.points])

    @property
    def values(self) -> np.ndarray:
        return np.array([p.value for p in self.points])


def validate_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("time grid must be a nonempty 1-D array")
    if grid[0] < 0:
        raise ValueError("time grid must start at t >= 0")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise ValueError("time grid must be strictly increasing")
    return grid


def default_time_grid(
    spec: ChainSpec, points: int = DEFAULT_GRID_POINTS, t_max: float | None = None
) -> np.ndarray:
    """Uniform grid covering both the bath decay and ballistic traversal scales.

    t_max defaults to max(20 / Gamma, 4 L / J_eff) with J_eff the largest
    off-diagonal magnitude of h.
    """
    if t_max is None:
        sp = derive_single_particle(spec)
        candidates = []
        if sp.gamma_total > 0:
            candidates.append(20.0 / sp.gamma_total)
        j_eff = float(np.max(np.abs(spec.h - np.diag(np.diagonal(spec.h)))))
        if j_eff > 0:
            candidates.append(4.0 * spec.L / j_eff)
        if not candidates:
            raise ValueError(
                "cannot pick a default horizon: no injection decay rate and no hopping"
            )
        t_max = max(candidates)
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if points < 2:
        raise ValueError("grid needs at least 2 points")
    return np.linspace(0.0, t_max, points)


#: The seven 2 x 2 blocks of ``_Blocks.m``, each the boundary entries [b, b]:
#: T = G C A^-1 Gd, the no-click occupation kernel; for q = j+ the diagonal
#: factor (1-C) A^-1 Gd G and the exchange factors (1-T) G (left) and
#: (1-C) A^-1 Gd (right); for q = j- the diagonal factor C A^-1 and the
#: exchange factors G C A^-1 (left) and C A^-1 Gd (right).
_T, _INJ_SAME, _INJ_LEFT, _INJ_RIGHT, _EXT_SAME, _EXT_LEFT, _EXT_RIGHT = range(7)


@dataclass(frozen=True)
class _Blocks:
    """Boundary entries, at sites (1, L), of the t-dependent factors of all sixteen densities.

    One entry per time of a stack of n times, so the sixteen-entry assembly
    runs on the whole stack: ``m[:, X]`` is the (n, 2, 2) block X of
    ``_T`` ... ``_EXT_RIGHT``.
    """

    m: np.ndarray  # (n, 7, 2, 2) complex
    log_prefactor: np.ndarray  # (n,): -Gamma t + log|det A|
    phase: np.ndarray  # (n,) complex
    cond: np.ndarray  # (n,)


@dataclass(frozen=True)
class _Eigenbasis:
    """The t-independent factors of the eigenbasis kernel for one state."""

    w: np.ndarray  # eigenvalues of -Q: G = V diag(e^{w t}) V^-1
    s: np.ndarray  # V^dag V
    z: np.ndarray  # V^dag (C^-1 - 1) V
    vh_b: np.ndarray  # V^dag[:, b]
    zvinv_b: np.ndarray  # Z V^-1[:, b]
    vinv_n_b: np.ndarray  # P_N V^-1[:, b], rows of growing modes zeroed
    zvinv_g_b: np.ndarray  # Z P_G V^-1[:, b]
    k_g: np.ndarray  # (Z V^-1[:, b])^dag P_G V^-1[:, b]
    log_det_ratio: float  # log det C - 2 log|det V|
    lu_until: float  # times below this take the LU form (C_MIN_EIGENVALUE)


def _boundary(L: int) -> slice:
    """Index of the two bath sites as a view: slot 0 is site 1, slot 1 is site L."""
    return slice(None, None, L - 1)


def _slot(ch: Channel) -> int:
    return 0 if ch.site == 1 else 1


def _hermitian(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _chunks(n: int, bytes_per_time: int) -> list[slice]:
    """Split a stack of n times into parts of at most STACK_BYTES (at least one time each)."""
    step = max(1, STACK_BYTES // bytes_per_time)
    return [slice(start, start + step) for start in range(0, n, step)]


def _times(t) -> np.ndarray:
    """A scalar or 1-D array of times as a 1-D float array, checked nonnegative."""
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError("times must be a scalar or a 1-D array")
    ts = ts.reshape(-1)
    if np.any(ts < 0):
        raise ValueError("time must be nonnegative")
    return ts


def _eigenbasis(c: np.ndarray, sp: SingleParticleSet) -> _Eigenbasis | None:
    """The per-state factors, or None where the fallback must be used."""
    eig = sp.propagator.eig
    if eig is None:
        return None
    w, v, vinv = eig
    occ, u = np.linalg.eigh(c)
    growth = max(float(w.real.max()), 0.0)
    lu_until = 0.0
    if occ[0] < C_MIN_EIGENVALUE:
        if occ[0] <= 0.0 or growth == 0.0:
            return None
        lu_until = -math.log(occ[0]) / (2.0 * growth)
    b = _boundary(sp.L)
    p = u.conj().T @ v
    z = _hermitian((p.conj().T * (1.0 / occ - 1.0)) @ p)
    growing = w.real > 0.0
    vinv_b = vinv[:, b]
    vinv_g_b = np.where(growing[:, None], vinv_b, 0.0)
    zvinv_b = z @ vinv_b
    return _Eigenbasis(
        w=w,
        s=_hermitian(v.conj().T @ v),
        z=z,
        vh_b=np.ascontiguousarray(v[b].conj().T),
        zvinv_b=zvinv_b,
        vinv_n_b=vinv_b - vinv_g_b,
        zvinv_g_b=z @ vinv_g_b,
        k_g=zvinv_b.conj().T @ vinv_g_b,
        log_det_ratio=float(np.sum(np.log(occ))) - 2.0 * float(np.linalg.slogdet(v)[1]),
        lu_until=lu_until,
    )


def _factorize(bmat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Cholesky factors and log det of a stack of B, and the mask of times it took.

    The stack is factorized in one call; only if that call refuses a matrix
    is it factorized again time by time, to find the refused ones.  The
    mask is None when every time took.
    """
    n = bmat.shape[0]
    try:
        factor, log_det = cholesky_logdet(bmat)
        return factor.lower, log_det, None
    except NotPositiveDefiniteError:
        ok = np.zeros(n, dtype=bool)
        if n == 1:
            return bmat, np.zeros(1), ok
    lower, log_det = np.empty_like(bmat), np.zeros(n)
    for i in range(n):
        try:
            factor, one = cholesky_logdet(bmat[i : i + 1])
        except NotPositiveDefiniteError:
            continue
        lower[i], log_det[i], ok[i] = factor.lower[0], one[0], True
    return lower, log_det, ok


def _gram_index() -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the Gram matrix that hold each block, in ``_Blocks.m`` order."""
    corners = ((2, 2), (4, 6), (2, 4), (4, 2), (0, 0), (2, 0), (0, 2))
    rows = np.array([[[r, r], [r + 1, r + 1]] for r, _ in corners])
    cols = np.array([[[c, c + 1], [c, c + 1]] for _, c in corners])
    return rows, cols


_GRAM_ROWS, _GRAM_COLS = _gram_index()


def _eigen_blocks(
    ts: np.ndarray, e: _Eigenbasis, gamma_total: float
) -> tuple[dict, np.ndarray | None]:
    """The blocks at the times ``ts`` on the eigenbasis form, and the mask of times it took.

    Times whose B the Cholesky factorization refuses are left out of the
    blocks (their mask entry is False) for the LU form to take; the mask is
    None when every time took.
    """
    wt = ts[:, None] * e.w
    grow = np.maximum(wt.real, 0.0)  # log d_b
    inv_db = np.exp(-grow)[:, :, None]
    ds = np.exp(wt - grow)[:, :, None]
    ds_bar = ds.conj()
    bmat = e.z * (inv_db * inv_db.transpose(0, 2, 1))
    bmat += e.s * (ds_bar * ds.transpose(0, 2, 1))
    lower, log_det_b, ok = _factorize(bmat)
    if ok is not None:
        ts, grow, inv_db, ds, ds_bar = ts[ok], grow[ok], inv_db[ok], ds[ok], ds_bar[ok]
        bmat, lower, log_det_b = bmat[ok], lower[ok], log_det_b[ok]
    anorm = np.abs(bmat).sum(axis=1).max(axis=1)

    # R^-1 [X, Y, U, F] for B = R R^dag: the only solve, eight columns; its
    # Gram matrix holds every quadratic form the blocks need.
    f = ds_bar * (e.s @ (ds * e.vinv_n_b)) - inv_db * e.zvinv_g_b
    cols = np.concatenate((e.vh_b * inv_db, e.vh_b * ds_bar, e.zvinv_b * inv_db, f), axis=2)
    factor = CholeskyFactor(lower)
    cond = condition_estimate(factor, anorm)
    half = half_solve(factor, cols)
    gram = half[:, :, :6].conj().transpose(0, 2, 1) @ half
    m = gram[:, _GRAM_ROWS, _GRAM_COLS]
    m[:, _INJ_SAME] += e.k_g
    blocks = {
        "m": m,
        "log_prefactor": -gamma_total * ts + log_det_b + 2.0 * grow.sum(axis=1) + e.log_det_ratio,
        "phase": np.ones(ts.size, dtype=complex),
        "cond": cond,
    }
    return blocks, ok


def _lu_blocks(t: float, c: np.ndarray, sp: SingleParticleSet) -> dict:
    """The blocks at one time on the LU form, as a stack of one."""
    b = _boundary(sp.L)
    g = sp.propagator.matrix(t)
    gd = g.conj().T
    gdg = gd @ g
    one_minus_c = np.eye(sp.L) - c
    a = gdg @ c
    a += one_minus_c
    factors, logdet = lu_logdet(a)
    cond = condition_estimate(factors, float(np.abs(a).sum(axis=0).max()))

    # A^-1 [Gd, Gd G, 1][:, b]: the only solve, six columns.
    cols = solve_factored(factors, np.hstack((gd[:, b], gdg[:, b], np.eye(sp.L)[:, b])))
    c_cols = c @ cols
    left = g[b] @ c_cols  # G C A^-1 [Gd, Gd G, 1] at rows b
    right = one_minus_c[b] @ cols  # (1-C) A^-1 [Gd, Gd G] at rows b
    m = (
        left[:, :2],
        right[:, 2:4],
        g[b, b] - left[:, 2:4],
        right[:, :2],
        c_cols[b, 4:],
        left[:, 4:],
        c_cols[b, :2],
    )
    return {
        "m": np.stack(m)[None],
        "log_prefactor": np.array([-sp.gamma_total * t + logdet.log_abs]),
        "phase": np.array([logdet.phase]),
        "cond": np.array([cond]),
    }


def _pool_workers(L: int) -> int:
    """Threads a parallel phase runs on for a chain of L sites; 1 means no thread starts.

    min(4, os.cpu_count()) from POOL_MIN_SITES sites on, 1 below.
    """
    return min(4, os.cpu_count() or 1) if L >= POOL_MIN_SITES else 1


def prepare(
    spec: ChainSpec, initial: Callable[[], GaussianState]
) -> tuple[SingleParticleSet, GaussianState]:
    """The single-particle set of ``spec`` and the initial state ``initial()``.

    Building the propagator (``SingleParticleSet.propagator``, an
    eigendecomposition and an inverse) and the initial state (for a steady
    state, the Schur form and the Sylvester solve) are independent O(L^3)
    steps.  When ``_pool_workers`` allows threads, the propagator is built on
    one worker thread while this thread calls ``initial()``; both spend
    their time in LAPACK, which releases the GIL, so they overlap.  Each
    step runs as it would alone, so with BLAS on one thread the results are
    bitwise those of the serial order.  Otherwise no thread starts:
    ``initial()`` runs and the propagator is built on its first use.  An
    error of ``initial()`` is raised in preference to one of the
    propagator, as the serial order meets it first, and only after the
    worker thread has ended.
    """
    sp = derive_single_particle(spec)
    if _pool_workers(sp.L) == 1:
        return sp, initial()
    with ThreadPoolExecutor(max_workers=1) as pool:
        built = pool.submit(lambda: sp.propagator)
        state = initial()
    built.result()
    return sp, state


def _state_eigenbasis(state: GaussianState, sp: SingleParticleSet) -> _Eigenbasis | None:
    """The per-state factors, built once per (state, sp) and kept in ``sp.memo``."""
    return sp.memo(state, ("eigenbasis",), lambda: _eigenbasis(state.C, sp))


def _build_blocks(ts: np.ndarray, state: GaussianState, sp: SingleParticleSet) -> _Blocks:
    """The blocks at every time of ``ts``: eigenbasis form where it applies, LU form otherwise.

    One task per part of at most STACK_BYTES of L x L matrices of the
    eigenbasis times, in which a time whose B the Cholesky factorization
    refuses takes the LU form, and one per LU-form time.  With more than one
    task and more than one worker (``_pool_workers``), the tasks run on a
    pool of that many threads; the blocks are bitwise the same.
    """
    basis = _state_eigenbasis(state, sp)
    on_eig = np.zeros(ts.size, dtype=bool) if basis is None else ts >= basis.lu_until
    eig = np.flatnonzero(on_eig)
    tasks = [eig[part] for part in _chunks(eig.size, 16 * sp.L**2)]
    tasks += [np.array([i]) for i in np.flatnonzero(~on_eig)]

    def run(idx: np.ndarray) -> list[tuple]:
        """(indices into ts, blocks at those times) of one task."""
        pieces, lu = [], idx
        if on_eig[idx[0]]:
            blocks, ok = _eigen_blocks(ts[idx], basis, sp.gamma_total)
            ok = np.ones(idx.size, dtype=bool) if ok is None else ok
            pieces, lu = [(idx[ok], blocks)], idx[~ok]
        return pieces + [([i], _lu_blocks(float(ts[i]), state.C, sp)) for i in lu]

    workers = _pool_workers(sp.L)
    if len(tasks) > 1 and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(run, tasks))
    else:
        done = [run(idx) for idx in tasks]
    out = {
        "m": np.empty((ts.size, 7, 2, 2), dtype=complex),
        "log_prefactor": np.empty(ts.size),
        "phase": np.empty(ts.size, dtype=complex),
        "cond": np.empty(ts.size),
    }
    for idx, blocks in (piece for task in done for piece in task):
        for name, value in blocks.items():
            out[name][idx] = value
    return _Blocks(**out)


def _boundary_occupations(state: GaussianState) -> tuple[float, float]:
    """Real C_jj at the two bath sites."""
    return float(state.C[0, 0].real), float(state.C[-1, -1].real)


def _occupation_factor(c_diag: tuple[float, float], q: Channel) -> float:
    """C_jj for q = j-, 1 - C_jj for q = j+: the weight of a click in q."""
    c = c_diag[_slot(q)]
    return c if q.sign == "-" else 1.0 - c


@dataclass(frozen=True)
class _Pairs:
    """A set of (k, q) densities for one pair of boundary occupations.

    ``entries`` (4, P) holds, for each pair, the flat index into a time's
    seven blocks (``_Blocks.m`` as 28 numbers) of T[i, i], the diagonal
    factor [j, j] and the left [i, j] and right [j, i] exchange factors of
    q's sign.
    """

    pairs: tuple
    entries: np.ndarray
    k_minus: np.ndarray  # (P,) k is an extraction: the bracket takes T, else 1 - T
    plus_cross: np.ndarray  # (P,) the exchange term enters with a plus sign
    denom: np.ndarray  # (P,) occupation factor of q
    impossible: np.ndarray  # (P,) a click in q is impossible
    coef: np.ndarray  # (P,) rate_k / denom, 0 where a click in q is impossible


@functools.lru_cache(maxsize=256)
def _pair_plan(pairs: tuple, c_diag: tuple[float, float]) -> _Pairs:
    """The plan of ``pairs`` for the boundary occupations ``c_diag``, built once and cached."""
    index = np.array(
        [
            [
                (_T, i, i),
                (_INJ_SAME, j, j) if inj else (_EXT_SAME, j, j),
                (_INJ_LEFT, i, j) if inj else (_EXT_LEFT, i, j),
                (_INJ_RIGHT, j, i) if inj else (_EXT_RIGHT, j, i),
            ]
            for i, j, inj in ((_slot(k), _slot(q), q.sign == "+") for k, q in pairs)
        ],
        dtype=int,
    ).reshape(-1, 4, 3)
    k_minus = np.array([k.sign == "-" for k, _ in pairs], dtype=bool)
    denom = np.array([_occupation_factor(c_diag, q) for _, q in pairs], dtype=float)
    impossible = denom <= MIN_OCCUPATION_FACTOR
    rates = np.array([k.rate for k, _ in pairs], dtype=float)
    return _Pairs(
        pairs=pairs,
        entries=np.ravel_multi_index(tuple(index.transpose(2, 1, 0)), (7, 2, 2)),
        k_minus=k_minus,
        plus_cross=k_minus == np.array([q.sign == "+" for _, q in pairs], dtype=bool),
        denom=denom,
        impossible=impossible,
        coef=np.divide(rates, denom, out=np.zeros_like(rates), where=~impossible),
    )


@functools.lru_cache(maxsize=64)
def _matrix_plan(order: tuple, c_diag: tuple[float, float]) -> tuple[_Pairs, tuple, tuple]:
    """The density-matrix pairs whose q can click, with their rows and columns."""
    cells = [
        (a, b)
        for b, q in enumerate(order)
        if _occupation_factor(c_diag, q) > MIN_OCCUPATION_FACTOR
        for a in range(4)
    ]
    rows, cols = zip(*cells) if cells else ((), ())
    return _pair_plan(tuple((order[a], order[b]) for a, b in cells), c_diag), rows, cols


def _assemble(blocks: _Blocks, ts: np.ndarray, plan: _Pairs) -> np.ndarray:
    """Each (k, q) density of ``plan`` at every time, (n, P), before clamping.

    Raises :class:`WtdNumericsError` where a click in q is impossible or the
    bracket keeps an imaginary residue: for the first time of the stack with
    a failing pair, and its first failing pair, the error a call with that
    time alone raises.  Values below zero are left to the caller, which
    clamps them to 0 (``_clamped``) and may flag them (``_clamp_flag``).
    """
    entries = np.take(blocks.m.reshape(ts.size, 28), plan.entries, axis=1)
    t_diag, diag, left, right = entries.transpose(1, 0, 2)
    cross = left * right
    bracket = diag * np.where(plan.k_minus, t_diag, 1.0 - t_diag)
    bracket = np.where(plan.plus_cross, bracket + cross, bracket - cross)
    rotated = blocks.phase[:, None] * bracket
    bad = plan.impossible | (np.abs(rotated.imag) > IMAG_TOL * np.abs(rotated) + 1e-12)
    if bad.any():
        n0 = int(np.flatnonzero(bad.any(axis=1))[0])
        p0 = int(np.flatnonzero(bad[n0])[0])
        k, q = plan.pairs[p0]
        if plan.impossible[p0]:
            raise WtdNumericsError(
                f"conditioning on channel {q.label} is impossible: occupation factor "
                f"{plan.denom[p0]:.3e}; vacuum-like states must use the vacuum path"
            )
        raise WtdNumericsError(
            f"imaginary residue {rotated[n0, p0].imag:.3e} in density at "
            f"t={ts[n0]:.6g}, ({k.label}|{q.label})"
        )
    return plan.coef * np.exp(blocks.log_prefactor)[:, None] * rotated.real


def _clamped(values: np.ndarray) -> np.ndarray:
    """Densities with every value below zero set to 0."""
    return np.where(values < 0.0, 0.0, values)


def _clamp_flag(value: float) -> str:
    """"clamped" for a density below zero within CLAMP_WINDOW, "negative" beyond, else ""."""
    if value < 0.0:
        return "clamped" if value >= -CLAMP_WINDOW else "negative"
    return ""


def _boundary_columns(ts: np.ndarray, sp: SingleParticleSet) -> np.ndarray:
    """G[:, b] = e^{-Qt} on the unit vectors of the two bath sites at every time: (n, L, 2).

    On the eigen-propagator the stack is V (e^{w t} o V^-1[:, b]) in one
    product, and exactly the unit vectors at t = 0; on the expm fallback it
    takes one propagator per time.
    """
    e = np.zeros((sp.L, 2))
    e[_boundary(sp.L)] = np.eye(2)
    eig = sp.propagator.eig
    if eig is None:
        return np.stack([sp.propagator.apply(float(t), e) for t in ts])
    w, v, vinv = eig
    cols = v @ (np.exp(ts[:, None] * w)[:, :, None] * vinv[:, _boundary(sp.L)])
    cols[ts == 0.0] = e
    return cols


def _vacuum_densities(ts: np.ndarray, sp: SingleParticleSet, pairs) -> np.ndarray:
    """Vacuum densities (n, len(pairs)) of each (k, q) at every time, from G[:, b].

    Evaluated in stacks of at most STACK_BYTES of boundary columns.
    """
    out = np.zeros((ts.size, len(pairs)))
    for part in _chunks(ts.size, 32 * sp.L):
        g_cols = _boundary_columns(ts[part], sp)
        decay = np.exp(-sp.gamma_total * ts[part])
        norm = np.sum(g_cols.real**2 + g_cols.imag**2, axis=1)  # (Gd G)_jj
        for p, (k, q) in enumerate(pairs):
            if q.sign == "-":
                continue
            hop = np.abs(g_cols[:, k.site_index, _slot(q)]) ** 2
            if k.sign == "-":
                out[part, p] = k.rate * decay * hop
            else:
                out[part, p] = np.maximum(k.rate * decay * (norm[:, _slot(q)] - hop), 0.0)
    return out


def _densities(
    ts: np.ndarray, state: GaussianState, sp: SingleParticleSet, plan: _Pairs
) -> tuple[np.ndarray, np.ndarray]:
    """Each (k, q) density of ``plan`` at every time, (n, P) before clamping, and (n,) conditions.

    The one evaluator behind every density: from the vacuum the analytic
    limit formulas (condition 1), otherwise the blocks of the whole stack
    (``_build_blocks``) assembled at once (``_assemble``).
    """
    if state.kind == "vacuum":
        return _vacuum_densities(ts, sp, plan.pairs), np.ones(ts.size)
    blocks = _build_blocks(ts, state, sp)
    return _assemble(blocks, ts, plan), blocks.cond


def _point(t: float, value: float, cond: float) -> WtdPoint:
    """The point of an assembled density: clamped, and flagged by its value and condition."""
    flag = _clamp_flag(value)
    if cond > COND_THRESHOLD:
        flag = flag + "," + "ill_conditioned" if flag else "ill_conditioned"
    return WtdPoint(t, max(value, 0.0), cond, flag)


def wtd_density_vacuum(t: float, k: Channel, q: Channel, sp: SingleParticleSet) -> float:
    """Waiting-time density from the empty chain (analytic limit formulas).

    Densities conditioned on an extraction are identically zero: there is
    nothing to extract from the vacuum.
    """
    return float(_vacuum_densities(_times(t), sp, ((k, q),))[0, 0])


def wtd_point(
    t: float,
    k: Channel,
    q: Channel,
    state: GaussianState,
    sp: SingleParticleSet,
) -> WtdPoint:
    """Single density evaluation carrying its conditioning diagnostic: a curve of one time.

    Points whose condition estimate exceeds COND_THRESHOLD are flagged
    "ill_conditioned".
    """
    return wtd_curve(k, q, state, sp, _times(t)).points[0]


def wtd_density(
    t: float,
    k: Channel,
    q: Channel,
    state: GaussianState,
    sp: SingleParticleSet,
) -> float:
    """Waiting-time density P(t, k | q) for a Gaussian initial state."""
    return wtd_point(t, k, q, state, sp).value


def wtd_density_matrix(t, state: GaussianState, sp: SingleParticleSet) -> np.ndarray:
    """All sixteen densities as (k, q) matrices in CHANNEL_ORDER, at one time or a stack.

    ``t`` is a scalar, giving a (4, 4) matrix, or a 1-D array of n times,
    giving (n, 4, 4); matrix m of a stack equals the call at ``t[m]`` alone
    bitwise.  Columns conditioned on an impossible jump (extraction from an
    empty site, as in the vacuum, or injection into a full one) are zero.
    Sharing the t-dependent blocks across the sixteen entries, and the
    factorizations across the stack, makes this the cheap way to evaluate
    mixtures, column sums and quadrature rounds.
    """
    ts = _times(t)
    order = tuple(sp.channels[label] for label in CHANNEL_ORDER)
    plan, rows, cols = _matrix_plan(order, _boundary_occupations(state))
    out = np.zeros((ts.size, 4, 4))
    out[:, rows, cols] = _clamped(_densities(ts, state, sp, plan)[0])
    return out if np.ndim(t) else out[0]


def wtd_curve(
    k: Channel,
    q: Channel,
    state: GaussianState,
    sp: SingleParticleSet,
    grid,
) -> WtdCurve:
    """Sample the density over a time grid, evaluated as one stack, in grid order.

    Each point is ``wtd_point``'s, bitwise; at large L the blocks of the
    points are built in parallel (see the module's thread policy).
    """
    ts = validate_grid(grid)
    values, cond = _densities(ts, state, sp, _pair_plan(((k, q),), _boundary_occupations(state)))
    points = tuple(_point(float(t), float(v), float(c)) for t, v, c in zip(ts, values[:, 0], cond))
    return WtdCurve(from_channel=q, to_channel=k, points=points, state_kind=state.kind)
