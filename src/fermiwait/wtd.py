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
exponentiation.  One function (``_assemble``) turns the blocks into the
table of all sixteen densities, and every density is an entry of that
table, so a density matrix and a single density agree bitwise.

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

Fallback.  The LU form -- G, Gd G, A, numpy's ``slogdet`` of A and one
``solve`` for A^{-1} [Gd[:, b], (Gd G)[:, b], 1], whose first six columns
are multiplied by C and the boundary rows of G and 1 - C -- is used

- when the propagator is on its expm fallback near an exceptional point
  (``linalg.PROPAGATOR_COND_MAX``);
- when C has an eigenvalue below ``C_MIN_EIGENVALUE``, until e^{2 g t}
  reaches 1 / ``C_MIN_EIGENVALUE``, g the fastest growth rate of G (for
  all t if no mode grows): the eigenbasis form loses about 1 / min(C)
  units of roundoff there and the LU form about e^{2 g t}, so the LU form
  runs only while its loss stays within what the eigenbasis form is
  trusted with at min(C) = ``C_MIN_EIGENVALUE``;
- when the Cholesky factorization of B refuses the time: a part of a stack
  whose factorization is refused runs again one time at a time, and only
  a time refused alone takes the LU form (``_build_blocks``).

The imaginary-residue check, the clamp window and its flags and the
impossible-click rejection are the same on both forms.  ``cond_estimate``
of a point is the 1-norm condition number of the matrix factorized for it:
on the eigenbasis form that of B, exact up to
``linalg.BATCHED_SOLVE_MAX_SITES`` sites and LAPACK's estimate from below
(``zpocon``) above; on the LU form the exact ||A||_1 ||A^-1||_1, from the
identity columns of its one solve.

Stacks of times.  Every density runs through one evaluator
(``_densities``) on a 1-D array of n times, which returns the (n, 4, 4)
table: ``wtd_density_matrix`` takes one time or such a stack and returns a
(4, 4) or an (n, 4, 4) array, matrix m of a stack equal to the call at t[m]
alone bitwise; ``wtd_curve`` reads entry (k, q) of one stack of the whole
grid, and ``wtd_density`` is the curve of one time.  On the eigenbasis form
the B matrices and right-hand sides of a part of the stack are built as
(n, L, L) and (n, L, 8) arrays and handed to one call,
``linalg.cholesky_half_solve``.  Up to ``linalg.BATCHED_SOLVE_MAX_SITES``
sites it makes one batched Cholesky factorization of the part, one batched
inverse of the factors, one batched product with the eight columns and the
exact condition number from the inverse, with no step per time.  Above, it
makes one loop over the times: LAPACK ``zpotrf`` factorizes a copy of each
B in place, and on that factor ``ztrtrs`` makes the eight-column
triangular solve and ``zpocon`` the condition estimate.  numpy has no
batched triangular solve, and a row-by-row batched substitution is as fast
on stacks but costs one Python step per row, which a single time pays in
full, while the inverse has no row loop; above the batched sizes numpy's
Cholesky is slower than ``zpotrf`` in place, because it copies each matrix
into and out of a scratch buffer.  The path is chosen from L alone.
The Gram blocks and the assembly of the densities are batched as well.
Every time on the LU form is its own part.  A part that the factorization
refuses is evaluated again one time at a time, and a time refused
alone takes the LU form, so only the refused times leave the eigenbasis
form.  One part holds at most ``STACK_BYTES`` of L x L matrices, so a
quadrature round at L = 200-400 does not grow the memory.

Starting from the vacuum (C = 0), A = 1: T and the three extraction blocks
vanish, and the injection blocks are (Gd G)[b, b], G[b, b] and Gd[b, b].
These need only the boundary columns G[:, b]; on the eigen-propagator a
whole stack is V (e^{w t} o V^-1[:, b]) in one product, on the expm
fallback one propagator per time.  Through the same assembly they give

    P(t, i-|j+) = rate_i- * e^{-Gamma t} * |G_ij|^2
    P(t, i+|j+) = rate_i+ * e^{-Gamma t} * [(Gd G)_jj - |G_ij|^2]

and densities conditioned on an extraction are zero, as the extraction
columns of every state whose boundary site is empty.

Thread policy.  The one place a thread starts is the pool of
``_build_blocks``, which runs over the parts of a stack: from
``POOL_MIN_SITES`` sites on, with more than one part, on min(4, CPUs, parts)
threads, the calling thread among them, where CPUs counts those the
process may run on (its affinity set where the platform reports one, else
``os.cpu_count()``).  The pool is plain ``threading`` (``_map_on_threads``):
each thread claims the next part, results are stored by part, and the
error of the lowest failing part is raised on the calling thread once every
thread has been joined, the error that running the parts in order raises.
With one CPU, or below that size, no thread starts, and setup (the
single-particle set, the initial state, the propagator) always runs on
the calling thread.  Everything the tasks share is built before
the pool starts.  The command line pins numpy's bundled OpenBLAS, the one
BLAS and LAPACK of the package (``linalg.OPENBLAS``), to one thread: before
the library loads when it can (importing ``cli`` before numpy sets
``OPENBLAS_NUM_THREADS=1``, so OpenBLAS never starts a worker thread), and
in ``cli.main`` always.  So BLAS threads never nest under the pool's.  It
also keeps freed memory in the heap (``cli._keep_freed_memory``), so the
workers do not fault their temporaries' pages in afresh at every part.
With one BLAS thread the pooled blocks are bitwise those of running the
tasks in order.  The library never changes the BLAS setting; while BLAS
runs on more than one thread (``linalg.blas_threads``) the pool does not
start, so a library caller gets BLAS's threads or the pool's, never both.
``linalg.set_blas_threads(1)`` gives it the command line's choice, and
``MALLOC_MMAP_THRESHOLD_=33554432`` and ``MALLOC_TRIM_THRESHOLD_=67108864``
in the environment before the process starts give it the command line's
allocator thresholds.
Threads overlap only code that releases the GIL: numpy's linalg gufuncs
(the batched Cholesky factorization, ``inv``, ``slogdet``, ``solve``),
matrix products, large elementwise operations and every LAPACK call of
``linalg`` do, the per-time ``zpotrf``, ``ztrtrs`` and ``zpocon`` calls
included, since ctypes releases the GIL for each call.  What holds it is
the Python between those calls.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, fields

import numpy as np

from .linalg import NotPositiveDefiniteError, blas_threads, checked_slogdet, cholesky_half_solve
from .model import (
    CHANNEL_ORDER,
    MIN_OCCUPATION_FACTOR,
    Channel,
    GaussianState,
    SingleParticleSet,
    can_click,
    occupation_factor,
)

#: Roundoff window: densities above -CLAMP_WINDOW are clamped to zero.
CLAMP_WINDOW = 1e-12

#: Relative imaginary residue allowed before the result is rejected.
IMAG_TOL = 1e-9

#: 1-norm condition number of the factorized matrix (B or A) above which
#: points are flagged.  It is exact for A and for B up to
#: ``linalg.BATCHED_SOLVE_MAX_SITES`` sites, and LAPACK's estimate, a lower
#: bound, for B above.
COND_THRESHOLD = 1e12

#: Smallest eigenvalue of C from which the eigenbasis kernel is used at
#: every time.  Below it cond(B) grows like 1 / min(C) and the blocks lose
#: about that many units of roundoff, while the LU form loses about
#: e^{2 g t}, g the fastest growth rate of G: such a state takes the LU form
#: until e^{2 g t} reaches 1 / C_MIN_EIGENVALUE, the loss trusted for the
#: eigenbasis form, and for all t when no mode grows.
#: Eigenvalues near 1 need no fallback: B stays positive definite, and for
#: C = 1 (both baths full) only the eigenbasis form survives the growth.
C_MIN_EIGENVALUE = 1e-3

#: Bytes of the L x L complex matrices (for the vacuum, of the L x 2
#: boundary columns) that one stack of times holds at once.  Longer stacks
#: are evaluated in parts, so memory does not grow with the stack: 128 KiB
#: is 2048 two-site matrices, 20 at L = 20 and one from L = 65 on.  Larger
#: parts gain nothing: once the batched elementwise work leaves the cache
#: it costs more per time than one time alone.
STACK_BYTES = 1 << 17

#: Smallest chain whose block build (``_build_blocks``) runs on a pool.
#: Below it the Python between the LAPACK calls, which holds the GIL, eats
#: what the pool overlaps.  Milliseconds per time of a 64-time stack (32 at
#: L = 800) from the steady state with f1 = 1 and fL = 0, pooled vs serial
#: on two cores and one BLAS thread, median of 3, in each of two runs:
#:
#:     L     pooled       serial
#:     64    0.32, 0.30   0.38, 0.22
#:     96    0.61, 0.46   0.69, 0.44
#:     128   0.81, 0.58   1.09, 0.79
#:     200   1.51, 1.09   2.50, 1.65
#:     400   4.15, 4.61   7.99, 7.66
#:     800   23.0, 20.8   37.9, 40.5
#:
#: From 128 on the pool wins every run, below it one of two.  On the
#: ``curve_L200`` config end to end, five fresh processes each, the pool
#: took 0.197-0.204 s against 0.235-0.260 s, at 45.6-45.8 MB peak RSS
#: against 43.0-43.1 MB.
POOL_MIN_SITES = 128

DEFAULT_GRID_POINTS = 400


class WtdNumericsError(Exception):
    """The closed-form evaluation lost its real-valuedness or solvability."""


@dataclass(frozen=True)
class WtdPoint:
    """One sampled density value with its conditioning diagnostic.

    ``flag`` is empty for a clean point, otherwise a comma-joined list of
    "clamped" (tiny negative rounded up to 0), "negative" (clamp window
    exceeded) and/or "ill_conditioned" (``cond_estimate``, the 1-norm
    condition number of the matrix factorized for the point, above
    COND_THRESHOLD).  For B on the eigenbasis form it is exact up to
    ``linalg.BATCHED_SOLVE_MAX_SITES`` sites and LAPACK's lower-bound
    estimate above; for A on the LU form it is exact.
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


def validate_times(t, grid: bool = False) -> np.ndarray:
    """A scalar or 1-D array of times as a 1-D float array, each finite and t >= 0.

    A curve's grid (``grid=True``) must also be nonempty and strictly
    increasing.
    """
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError("times must be a scalar or a 1-D array")
    ts = ts.reshape(-1)
    if not np.isfinite(ts).all():
        raise ValueError("times must be finite")
    if (ts < 0).any():
        raise ValueError("times must be nonnegative (t >= 0)")
    if grid and ts.size == 0:
        raise ValueError("time grid must be nonempty")
    if grid and (ts[1:] <= ts[:-1]).any():
        raise ValueError("time grid must be strictly increasing")
    return ts


def default_time_grid(
    sp: SingleParticleSet, points: int = DEFAULT_GRID_POINTS, t_max: float | None = None
) -> np.ndarray:
    """Uniform grid covering both the bath decay and ballistic traversal scales.

    t_max defaults to max(20 / Gamma, 4 L / J_eff) with J_eff the largest
    off-diagonal magnitude of the spec's h.
    """
    if t_max is None:
        candidates = []
        if sp.gamma_total > 0:
            candidates.append(20.0 / sp.gamma_total)
        j_eff = float(np.max(np.abs(sp.spec.h - np.diag(np.diagonal(sp.spec.h)))))
        if j_eff > 0:
            candidates.append(4.0 * sp.L / j_eff)
        if not candidates:
            raise ValueError(
                "cannot pick a default horizon: no injection decay rate and no hopping"
            )
        t_max = max(candidates)
    if not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max must be finite and positive, got {t_max}")
    if points < 2:
        raise ValueError("grid needs at least 2 points")
    return np.linspace(0.0, t_max, points)


#: The seven 2 x 2 blocks of ``_Blocks.m``, each the boundary entries [b, b]:
#: T = G C A^-1 Gd, the no-click occupation kernel; for q = j+ the diagonal
#: factor (1-C) A^-1 Gd G and the exchange factors (1-T) G (left) and
#: (1-C) A^-1 Gd (right); for q = j- the diagonal factor C A^-1 and the
#: exchange factors G C A^-1 (left) and C A^-1 Gd (right).
_T, _INJ_SAME, _INJ_LEFT, _INJ_RIGHT, _EXT_SAME, _EXT_LEFT, _EXT_RIGHT = range(7)


@dataclass(frozen=True, eq=False)
class _Blocks:
    """Boundary entries, at sites (1, L), of the t-dependent factors of all sixteen densities.

    One entry per time of a stack of n times, so the sixteen-entry assembly
    runs on the whole stack: ``m[:, X]`` is the (n, 2, 2) block X of
    ``_T`` ... ``_EXT_RIGHT``.
    """

    m: np.ndarray  # (n, 7, 2, 2) complex
    log_prefactor: np.ndarray  # (n,): -Gamma t + log|det A|
    phase: np.ndarray  # (n,) complex
    cond: np.ndarray  # (n,) 1-norm condition, exact or LAPACK's estimate (COND_THRESHOLD)


@dataclass(frozen=True, eq=False)
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


def _hermitian(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _chunks(n: int, bytes_per_time: int) -> list[slice]:
    """Split a stack of n times into parts of at most STACK_BYTES (at least one time each)."""
    step = max(1, STACK_BYTES // bytes_per_time)
    return [slice(start, start + step) for start in range(0, n, step)]


def _eigenbasis(state: GaussianState, sp: SingleParticleSet) -> _Eigenbasis | None:
    """The per-state factors, from the state's own decomposition of C, or None for the fallback."""
    eig = sp.propagator.eig
    if eig is None:
        return None
    w, v, vinv = eig
    occ, u = state.eig
    growth = max(float(w.real.max()), 0.0)
    lu_until = 0.0
    if occ[0] < C_MIN_EIGENVALUE:
        if occ[0] <= 0.0 or growth == 0.0:
            return None
        lu_until = -math.log(C_MIN_EIGENVALUE) / (2.0 * growth)
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


def _gram_index() -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the Gram matrix that hold each block, in ``_Blocks.m`` order."""
    corners = ((2, 2), (4, 6), (2, 4), (4, 2), (0, 0), (2, 0), (0, 2))
    rows = np.array([[[r, r], [r + 1, r + 1]] for r, _ in corners])
    cols = np.array([[[c, c + 1], [c, c + 1]] for _, c in corners])
    return rows, cols


_GRAM_ROWS, _GRAM_COLS = _gram_index()


def _eigen_blocks(ts: np.ndarray, e: _Eigenbasis, gamma_total: float) -> _Blocks:
    """The blocks at the times ``ts`` on the eigenbasis form.

    The B matrices of all the times go to one ``cholesky_half_solve`` call,
    which raises :class:`NotPositiveDefiniteError` if it refuses any of them.
    """
    wt = ts[:, None] * e.w
    grow = np.maximum(wt.real, 0.0)  # log d_b
    inv_db = np.exp(-grow)[:, :, None]
    ds = np.exp(wt - grow)[:, :, None]
    ds_bar = ds.conj()
    bmat = e.z * (inv_db * inv_db.transpose(0, 2, 1))
    bmat += e.s * (ds_bar * ds.transpose(0, 2, 1))

    # R^-1 [X, Y, U, F] for B = R R^dag: the only solve, eight columns; its
    # Gram matrix holds every quadratic form the blocks need.
    f = ds_bar * (e.s @ (ds * e.vinv_n_b)) - inv_db * e.zvinv_g_b
    cols = np.concatenate((e.vh_b * inv_db, e.vh_b * ds_bar, e.zvinv_b * inv_db, f), axis=2)
    half, log_det_b, cond = cholesky_half_solve(bmat, cols)
    gram = half[:, :, :6].conj().transpose(0, 2, 1) @ half
    m = gram[:, _GRAM_ROWS, _GRAM_COLS]
    m[:, _INJ_SAME] += e.k_g
    return _Blocks(
        m=m,
        log_prefactor=-gamma_total * ts + log_det_b + 2.0 * grow.sum(axis=1) + e.log_det_ratio,
        phase=np.ones(ts.size, dtype=complex),
        cond=cond,
    )


def _lu_blocks(t: float, c: np.ndarray, sp: SingleParticleSet) -> _Blocks:
    """The blocks at one time on the LU form, as a stack of one."""
    b = _boundary(sp.L)
    g = sp.propagator.matrix(t)
    gd = g.conj().T
    gdg = gd @ g
    eye = np.eye(sp.L)
    one_minus_c = eye - c
    a = gdg @ c
    a += one_minus_c
    sign, log_abs = checked_slogdet(a, f"A of the LU form at t={t:.6g}")

    # A^-1 [Gd[:, b], (Gd G)[:, b], 1]: the only solve.  Its last L columns
    # are A^-1, for the exact condition number.
    x = np.linalg.solve(a, np.hstack((gd[:, b], gdg[:, b], eye)))
    a_inv = x[:, 4:]
    cond = np.abs(a).sum(axis=0).max() * np.abs(a_inv).sum(axis=0).max()
    cols = np.hstack((x[:, :4], a_inv[:, b]))  # A^-1 [Gd, Gd G, 1][:, b]
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
    return _Blocks(
        m=np.stack(m)[None],
        log_prefactor=np.array([-sp.gamma_total * t + log_abs]),
        phase=np.array([sign]),
        cond=np.array([cond]),
    )


def _vacuum_blocks(ts: np.ndarray, sp: SingleParticleSet) -> _Blocks:
    """The blocks at the times ``ts`` from the vacuum, from the boundary columns of G alone.

    With C = 0, A = 1: T and the three extraction blocks are 0, and the
    injection blocks are (Gd G)[b, b], G[b, b] and Gd[b, b].
    """
    g = _boundary_columns(ts, sp)
    g_b = g[:, _boundary(sp.L)]
    m = np.zeros((ts.size, 7, 2, 2), dtype=complex)
    m[:, _INJ_SAME] = g.conj().transpose(0, 2, 1) @ g
    m[:, _INJ_LEFT] = g_b
    m[:, _INJ_RIGHT] = g_b.conj().transpose(0, 2, 1)
    return _Blocks(
        m=m,
        log_prefactor=-sp.gamma_total * ts,
        phase=np.ones(ts.size, dtype=complex),
        cond=np.ones(ts.size),
    )


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform reports one, else all."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_on_threads(fn, tasks: list, workers: int) -> list:
    """``[fn(task) for task in tasks]`` on the calling thread and ``workers - 1`` more.

    Each of them claims the next unclaimed task, in order, until none is
    left or a task has raised, and stores its result at the task's index.
    Every thread is joined before this returns or raises.  The error of the
    lowest failing task is raised on the calling thread: every task before
    it was claimed before it and ran, so it is the error that running the
    tasks in order raises.
    """
    results = [None] * len(tasks)
    errors = {}
    claims = iter(range(len(tasks)))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                i = None if errors else next(claims, None)
            if i is None:
                return
            try:
                results[i] = fn(tasks[i])
            except BaseException as exc:
                with lock:
                    errors[i] = exc

    threads = [threading.Thread(target=work, name=f"fermiwait-blocks-{k}") for k in range(1, workers)]
    try:
        for thread in threads:
            thread.start()
        work()
    finally:
        for thread in threads:
            if thread.is_alive():
                thread.join()
    if errors:
        raise errors[min(errors)]
    return results


def _build_blocks(ts: np.ndarray, state: GaussianState, sp: SingleParticleSet) -> _Blocks:
    """The blocks at every time of the nonempty stack ``ts``, from one task per part.

    From the vacuum, a part is at most STACK_BYTES of boundary columns.
    Otherwise the eigenbasis times (``_Eigenbasis.lu_until``) are split into
    parts of at most STACK_BYTES of L x L matrices, and every other time is
    a part of its own on the LU form.  A part whose Cholesky factorization
    is refused runs again through the same task one time at a time, and a
    single refused time takes the LU form.  With more than one part, from
    POOL_MIN_SITES sites on and while BLAS runs on one thread, the tasks run
    on min(4, CPUs available, tasks) threads (``_map_on_threads``), after
    what they share (the propagator, the per-state factors) is built here;
    the blocks are bitwise the same, and so is the error a failing task
    raises.
    """
    sp.propagator  # read by every task: built on this thread, never by a worker
    vacuum = state.kind == "vacuum"
    if vacuum:
        tasks = [np.arange(ts.size)[part] for part in _chunks(ts.size, 32 * sp.L)]
    else:
        basis = sp.memo(state, lambda: _eigenbasis(state, sp))
        on_eig = np.zeros(ts.size, dtype=bool) if basis is None else ts >= basis.lu_until
        eig = np.flatnonzero(on_eig)
        tasks = [eig[part] for part in _chunks(eig.size, 16 * sp.L**2)]
        tasks += [np.array([i]) for i in np.flatnonzero(~on_eig)]

    def run(idx: np.ndarray) -> list[tuple[np.ndarray, _Blocks]]:
        """(indices into ts, blocks at those times) of one task."""
        if vacuum:
            return [(idx, _vacuum_blocks(ts[idx], sp))]
        if on_eig[idx[0]]:
            try:
                return [(idx, _eigen_blocks(ts[idx], basis, sp.gamma_total))]
            except NotPositiveDefiniteError:
                if idx.size > 1:
                    return [piece for i in idx for piece in run(np.array([i]))]
        return [(idx, _lu_blocks(float(ts[idx[0]]), state.C, sp))]

    pooled = len(tasks) > 1 and sp.L >= POOL_MIN_SITES and blas_threads() <= 1
    workers = min(4, _available_cpus(), len(tasks)) if pooled else 1
    done = _map_on_threads(run, tasks, workers) if workers > 1 else [run(idx) for idx in tasks]
    pieces = [piece for task in done for piece in task]
    if len(pieces) == 1:
        return pieces[0][1]  # one piece of every time, in order
    merged = {}
    for field in fields(_Blocks):
        first = getattr(pieces[0][1], field.name)
        merged[field.name] = np.empty((ts.size, *first.shape[1:]), dtype=first.dtype)
        for idx, blocks in pieces:
            merged[field.name][idx] = getattr(blocks, field.name)
    return _Blocks(**merged)


def _entry_index() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each of the sixteen densities reads the blocks, and how it combines them.

    Entry [a, b] is (k | q) = (CHANNEL_ORDER[a] | CHANNEL_ORDER[b]).  Entry
    [r, a, b] of the (4, 4, 4) index is the flat index into a time's seven
    blocks (``_Blocks.m`` as 28 numbers) of T[i, i] (r = 0), the diagonal
    factor [j, j] (r = 1) and the left [i, j] (r = 2) and right [j, i]
    (r = 3) exchange factors of q's sign, i and j the slots of k and q.
    ``k_minus`` (4, 4): k is an extraction, so the bracket takes T, else
    1 - T; ``plus_cross`` (4, 4): the exchange term enters with a plus sign.
    """
    slot = {label: 0 if label.startswith("1") else 1 for label in CHANNEL_ORDER}
    index, k_minus, q_plus = [], [], []
    for kl in CHANNEL_ORDER:
        for ql in CHANNEL_ORDER:
            i, j, inj = slot[kl], slot[ql], ql.endswith("+")
            index.append(
                [
                    (_T, i, i),
                    (_INJ_SAME if inj else _EXT_SAME, j, j),
                    (_INJ_LEFT if inj else _EXT_LEFT, i, j),
                    (_INJ_RIGHT if inj else _EXT_RIGHT, j, i),
                ]
            )
            k_minus.append(kl.endswith("-"))
            q_plus.append(inj)
    index = np.array(index).reshape(4, 4, 4, 3).transpose(3, 2, 0, 1)
    entries = np.ravel_multi_index(tuple(index), (7, 2, 2))
    k_minus = np.array(k_minus).reshape(4, 4)
    return entries, k_minus, k_minus == np.array(q_plus).reshape(4, 4)


_ENTRIES, _K_MINUS, _PLUS_CROSS = _entry_index()


def _assemble(
    blocks: _Blocks, ts: np.ndarray, sp: SingleParticleSet, c_diag: tuple[float, float]
) -> np.ndarray:
    """All sixteen densities at every time, (n, 4, 4) in CHANNEL_ORDER, before clamping.

    The rates are those of ``sp.channels``.  Column q is 0 wherever q's
    occupation factor (from the boundary occupations ``c_diag``) is at or
    below MIN_OCCUPATION_FACTOR, the occupation half of ``model.can_click``.
    Raises :class:`WtdNumericsError` where an entry of a column whose q can
    click (``model.can_click``) keeps an imaginary residue: for the first
    time of the stack with a failing entry, and its first failing entry,
    the error a call with that time alone raises.  A column whose q cannot
    click (rate 0) keeps its values unchecked: no density of the chain is
    conditioned on a click that never happens.  Values below zero are left
    to the caller, which clamps them to 0 (``_clamped``) and may flag them
    (``_clamp_flag``).
    """
    order = [sp.channels[label] for label in CHANNEL_ORDER]
    rates = np.array([k.rate for k in order])
    denom = np.array([occupation_factor(q, c_diag) for q in order])
    possible = denom > MIN_OCCUPATION_FACTOR
    clicks = np.array([can_click(q, factor) for q, factor in zip(order, denom)])
    coef = np.divide(rates[:, None], denom, out=np.zeros((4, 4)), where=possible)

    entries = blocks.m.reshape(ts.size, 28)[:, _ENTRIES]
    t_diag, diag, left, right = entries.transpose(1, 0, 2, 3)
    cross = left * right
    bracket = diag * np.where(_K_MINUS, t_diag, 1.0 - t_diag)
    bracket = np.where(_PLUS_CROSS, bracket + cross, bracket - cross)
    rotated = blocks.phase[:, None, None] * bracket
    bad = clicks & (np.abs(rotated.imag) > IMAG_TOL * np.abs(rotated) + 1e-12)
    if bad.any():
        n0, a, b = np.argwhere(bad)[0]
        raise WtdNumericsError(
            f"imaginary residue {rotated[n0, a, b].imag:.3e} in density at "
            f"t={ts[n0]:.6g}, ({CHANNEL_ORDER[a]}|{CHANNEL_ORDER[b]})"
        )
    values = coef * np.exp(blocks.log_prefactor)[:, None, None] * rotated.real
    return np.where(possible, values, 0.0)


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
    reads the columns of one propagator matrix per time.
    """
    b = _boundary(sp.L)
    eig = sp.propagator.eig
    if eig is None:
        return np.stack([sp.propagator.matrix(float(t))[:, b] for t in ts])
    e = np.zeros((sp.L, 2))
    e[b] = np.eye(2)
    w, v, vinv = eig
    cols = v @ (np.exp(ts[:, None] * w)[:, :, None] * vinv[:, b])
    cols[ts == 0.0] = e
    return cols


def _densities(
    ts: np.ndarray, state: GaussianState, sp: SingleParticleSet
) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 4, 4) table of every density at every time, before clamping, and (n,) conditions.

    The one evaluator behind every density: the blocks of the whole stack
    (``_build_blocks``) assembled at once (``_assemble``).
    """
    if state.L != sp.L:
        raise ValueError(f"state has {state.L} sites, the single-particle set {sp.L}")
    if ts.size == 0:
        return np.zeros((0, 4, 4)), np.zeros(0)
    blocks = _build_blocks(ts, state, sp)
    return _assemble(blocks, ts, sp, state.boundary_occupations), blocks.cond


def _point(t: float, value: float, cond: float) -> WtdPoint:
    """The point of an assembled density: clamped, and flagged by its value and condition."""
    flag = _clamp_flag(value)
    if cond > COND_THRESHOLD:
        flag = flag + "," + "ill_conditioned" if flag else "ill_conditioned"
    return WtdPoint(t, max(value, 0.0), cond, flag)


def wtd_density(
    t: float,
    k: Channel,
    q: Channel,
    state: GaussianState,
    sp: SingleParticleSet,
) -> float:
    """Waiting-time density P(t, k | q) for a Gaussian initial state: the curve of one time."""
    return wtd_curve(k, q, state, sp, [t]).points[0].value


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
    out = _clamped(_densities(validate_times(t), state, sp)[0])
    return out if np.ndim(t) else out[0]


def wtd_curve(
    k: Channel,
    q: Channel,
    state: GaussianState,
    sp: SingleParticleSet,
    grid,
) -> WtdCurve:
    """Sample the density over a time grid: entry (k, q) of one stack, in grid order.

    The rates of k and q are read from ``sp.channels`` by label.  Each point
    is that of a curve of its time alone, bitwise; points whose condition
    estimate exceeds COND_THRESHOLD are flagged "ill_conditioned".  At
    large L the blocks of the points are built in parallel (see the
    module's thread policy).  Conditioning on a q that cannot click from a
    state other than the vacuum raises :class:`WtdNumericsError`; from the
    vacuum, densities conditioned on an extraction are zero.
    """
    ts = validate_times(grid, grid=True)
    factor = occupation_factor(q, state.boundary_occupations)
    if state.kind != "vacuum" and factor <= MIN_OCCUPATION_FACTOR:
        raise WtdNumericsError(
            f"conditioning on channel {q.label} is impossible: occupation factor "
            f"{factor:.3e}; vacuum-like states must use the vacuum path"
        )
    table, cond = _densities(ts, state, sp)
    values = table[:, CHANNEL_ORDER.index(k.label), CHANNEL_ORDER.index(q.label)]
    points = tuple(_point(float(t), float(v), float(c)) for t, v, c in zip(ts, values, cond))
    return WtdCurve(from_channel=q, to_channel=k, points=points, state_kind=state.kind)
