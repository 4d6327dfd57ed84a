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

Starting from the vacuum (C = 0) the densities are analytic:

    P(t, i-|j+) = rate_i- * e^{-Gamma t} * |G_ij|^2
    P(t, i+|j+) = rate_i+ * e^{-Gamma t} * [(Gd G)_jj - |G_ij|^2]

and densities conditioned on an extraction vanish identically.  These need
only the boundary columns G[:, b], O(L^2) per time.

Thread policy.  ``wtd_curve`` evaluates its points on a thread pool, which
is meant to be the only level of parallelism.  The command line pins the
bundled OpenBLAS libraries of numpy and scipy to one thread (``cli.main``),
so BLAS threads never nest under the pool's workers.  Importing or calling
the library never changes the process-wide BLAS setting: library callers
that bypass ``cli.main`` keep their process's setting, and to get the same
behaviour they set ``OPENBLAS_NUM_THREADS=1`` before numpy is first
imported, or cap the threads at run time (for example with threadpoolctl),
otherwise pool workers and BLAS threads contend for the same cores.  The
pool overlaps only code that releases the GIL: numpy's linalg gufuncs (the
Cholesky factorization, ``eig``, ``inv``) and large elementwise operations
do, while scipy's f2py LAPACK wrappers (``zgetrf``, ``zgetrs``, ``zgecon``,
``ztrtrs``, ``zpocon``) hold it.  The per-point factorization of the
eigenbasis form is therefore numpy's; the O(L^2) calls that hold the GIL
come after it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .linalg import (
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


@dataclass(frozen=True)
class _Blocks:
    """Boundary entries, at sites (1, L), of the t-dependent factors of all sixteen densities.

    Each block is a 2 x 2 nested list of Python complex numbers, so the
    sixteen-entry assembly runs on plain scalars.
    """

    T: list  # (G C A^-1 Gd)[b, b]: no-click occupation kernel
    inj_same: list  # ((1-C) A^-1 Gd G)[b, b]: diagonal factor for q = j+
    inj_left: list  # ((1-T) G)[b, b]: left exchange factor for q = j+
    inj_right: list  # ((1-C) A^-1 Gd)[b, b]: right exchange factor for q = j+
    ext_same: list  # (C A^-1)[b, b]: diagonal factor for q = j-
    ext_left: list  # (G C A^-1)[b, b]: left exchange factor for q = j-
    ext_right: list  # (C A^-1 Gd)[b, b]: right exchange factor for q = j-
    c_diag: tuple[float, float]  # real C_jj at the boundary sites
    log_prefactor: float  # -Gamma t + log|det A|
    phase: complex
    cond: float


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
    k_g: list  # (Z V^-1[:, b])^dag P_G V^-1[:, b] as a nested list
    c_diag: tuple[float, float]
    log_det_ratio: float  # log det C - 2 log|det V|
    lu_until: float  # times below this take the LU form (C_MIN_EIGENVALUE)


def _boundary(L: int) -> slice:
    """Index of the two bath sites as a view: slot 0 is site 1, slot 1 is site L."""
    return slice(None, None, L - 1)


def _slot(ch: Channel) -> int:
    return 0 if ch.site == 1 else 1


def _hermitian(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


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
        k_g=(zvinv_b.conj().T @ vinv_g_b).tolist(),
        c_diag=tuple(np.real(np.diagonal(c)[b]).tolist()),
        log_det_ratio=float(np.sum(np.log(occ))) - 2.0 * float(np.linalg.slogdet(v)[1]),
        lu_until=lu_until,
    )


def _eigen_blocks(t: float, e: _Eigenbasis, gamma_total: float) -> _Blocks:
    wt = e.w * t
    grow = np.maximum(wt.real, 0.0)  # log d_b
    inv_db = np.exp(-grow)[:, None]
    ds = np.exp(wt - grow)[:, None]
    ds_bar = ds.conj()
    bmat = e.z * (inv_db * inv_db.T)
    bmat += e.s * (ds_bar * ds.T)
    factor, log_det_b = cholesky_logdet(bmat)
    cond = condition_estimate(factor, float(np.abs(bmat).sum(axis=0).max()))

    # R^-1 [X, Y, U, F] for B = R R^dag: the only solve, eight columns; its
    # Gram matrix holds every quadratic form the blocks need.
    f = ds_bar * (e.s @ (ds * e.vinv_n_b)) - inv_db * e.zvinv_g_b
    cols = np.concatenate((e.vh_b * inv_db, e.vh_b * ds_bar, e.zvinv_b * inv_db, f), axis=1)
    half = half_solve(factor, cols)
    g = (half[:, :6].conj().T @ half).tolist()

    def sub(r: int, c: int) -> list:
        return [[g[r][c], g[r][c + 1]], [g[r + 1][c], g[r + 1][c + 1]]]

    uf = sub(4, 6)
    return _Blocks(
        T=sub(2, 2),
        inj_same=[[e.k_g[i][j] + uf[i][j] for j in (0, 1)] for i in (0, 1)],
        inj_left=sub(2, 4),
        inj_right=sub(4, 2),
        ext_same=sub(0, 0),
        ext_left=sub(2, 0),
        ext_right=sub(0, 2),
        c_diag=e.c_diag,
        log_prefactor=-gamma_total * t + log_det_b + 2.0 * float(grow.sum()) + e.log_det_ratio,
        phase=1.0 + 0.0j,
        cond=cond,
    )


def _lu_blocks(t: float, c: np.ndarray, sp: SingleParticleSet) -> _Blocks:
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
    return _Blocks(
        T=left[:, :2].tolist(),
        inj_same=right[:, 2:4].tolist(),
        inj_left=(g[b, b] - left[:, 2:4]).tolist(),
        inj_right=right[:, :2].tolist(),
        ext_same=c_cols[b, 4:].tolist(),
        ext_left=left[:, 4:].tolist(),
        ext_right=c_cols[b, :2].tolist(),
        c_diag=tuple(np.real(np.diagonal(c)[b]).tolist()),
        log_prefactor=-sp.gamma_total * t + logdet.log_abs,
        phase=logdet.phase,
        cond=cond,
    )


def _state_eigenbasis(state: GaussianState, sp: SingleParticleSet) -> _Eigenbasis | None:
    """The per-state factors, built once per (state, sp) and kept in ``sp.memo``."""
    return sp.memo(state, ("eigenbasis",), lambda: _eigenbasis(state.C, sp))


def _build_blocks(t: float, state: GaussianState, sp: SingleParticleSet) -> _Blocks:
    """The blocks at time t: eigenbasis form where it applies, LU form otherwise."""
    basis = _state_eigenbasis(state, sp)
    if basis is not None and t >= basis.lu_until:
        try:
            return _eigen_blocks(t, basis, sp.gamma_total)
        except NotPositiveDefiniteError:
            pass
    return _lu_blocks(t, state.C, sp)


def _occupation_factor(blocks: _Blocks, q: Channel) -> float:
    """C_jj for q = j-, 1 - C_jj for q = j+: the weight of a click in q."""
    c = blocks.c_diag[_slot(q)]
    return c if q.sign == "-" else 1.0 - c


def _assemble(blocks: _Blocks, t: float, pairs) -> list[tuple[float, str]]:
    """(value, flag) of each (k, q) density in ``pairs`` from one set of blocks.

    Raises :class:`WtdNumericsError` where a click in q is impossible or the
    bracket keeps an imaginary residue.  Densities below zero are clamped
    to 0 and flagged "clamped" (within CLAMP_WINDOW) or "negative".
    """
    scale = math.exp(blocks.log_prefactor)
    t_diag = (blocks.T[0][0], blocks.T[1][1])
    out = []
    for k, q in pairs:
        i, j = _slot(k), _slot(q)
        denom = _occupation_factor(blocks, q)
        if denom <= MIN_OCCUPATION_FACTOR:
            raise WtdNumericsError(
                f"conditioning on channel {q.label} is impossible: occupation factor "
                f"{denom:.3e}; vacuum-like states must use the vacuum path"
            )
        if q.sign == "+":
            diag = blocks.inj_same[j][j]
            cross = blocks.inj_left[i][j] * blocks.inj_right[j][i]
            if k.sign == "-":
                b = diag * t_diag[i] + cross
            else:
                b = diag * (1.0 - t_diag[i]) - cross
        else:
            diag = blocks.ext_same[j][j]
            cross = blocks.ext_left[i][j] * blocks.ext_right[j][i]
            if k.sign == "-":
                b = diag * t_diag[i] - cross
            else:
                b = diag * (1.0 - t_diag[i]) + cross
        rotated = blocks.phase * b
        if abs(rotated.imag) > IMAG_TOL * abs(rotated) + 1e-12:
            raise WtdNumericsError(
                f"imaginary residue {rotated.imag:.3e} in density at "
                f"t={t:.6g}, ({k.label}|{q.label})"
            )
        value = (k.rate / denom) * scale * rotated.real
        flag = ""
        if value < 0.0:
            flag = "clamped" if value >= -CLAMP_WINDOW else "negative"
            value = 0.0
        out.append((value, flag))
    return out


def wtd_density_vacuum(t: float, k: Channel, q: Channel, sp: SingleParticleSet) -> float:
    """Waiting-time density from the empty chain (analytic limit formulas).

    Densities conditioned on an extraction are identically zero: there is
    nothing to extract from the vacuum.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    if q.sign == "-":
        return 0.0
    return _vacuum_entry(_boundary_columns(t, sp), np.exp(-sp.gamma_total * t), k, q)


def _boundary_columns(t: float, sp: SingleParticleSet) -> np.ndarray:
    """G[:, b] = e^{-Qt} applied to the unit vectors of the two bath sites."""
    e = np.zeros((sp.L, 2))
    e[_boundary(sp.L)] = np.eye(2)
    return sp.propagator.apply(t, e)


def _vacuum_entry(g_cols: np.ndarray, decay: float, k: Channel, q: Channel) -> float:
    """Vacuum density of (k | q) from the boundary columns G[:, b] and the decay factor."""
    if q.sign == "-":
        return 0.0
    col = g_cols[:, _slot(q)]
    hop = abs(col[k.site_index]) ** 2
    if k.sign == "-":
        return k.rate * decay * hop
    norm = float(np.real(np.vdot(col, col)))  # (Gd G)_jj
    return max(k.rate * decay * (norm - hop), 0.0)


def wtd_point(
    t: float,
    k: Channel,
    q: Channel,
    state: GaussianState,
    sp: SingleParticleSet,
) -> WtdPoint:
    """Single density evaluation carrying its conditioning diagnostic.

    Points whose condition estimate exceeds COND_THRESHOLD are flagged
    "ill_conditioned".
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    if state.kind == "vacuum":
        return WtdPoint(t, wtd_density_vacuum(t, k, q, sp), 1.0)
    blocks = _build_blocks(t, state, sp)
    ((value, flag),) = _assemble(blocks, t, ((k, q),))
    if blocks.cond > COND_THRESHOLD:
        flag = flag + "," + "ill_conditioned" if flag else "ill_conditioned"
    return WtdPoint(t, value, blocks.cond, flag)


def wtd_density(
    t: float,
    k: Channel,
    q: Channel,
    state: GaussianState,
    sp: SingleParticleSet,
) -> float:
    """Waiting-time density P(t, k | q) for a Gaussian initial state."""
    return wtd_point(t, k, q, state, sp).value


def wtd_density_matrix(
    t: float,
    state: GaussianState,
    sp: SingleParticleSet,
) -> np.ndarray:
    """All sixteen densities at one time, as a (k, q) matrix in CHANNEL_ORDER.

    Columns conditioned on an impossible jump (extraction from an empty
    site, as in the vacuum, or injection into a full one) are zero.  Sharing the t-dependent blocks across the sixteen entries
    makes this the cheap way to evaluate mixtures and column sums.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    ch = sp.channels
    out = np.zeros((4, 4))
    if state.kind == "vacuum":
        g_cols = _boundary_columns(t, sp)
        decay = np.exp(-sp.gamma_total * t)
        for a, kl in enumerate(CHANNEL_ORDER):
            for b, ql in enumerate(CHANNEL_ORDER):
                out[a, b] = _vacuum_entry(g_cols, decay, ch[kl], ch[ql])
        return out
    blocks = _build_blocks(t, state, sp)
    order = [ch[label] for label in CHANNEL_ORDER]
    cells = [
        (a, b)
        for b, q in enumerate(order)
        if _occupation_factor(blocks, q) > MIN_OCCUPATION_FACTOR
        for a in range(4)
    ]
    values = _assemble(blocks, t, [(order[a], order[b]) for a, b in cells])
    for (a, b), (value, _) in zip(cells, values):
        out[a, b] = value
    return out


def wtd_curve(
    k: Channel,
    q: Channel,
    state: GaussianState,
    sp: SingleParticleSet,
    grid,
) -> WtdCurve:
    """Sample the density over a time grid, points evaluated in parallel.

    Points are independent; grids of at least 8 points are distributed over
    a pool of min(4, os.cpu_count()) threads and reassembled in grid order
    (see the module's thread policy), smaller grids or a single core run
    serially.  Each point is ``wtd_point``'s, bitwise.  The propagator and
    the per-state factors are built once, before the pool starts, and shared
    by all workers.
    """
    grid = validate_grid(grid)
    sp.propagator
    if state.kind != "vacuum":
        _state_eigenbasis(state, sp)

    def one(t: float) -> WtdPoint:
        return wtd_point(float(t), k, q, state, sp)

    workers = min(4, os.cpu_count() or 1)
    if workers <= 1 or grid.size < 8:
        points = tuple(one(t) for t in grid)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            points = tuple(pool.map(one, grid))
    return WtdCurve(from_channel=q, to_channel=k, points=points, state_kind=state.kind)
