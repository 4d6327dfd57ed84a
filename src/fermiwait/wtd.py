"""Closed-form waiting-time densities between jump clicks.

The density for a click in channel k a time t after a click in channel q,
starting from a Gaussian state with covariance C, reduces to L x L matrix
algebra built from G = e^{-Qt} and the state.  Writing Gd = G^dag, all
sixteen (k, q) densities are assembled from the single well-conditioned
system matrix

    A = (1 - C) + Gd G C

whose determinant equals the determinant-ratio prefactor
det(1 + e^{-Qt} e^{-M} e^{-Q^dag t}) / det(1 + e^{-M}) exactly, and whose
inverse yields the occupation kernel T = G C A^{-1} Gd of the no-click
propagation.  Growing exponentials e^{+Qt} never appear: every block where
the algebra formally contains them has been rewritten so that only decaying
factors and C survive (e.g. e^{M} e^{Qt} T e^{-Qt} = (1-C) A^{-1} Gd G).
The scalar prefactor combines exp(-Gamma t) and det(A) in log space before
a single exponentiation.

Boundary-only blocks.  The channels act on the bath sites b = (1, L) only,
so a density reads nothing but the 2 x 2 boundary entries of seven blocks
(``_Blocks``).  Per time the O(L^3) work is G, Gd G, A and one LU of A with
its condition estimate.  Every block then follows in O(L^2) from one
six-column solve, A^{-1} [Gd, Gd G, 1][:, b], multiplied by C and by the
boundary rows of G and 1 - C, in the order of the full L x L formulas.

Shared propagator.  G comes from ``SingleParticleSet.propagator``: one
eigendecomposition of Q per single-particle set, reused by every point,
density matrix and curve, with the expm fallback of
:class:`~fermiwait.linalg.Propagator` near exceptional points.  The Fock
oracle uses the same class with the same threshold.

Starting from the vacuum (C = 0) the densities are analytic:

    P(t, i-|j+) = rate_i- * e^{-Gamma t} * |G_ij|^2
    P(t, i+|j+) = rate_i+ * e^{-Gamma t} * [(Gd G)_jj - |G_ij|^2]

and densities conditioned on an extraction vanish identically.  These need
only the boundary columns G[:, b], O(L^2) per time.

Thread policy.  ``wtd_curve`` evaluates its points on a thread pool, which
is the only level of parallelism: the command line pins the bundled
OpenBLAS to one thread (``cli.main``), so BLAS threads never nest under the
pool's workers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .linalg import condition_estimate, lu_logdet, solve_factored
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

#: Condition estimate of the T solve above which points are flagged.
COND_THRESHOLD = 1e12

#: Occupation factor (C_jj for q = j-, 1 - C_jj for q = j+) at or below
#: which a click in q is impossible and densities conditioned on it are
#: undefined.
MIN_OCCUPATION_FACTOR = 1e-14

DEFAULT_GRID_POINTS = 400


class WtdNumericsError(Exception):
    """The closed-form evaluation lost its real-valuedness or solvability."""


@dataclass(frozen=True)
class WtdPoint:
    """One sampled density value with its conditioning diagnostic.

    ``flag`` is empty for a clean point, otherwise a comma-joined list of
    "clamped" (tiny negative rounded up to 0), "negative" (clamp window
    exceeded) and/or "ill_conditioned" (T solve condition estimate above
    threshold).
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

    @property
    def flags(self) -> list[str]:
        return [p.flag for p in self.points]


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
    """Boundary entries, at sites (1, L), of the t-dependent factors of all sixteen densities."""

    T: np.ndarray  # (G C A^-1 Gd)[b, b]: no-click occupation kernel
    inj_same: np.ndarray  # ((1-C) A^-1 Gd G)[b, b]: diagonal factor for q = j+
    inj_left: np.ndarray  # ((1-T) G)[b, b]: left exchange factor for q = j+
    inj_right: np.ndarray  # ((1-C) A^-1 Gd)[b, b]: right exchange factor for q = j+
    ext_same: np.ndarray  # (C A^-1)[b, b]: diagonal factor for q = j-
    ext_left: np.ndarray  # (G C A^-1)[b, b]: left exchange factor for q = j-
    ext_right: np.ndarray  # (C A^-1 Gd)[b, b]: right exchange factor for q = j-
    c_diag: np.ndarray  # real C_jj at the boundary sites
    log_prefactor: float  # -Gamma t + log|det A|
    phase: complex
    cond: float


def _boundary(L: int) -> slice:
    """Index of the two bath sites as a view: slot 0 is site 1, slot 1 is site L."""
    return slice(None, None, L - 1)


def _slot(ch: Channel) -> int:
    return 0 if ch.site == 1 else 1


def _build_blocks(t: float, c: np.ndarray, sp: SingleParticleSet) -> _Blocks:
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
        T=left[:, :2],
        inj_same=right[:, 2:4],
        inj_left=g[b, b] - left[:, 2:4],
        inj_right=right[:, :2],
        ext_same=c_cols[b, 4:],
        ext_left=left[:, 4:],
        ext_right=c_cols[b, :2],
        c_diag=np.real(np.diagonal(c)[b]),
        log_prefactor=-sp.gamma_total * t + logdet.log_abs,
        phase=logdet.phase,
        cond=cond,
    )


def _bracket(blocks: _Blocks, k: Channel, q: Channel) -> tuple[complex, float]:
    """Bracketed matrix-element combination and the conditioning denominator."""
    i, j = _slot(k), _slot(q)
    if q.sign == "+":
        denom = 1.0 - blocks.c_diag[j]
        diag = blocks.inj_same[j, j]
        cross = blocks.inj_left[i, j] * blocks.inj_right[j, i]
        if k.sign == "-":
            b = diag * blocks.T[i, i] + cross
        else:
            b = diag * (1.0 - blocks.T[i, i]) - cross
    else:
        denom = float(blocks.c_diag[j])
        diag = blocks.ext_same[j, j]
        cross = blocks.ext_left[i, j] * blocks.ext_right[j, i]
        if k.sign == "-":
            b = diag * blocks.T[i, i] - cross
        else:
            b = diag * (1.0 - blocks.T[i, i]) + cross
    return b, denom


def _finish(b: complex, denom: float, rate: float, blocks: _Blocks, t, k, q):
    if denom <= MIN_OCCUPATION_FACTOR:
        raise WtdNumericsError(
            f"conditioning on channel {q.label} is impossible: occupation factor "
            f"{denom:.3e}; vacuum-like states must use the vacuum path"
        )
    rotated = blocks.phase * b
    if abs(rotated.imag) > IMAG_TOL * abs(rotated) + 1e-12:
        raise WtdNumericsError(
            f"imaginary residue {rotated.imag:.3e} in density at "
            f"t={t:.6g}, ({k.label}|{q.label})"
        )
    value = (rate / denom) * np.exp(blocks.log_prefactor) * rotated.real
    flag = ""
    if value < 0.0:
        flag = "clamped" if value >= -CLAMP_WINDOW else "negative"
        value = 0.0
    return value, flag


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
    blocks = _build_blocks(t, state.C, sp)
    b, denom = _bracket(blocks, k, q)
    value, flag = _finish(b, denom, k.rate, blocks, t, k, q)
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
    blocks = _build_blocks(t, state.C, sp)
    for a, kl in enumerate(CHANNEL_ORDER):
        for b, ql in enumerate(CHANNEL_ORDER):
            br, denom = _bracket(blocks, ch[kl], ch[ql])
            if denom <= MIN_OCCUPATION_FACTOR:  # the impossible click _finish rejects
                continue
            out[a, b], _ = _finish(br, denom, ch[kl].rate, blocks, t, ch[kl], ch[ql])
    return out


def wtd_curve(
    k: Channel,
    q: Channel,
    state: GaussianState,
    sp: SingleParticleSet,
    grid,
    max_workers: int | None = None,
) -> WtdCurve:
    """Sample the density over a time grid, points evaluated in parallel.

    Points are independent; they are distributed over a thread pool (the
    heavy kernels release the GIL) and reassembled in grid order.  The
    propagator is built once, before the pool starts.
    """
    grid = validate_grid(grid)
    sp.propagator  # built here, before the workers start, and shared by all of them

    def one(t: float) -> WtdPoint:
        return wtd_point(float(t), k, q, state, sp)

    if max_workers is None:
        import os

        max_workers = min(4, os.cpu_count() or 1)
    if max_workers <= 1 or grid.size < 8:
        points = tuple(one(t) for t in grid)
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            points = tuple(pool.map(one, grid))
    return WtdCurve(from_channel=q, to_channel=k, points=points, state_kind=state.kind)
