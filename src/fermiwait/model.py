"""Physical model construction for a fermionic chain driven at both ends.

A chain of L sites with quadratic Hamiltonian sum_ij h_ij c_i^dag c_j is
coupled to particle baths at sites 1 and L.  Bath i injects with rate
gamma_i * f_i and extracts with rate gamma_i * (1 - f_i).  The closed-form
machinery is written in three L x L matrices and one scalar, which a
SingleParticleSet builds from the spec where one is read and never stores:

    W = i h + (1/2) diag(gamma_1, 0, ..., 0, gamma_L)   drift
    F = diag(gamma_1 f_1, 0, ..., 0, gamma_L f_L)       injection
    Q = W - F                                           no-click generator
    gamma_total = gamma_1 f_1 + gamma_L f_L             uniform decay rate

Gaussian states are carried by their covariance matrix C_ij = <c_j^dag c_i>,
decomposed once (``GaussianState.eig``); the exponent matrix of the Gibbs
form is never materialized.  One SingleParticleSet per chain serves its
steady state, the no-click propagator e^{-Qt} (``propagator``) and the data
derived from it and one state (``memo``).  Both the steady state and the
propagator come from one Hermitian eigendecomposition h = U diag(E) U^dag
(``h_eig``): with R = U[b, :] the rows of the two bath sites b, W and Q are
U (iE + R^dag diag(delta) R) U^dag with delta = gamma_b / 2 for W and
gamma_b (1/2 - f_b) for Q, diagonal plus rank 2, whose eigenpairs are
``linalg.secular_eig``'s O(L^2) sweeps and whose Lyapunov equation is
``linalg.secular_lyapunov_solve``.  Where those refuse (a repeated value of
E, a mode dark to the baths, no convergence) the propagator falls back to
LAPACK's ``eig`` of Q and the steady state to ``linalg.lyapunov_solve``.
A nearest-neighbour chain never refuses but in floating point: its h is a
Jacobi matrix, of simple spectrum and nonzero end components (Parlett, The
Symmetric Eigenvalue Problem, sec. 7.9), and only a mode localized so
strongly that its end amplitudes fall below roundoff reads as dark.
:func:`can_click` is the one predicate for "can channel q click".
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import LinalgError, Propagator, lyapunov_solve, secular_eig, secular_lyapunov_solve

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class ChainSpec:
    """Chain Hamiltonian plus the four bath parameters.

    ``h`` must be Hermitian within HERMITICITY_TOL, L x L with L >= 2 (the
    two baths attach to distinct end sites); the spec keeps its Hermitian
    part (h + h^dag) / 2, so that W, Q and the eigendecomposition of h all
    describe one matrix.  ``gamma1``/``gammaL`` are bath coupling rates
    (nonnegative; the steady state additionally needs both positive) and
    ``f1``/``fL`` are the bath Fermi factors in [0, 1].
    """

    h: np.ndarray
    gamma1: float
    gammaL: float
    f1: float
    fL: float

    def __post_init__(self):
        h = np.asarray(self.h, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"h must be a square matrix, got shape {h.shape}")
        if h.shape[0] < 2:
            raise ValueError("chain needs L >= 2 sites")
        if not np.all(np.isfinite(h)):
            raise ValueError("h contains non-finite entries")
        if np.linalg.norm(h - h.conj().T) > HERMITICITY_TOL * max(1.0, np.linalg.norm(h)):
            raise ValueError("h must be Hermitian within 1e-12")
        object.__setattr__(self, "h", 0.5 * (h + h.conj().T))
        for name in ("gamma1", "gammaL"):
            v = getattr(self, name)
            if not 0.0 <= v < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        for name in ("f1", "fL"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")

    @property
    def L(self) -> int:
        return self.h.shape[0]


@dataclass(frozen=True)
class Channel:
    """One of the four jump channels: inject/extract at site 1 or L.

    ``sign`` is "+" for injection (dissipator on c^dag) and "-" for
    extraction (dissipator on c).  ``site_index`` is the 0-based matrix
    index of the attached site.
    """

    site: int
    sign: str
    rate: float
    site_index: int

    @property
    def label(self) -> str:
        return ("1" if self.site == 1 else "L") + self.sign

    def __str__(self) -> str:
        return self.label


#: Canonical ordering of the four channel labels used in every table.
CHANNEL_ORDER = ("1-", "1+", "L-", "L+")


def channels(spec: ChainSpec) -> dict[str, Channel]:
    """The four jump channels of a spec, keyed by label "1-", "1+", "L-", "L+"."""
    L = spec.L
    return {
        "1-": Channel(1, "-", spec.gamma1 * (1.0 - spec.f1), 0),
        "1+": Channel(1, "+", spec.gamma1 * spec.f1, 0),
        "L-": Channel(L, "-", spec.gammaL * (1.0 - spec.fL), L - 1),
        "L+": Channel(L, "+", spec.gammaL * spec.fL, L - 1),
    }


#: Entries one SingleParticleSet keeps in its memo; the oldest goes first.
MEMO_ENTRIES = 16

#: Channels whose click weight is at or below this never click from the state.
MIN_CLICK_WEIGHT = 1e-14

#: Occupation factor at or below which a click in q is impossible and
#: densities conditioned on it are undefined.
MIN_OCCUPATION_FACTOR = 1e-14


def occupation_factor(q: Channel, c_diag: tuple[float, float]) -> float:
    """C_jj for q = j-, 1 - C_jj for q = j+, from the bath-site occupations ``c_diag``."""
    c = c_diag[0 if q.site == 1 else 1]
    return c if q.sign == "-" else 1.0 - c


def can_click(q: Channel, factor: float) -> bool:
    """Whether q can click at occupation ``factor``: weight and factor above their thresholds."""
    return q.rate * factor > MIN_CLICK_WEIGHT and factor > MIN_OCCUPATION_FACTOR


@dataclass(frozen=True)
class SingleParticleSet:
    """A chain spec, its channel table and h's eigendecomposition; W, F and Q built where read.

    ``channels`` is the spec's :func:`channels` table; F and gamma_total are
    built from its injection rates, so every consumer reads the same rates.
    ``h_eig`` is (E, U) with h = U diag(E) U^dag, E ascending.  The three
    fields, like a state's covariance, are treated as immutable: the
    propagator and the memo are built from them once.
    """

    spec: ChainSpec
    channels: dict[str, Channel]
    h_eig: tuple[np.ndarray, np.ndarray]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _memo_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    @property
    def L(self) -> int:
        return self.spec.L

    @property
    def W(self) -> np.ndarray:
        gamma_diag = np.zeros(self.L)
        gamma_diag[[0, -1]] = self.spec.gamma1, self.spec.gammaL
        return 1j * self.spec.h + 0.5 * np.diag(gamma_diag)

    @property
    def F(self) -> np.ndarray:
        f = np.zeros((self.L, self.L), dtype=complex)
        f[[0, -1], [0, -1]] = self.channels["1+"].rate, self.channels["L+"].rate
        return f

    @property
    def Q(self) -> np.ndarray:
        return self.W - self.F

    @property
    def gamma_total(self) -> float:
        return self.channels["1+"].rate + self.channels["L+"].rate

    def _boundary(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(E, R, delta, phi): U^dag W U = iE + R^dag diag(delta) R, U^dag F U = R^dag diag(phi) R.

        delta = gamma_b / 2 and phi = gamma_b f_b, bitwise the real diagonal
        entries of W and F at the bath sites b; Q has delta - phi.
        """
        e, u = self.h_eig
        delta = 0.5 * np.array([self.spec.gamma1, self.spec.gammaL])
        return e, u[[0, -1]], delta, np.array([self.channels["1+"].rate, self.channels["L+"].rate])

    @cached_property
    def propagator(self) -> Propagator:
        """e^{-Qt} for every t, from the eigenpairs of Q (built on first use).

        ``linalg.secular_eig`` gives them in the eigenbasis of h and U turns
        them into Q's; the propagator checks them, and where the sweeps
        refuse or the check does, takes LAPACK's ``eig`` of Q and then expm.
        The first use is on the calling thread: ``wtd._build_blocks`` reads
        it before its pool starts, as from Python 3.12 on ``cached_property``
        does not keep two threads from building it twice.
        """
        e, r, delta, phi = self._boundary()
        try:
            lam, y = secular_eig(e, r, delta - phi)
        except LinalgError:
            return Propagator(-self.Q)
        v = self.h_eig[1] @ y
        del y  # one n x n matrix fewer while the propagator checks v
        return Propagator(-self.Q, eig=(-lam, v))

    def steady_state(self) -> GaussianState:
        """Steady-state covariance: the fixed point W C + C W^dag = F of this set's W and F.

        U C' U^dag from C' of ``linalg.secular_lyapunov_solve`` in the
        eigenbasis of h, or, where it refuses, ``linalg.lyapunov_solve``,
        whose own refusal is raised.
        """
        if min(self.spec.gamma1, self.spec.gammaL) <= 0:
            raise ValueError("steady state requires gamma1 > 0 and gammaL > 0")
        try:
            c = secular_lyapunov_solve(*self._boundary())
        except LinalgError:
            return GaussianState(C=lyapunov_solve(self.W, self.F), kind="steady")
        u = self.h_eig[1]
        c = u @ c
        np.conjugate(c, out=c)  # its transpose is C' U^dag, as C' is Hermitian
        c = u @ c.T
        c += c.conj().T
        c *= 0.5
        return GaussianState(C=c, kind="steady")

    def memo(self, state: GaussianState, build):
        """``build()``, computed once per state and kept on this set.

        For data derived from this set and one state (the density kernel's
        per-state factors), shared by every point, curve and pass as the
        propagator is.  An entry holds its state, so the state's id cannot
        be reused while the entry lives; beyond MEMO_ENTRIES entries the
        oldest is dropped.  Two threads missing the same entry at once both
        build it, and the later one is kept.
        """
        key = id(state)
        hit = self._memo.get(key)
        if hit is not None:
            return hit[1]
        value = build()
        with self._memo_lock:
            self._memo[key] = (state, value)
            while len(self._memo) > MEMO_ENTRIES:
                del self._memo[next(iter(self._memo))]
        return value


@dataclass(frozen=True)
class GaussianState:
    """Gaussian fermionic state held as a covariance matrix C_ij = <c_j^dag c_i>.

    C is L x L with L >= 2.  ``kind`` is "steady", "vacuum" or "custom".  A
    vacuum must have C = 0 exactly: the density kernel dispatches on
    ``kind == "vacuum"`` to its analytic boundary blocks, which never read
    C.  C is decomposed once, by ``eigh``, to check that its spectrum lies
    in [0, 1]; ``eig`` keeps the eigenvalues (ascending) and eigenvectors
    for the density kernel.
    """

    C: np.ndarray
    kind: str = "custom"
    eig: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("steady", "vacuum", "custom"):
            raise ValueError(f"unknown state kind {self.kind!r}")
        c = np.asarray(self.C, dtype=complex)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] < 2:
            raise ValueError(f"covariance matrix must be L x L with L >= 2, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("covariance matrix must be finite")
        if self.kind == "vacuum" and np.any(c != 0):
            raise ValueError("a vacuum state must have C = 0")
        if np.linalg.norm(c - c.conj().T) > 1e-10 * max(1.0, np.linalg.norm(c)):
            raise ValueError("covariance matrix must be Hermitian")
        evals, vecs = np.linalg.eigh(c)
        if evals[0] < -1e-10 or evals[-1] > 1.0 + 1e-10:
            raise ValueError(
                f"covariance eigenvalues must lie in [0, 1], got range "
                f"[{evals[0]:.3e}, {evals[-1]:.3e}]"
            )
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "eig", (evals, vecs))

    @property
    def L(self) -> int:
        return self.C.shape[0]

    @property
    def boundary_occupations(self) -> tuple[float, float]:
        """Real C_jj at the two bath sites, site 1 first."""
        return float(self.C[0, 0].real), float(self.C[-1, -1].real)


def build_tight_binding(L: int, V: float, J: float) -> np.ndarray:
    """Tridiagonal hopping matrix: on-site energy -V, hopping -J."""
    if L < 2:
        raise ValueError("chain needs L >= 2 sites")
    h = np.zeros((L, L), dtype=complex)
    np.fill_diagonal(h, -V)
    idx = np.arange(L - 1)
    h[idx, idx + 1] = -J
    h[idx + 1, idx] = -J
    return h


def derive_single_particle(spec: ChainSpec) -> SingleParticleSet:
    """The single-particle set of a chain spec: its channel table and h's eigendecomposition."""
    return SingleParticleSet(
        spec=spec,
        channels=channels(spec),
        h_eig=np.linalg.eigh(spec.h if spec.h.imag.any() else spec.h.real),
    )


def steady_state(spec: ChainSpec) -> GaussianState:
    """Steady-state covariance of ``spec``: ``derive_single_particle(spec).steady_state()``."""
    return derive_single_particle(spec).steady_state()


def vacuum_state(L: int) -> GaussianState:
    """Empty-chain initial state, C = 0.

    Its densities come from analytic boundary blocks, dispatched on
    ``kind == "vacuum"``, through the same assembly as every other state.
    """
    return GaussianState(C=np.zeros((L, L), dtype=complex), kind="vacuum")
