"""Brute-force many-body reference for the L x L closed forms.

Fermion operators are realized by a Jordan-Wigner chain of Pauli matrices
with site 1 as the leftmost tensor factor; every module shares this
ordering.  Density matrices are 2^L x 2^L.

The waiting-time density P(t, k|q) = tr(J_k e^{L0 t} J_q rho) / tr(J_q rho)
never forms a superoperator: the no-click generator is
L0 rho = -i (H_eff rho - rho H_eff^dag), so the no-click evolution is the
sandwich G rho G^dag with G = e^{-i H_eff t}, a 2^L x 2^L propagator (32 at
L = 5, 64 at L = 6), and each jump is the sandwich rate * a rho a^dag.  The
oracle returns all sixteen densities at a stack of times as one table
(``FockOracle.wtd_matrix``): one jump sandwich per conditioning channel,
then per time one propagator matrix and one sandwich G rho G^dag per
channel that can click, from which all four k are read as traces.

The steady state never forms a superoperator either.  A quadratic
Lindbladian maps the bilinears c_j^dag c_i to linear combinations of
themselves and 1, so C_ij = <c_j^dag c_i> obeys a closed L^2 x L^2 linear
system, and the steady state is the Gaussian state of its solution, unique
when every mode decays (Prosen, NJP 10, 043026, 2008).  The oracle applies
its adjoint generator, in dissipator form, to the L^2 bilinears as 2^L
matrices and reads the coefficients by least squares; nothing of the
closed form enters.  The state is then certified in the other form of the
generator, the no-click part plus the jumps, by its full 2^L residual, so
an error in H_eff, in the jumps or in the closure fails it.

Everything here exists to verify the L x L closed forms at small L, not to
be fast.  The one hard cap is ``model.ORACLE_MAX_SITES`` = 6 (2^L = 64),
kept in ``model`` so that the command line reads it without importing
this module; the command line stops at L = 4 unless
``--allow-large-oracle`` is given.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from .linalg import Propagator, expm
from .model import ORACLE_MAX_SITES, ChainSpec, Channel, CHANNEL_ORDER, can_click, channels
from .wtd import validate_times
from . import tracedet

ANTICOMM_TOL = 1e-13

_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])  # <0|c|1> = 1


def _check_size(L: int):
    if not 1 <= L <= ORACLE_MAX_SITES:
        raise ValueError(f"Fock oracle supports 1 <= L <= {ORACLE_MAX_SITES} (got L={L})")


def build_fermions(L: int) -> list[np.ndarray]:
    """Annihilation operators c_1..c_L as 2^L matrices (Jordan-Wigner).

    c_i = Z x ... x Z x s x I x ... x I with the lowering matrix s at slot
    i and site 1 leftmost.  Canonical anticommutation is verified at
    construction: all 2L^2 anticommutators {c_a, c_b^dag} and {c_a, c_b}
    in one stacked product, the first failing pair named in the error.
    The matrices are real, so they are built and checked in real
    arithmetic and returned as complex arrays.
    """
    _check_size(L)
    ops = []
    for i in range(L):
        mats = [_PAULI_Z] * i + [_LOWER] + [np.eye(2)] * (L - i - 1)
        full = mats[0]
        for m in mats[1:]:
            full = np.kron(full, m)
        ops.append(full)

    c = np.stack(ops)
    pairs = np.stack([c.conj().transpose(0, 2, 1), c], axis=1)  # [b] = (c_b^dag, c_b)
    anti = c[:, None, None] @ pairs  # [a, b, 0] = c_a c_b^dag, [a, b, 1] = c_a c_b
    anti += pairs @ c[:, None, None]
    sites = np.arange(L)
    anti[sites, sites, 0] -= np.eye(2**L)
    bad = np.max(np.abs(anti), axis=(-2, -1)) > ANTICOMM_TOL  # (a, b, kind), the loop order
    if np.any(bad):
        a, b, kind = np.unravel_index(np.argmax(bad), bad.shape)
        other = f"c_{b}^dag" if kind == 0 else f"c_{b}"
        raise AssertionError(f"anticommutator {{c_{a}, {other}}} violated")
    return [op.astype(complex) for op in ops]


def quadratic_form_operator(x, c_ops: list[np.ndarray]) -> np.ndarray:
    """Many-body operator sum_ij x_ij c_i^dag c_j, of one L x L matrix x or a stack (..., L, L)."""
    x = np.asarray(x, dtype=complex)
    L = len(c_ops)
    if x.shape[-2:] != (L, L):
        raise ValueError(f"coefficient matrix must be {L}x{L}, got {x.shape}")
    dim = c_ops[0].shape[0]
    op = np.zeros(x.shape[:-2] + (dim, dim), dtype=complex)
    for i in range(L):
        for j in range(L):
            op += x[..., i, j, None, None] * (c_ops[i].conj().T @ c_ops[j])
    return op


def _as_label(k) -> str:
    label = k.label if isinstance(k, Channel) else str(k)
    if label not in CHANNEL_ORDER:
        raise ValueError(f"unknown channel {label!r}, expected one of {CHANNEL_ORDER}")
    return label


class FockOracle:
    """Cached many-body machinery for one chain spec.

    Builds and holds only 2^L x 2^L operators: the fermions ``c_ops``, the
    jump operator a of each channel, the many-body H, H_eff and the
    no-click propagator e^{-i H_eff t}.  The per-call work of
    :meth:`wtd_matrix` is one jump sandwich per conditioning channel, then
    per time one propagator matrix G and one sandwich G rho G^dag per
    channel that can click; :meth:`wtd` is one entry of the table at one
    time.  :meth:`steady_state` solves the L^2 x L^2 closure of the
    bilinears c_j^dag c_i, which :meth:`covariance` reads as well.
    Density matrices go in and come out as full 2^L x 2^L arrays.
    """

    def __init__(self, spec: ChainSpec):
        self.spec = spec
        self.dim = 2**spec.L
        self.c_ops = build_fermions(spec.L)
        ch = channels(spec)
        self._channels = [ch[label] for label in CHANNEL_ORDER]
        self._rates = np.array([q.rate for q in self._channels])
        c1, cL = self.c_ops[0], self.c_ops[-1]
        ops = {"1-": c1, "1+": c1.conj().T, "L-": cL, "L+": cL.conj().T}
        self._jumps = np.stack([ops[label] for label in CHANNEL_ORDER])
        self._h = quadratic_form_operator(spec.h, self.c_ops)
        self._h_eff = self._h - 0.5j * sum(
            rate * (a.conj().T @ a) for rate, a in zip(self._rates, self._jumps)
        )
        self.propagator = Propagator(-1j * self._h_eff)

    def wtd_matrix(self, ts, rho: np.ndarray) -> np.ndarray:
        """All sixteen densities P(t, k|q) at n times, as an (n, 4, 4) table.

        Entry [m, a, b] is k = CHANNEL_ORDER[a] at t = ts[m] after a click
        in q = CHANNEL_ORDER[b] at 0.  Direct evaluation: apply each jump q
        to rho as rate_q * a_q rho a_q^dag, evolve with G rho G^dag for
        G = e^{-i H_eff t}, and read every rate_k * tr(a_k rho(t) a_k^dag)
        over tr of the jumped state.  A column whose q cannot click from rho
        (``model.can_click``) is NaN.  The table at each time is the same
        in every stack of times it is evaluated in.  The times are checked
        as the closed form checks them (``wtd.validate_times``): each
        finite and t >= 0.
        """
        ts = validate_times(ts)
        n_ch = len(CHANNEL_ORDER)
        table = np.full((len(ts), n_ch, n_ch), np.nan, dtype=complex)
        rates, ops = self._rates, self._jumps
        ops_dag = ops.conj().transpose(0, 2, 1)
        # rate_k tr(a_k X a_k^dag) = sum_ij (rate_k a_k^dag a_k)_ji X_ij: row k
        # is k's click operator transposed and flattened, to dot with X flattened.
        reads = (rates[:, None, None] * (ops_dag @ ops)).transpose(0, 2, 1).reshape(n_ch, -1)
        sandwiches = ops @ np.asarray(rho, dtype=complex) @ ops_dag
        occupation = np.trace(sandwiches, axis1=1, axis2=2).real  # q's occupation factor
        live = [b for b, q in enumerate(self._channels) if can_click(q, float(occupation[b]))]
        if live:
            jumped = rates[live, None, None] * sandwiches[live]
            denom = np.trace(jumped, axis1=1, axis2=2)
            for m, t in enumerate(ts):
                g = self.propagator.matrix(float(t))
                evolved = (g @ jumped @ g.conj().T).reshape(len(live), -1)
                table[m][:, live] = (reads @ evolved.T) / denom
        vals = table[:, :, live]
        if np.any(np.abs(vals.imag) > 1e-9 * np.maximum(1.0, np.abs(vals.real))):
            raise AssertionError(
                f"waiting-time density has imaginary part {np.abs(vals.imag).max():.3e}"
            )
        return np.ascontiguousarray(table.real)

    def wtd(self, t: float, k, q, rho: np.ndarray) -> float:
        """Waiting-time density between a click in q (at 0) and k (at t).

        One entry of :meth:`wtd_matrix` at the one time t.  A q that cannot
        click from rho (``model.can_click``) is an error.
        """
        q_label = _as_label(q)
        table = self.wtd_matrix([t], rho)[0]
        val = table[CHANNEL_ORDER.index(_as_label(k)), CHANNEL_ORDER.index(q_label)]
        if math.isnan(val):
            raise ValueError(f"jump {q_label} is impossible from this state")
        return float(val)

    def _bilinears(self) -> np.ndarray:
        """The (L, L) stack of 2^L operators c_j^dag c_i at [i, j], so C_ij is the mean of [i, j]."""
        c = np.stack(self.c_ops)
        return c.conj().transpose(0, 2, 1)[None] @ c[:, None]

    def steady_state(self) -> np.ndarray:
        """Unique steady state: the Gaussian state of the bilinears' fixed point.

        1. The adjoint generator in dissipator form,
           L^dag(X) = i[H, X] + sum_q rate_q (a_q^dag X a_q - {a_q^dag a_q, X} / 2),
           maps each bilinear X_ij = c_j^dag c_i to a combination of 1 and
           the X_kl, read by one least-squares solve over the 4^L entries:
           dC_ij/dt = b_ij + sum_kl M_(ij),(kl) C_kl.
        2. The fixed point is unique when the smallest singular value of the
           drift M exceeds 1e-10.  M is singular exactly when two
           single-particle rapidities sum to zero, lam_i + conj(lam_j) = 0,
           as on a chain without baths.
        3. C solves M C = -b, and the state is its Gaussian density
           (:meth:`gaussian_density`, which refuses C outside [0, 1]).
        4. The state is certified in the generator's other form, no click
           plus jumps: -i (H_eff rho - rho H_eff^dag) + sum_q rate_q a_q rho
           a_q^dag must vanish to 1e-12 max(1, max |H_eff|).
        """
        n, dim = self.spec.L**2, self.dim
        x = self._bilinears().reshape(n, dim, dim)
        flow = 1j * (self._h @ x - x @ self._h)
        for rate, a in zip(self._rates, self._jumps):
            ada = a.conj().T @ a
            flow += rate * (a.conj().T @ x @ a - 0.5 * (ada @ x + x @ ada))
        basis = np.concatenate([np.eye(dim)[None], x]).reshape(n + 1, -1)
        coef = np.linalg.lstsq(basis.T, flow.reshape(n, -1).T, rcond=None)[0]
        drift, offset = coef[1:].T, coef[0]
        smallest = np.linalg.svd(drift, compute_uv=False)[-1]
        if smallest <= 1e-10:
            raise ValueError(
                f"degenerate null space: smallest singular value of the drift {smallest:.3e}"
            )
        cov = np.linalg.solve(drift, -offset).reshape(self.spec.L, self.spec.L)
        rho = self.gaussian_density(0.5 * (cov + cov.conj().T))

        sandwiches = self._jumps @ rho @ self._jumps.conj().transpose(0, 2, 1)
        residual = -1j * (self._h_eff @ rho - rho @ self._h_eff.conj().T)
        residual += np.tensordot(self._rates, sandwiches, axes=1)
        worst = np.max(np.abs(residual))
        if worst > 1e-12 * max(1.0, np.max(np.abs(self._h_eff))):
            raise AssertionError(f"steady state is not stationary: residual {worst:.3e}")
        return rho

    def covariance(self, rho: np.ndarray) -> np.ndarray:
        """Two-point matrix C_ij = <c_j^dag c_i> of a density matrix."""
        return _trace(rho @ self._bilinears())

    def gaussian_density(self, cov: np.ndarray) -> np.ndarray:
        """Many-body density matrix of the Gaussian state with covariance cov.

        Diagonalizes cov into independent normal modes and takes the
        product of per-mode mixtures; occupations of exactly 0 or 1 give
        exact projectors, so the vacuum needs no regularization here.
        """
        cov = np.asarray(cov, dtype=complex)
        occ, u = np.linalg.eigh(cov)
        if occ.min() < -1e-10 or occ.max() > 1.0 + 1e-10:
            raise ValueError("covariance eigenvalues must lie in [0, 1]")
        occ = np.clip(occ.real, 0.0, 1.0)
        rho = np.eye(self.dim, dtype=complex)
        for a in range(len(occ)):
            d_a = sum(u[i, a].conj() * self.c_ops[i] for i in range(self.spec.L))
            n_a = d_a.conj().T @ d_a
            rho = rho @ ((1.0 - occ[a]) * np.eye(self.dim) + (2.0 * occ[a] - 1.0) * n_a)
        return rho

    def vacuum_density(self) -> np.ndarray:
        return self.gaussian_density(np.zeros((self.spec.L, self.spec.L)))


# ----------------------------------------------------------------------
# Randomized verification of the trace-determinant formula family.
# ----------------------------------------------------------------------


@dataclass
class VerificationEntry:
    """One identity's gate and the checks recorded against it.

    Checks go in through :meth:`record` only: ``draws`` counts them and
    ``max_deviation`` keeps the largest deviation.  A NaN deviation is kept
    once seen, so the entry fails; so does an entry with no draw, which
    checked nothing.
    """

    name: str
    threshold: float
    draws: int = 0
    max_deviation: float = 0.0

    def record(self, deviation) -> None:
        """Record a deviation, or an array of them, each element one draw."""
        dev = np.asarray(deviation, dtype=float)
        self.draws += dev.size
        worst = float(dev.max(initial=-math.inf))  # NaN if any element is NaN
        if math.isnan(worst) or worst > self.max_deviation:
            self.max_deviation = worst

    @property
    def passed(self) -> bool:
        return bool(self.draws > 0 and self.max_deviation <= self.threshold)


@dataclass
class VerificationReport:
    seed: int
    entries: list[VerificationEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def add(self, name: str, threshold: float) -> VerificationEntry:
        """Append an empty entry and return it for recording."""
        self.entries.append(VerificationEntry(name, threshold))
        return self.entries[-1]

    def to_text(self) -> str:
        lines = [
            f"{'identity':<28} {'draws':>5} {'max deviation':>15} {'threshold':>10} {'status':>7}",
            "-" * 70,
        ]
        for e in self.entries:
            lines.append(
                f"{e.name:<28} {e.draws:>5} {e.max_deviation:>15.3e} "
                f"{e.threshold:>10.0e} {'pass' if e.passed else 'FAIL':>7}"
            )
        lines.append("-" * 70)
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'} (seed {self.seed})")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "entries": [
                {
                    "name": e.name,
                    "draws": e.draws,
                    "max_deviation": e.max_deviation,
                    "threshold": e.threshold,
                    "passed": e.passed,
                }
                for e in self.entries
            ],
        }


def _drawn(draw, *shape) -> np.ndarray:
    """Array of the given shape, filled in row-major order by calls of draw()."""
    return np.array([draw() for _ in range(math.prod(shape))]).reshape(shape)


def _random_coeff(rng: random.Random, L: int) -> np.ndarray:
    """Complex matrix with entries of magnitude <= 1."""
    uniform = partial(rng.uniform, -1.0, 1.0)
    return (_drawn(uniform, L, L) + 1j * _drawn(uniform, L, L)) / np.sqrt(2)


def _rel_dev(lhs, rhs):
    """|lhs - rhs| relative to the larger magnitude, absolute below 1e-10; elementwise."""
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    return np.abs(lhs - rhs) / np.where(scale < 1e-10, 1.0, scale)


def _trace(op):
    return np.trace(op, axis1=-2, axis2=-1)


def _fock_two_insert(kind, idx, exps, c_ops):
    """Many-body left-hand side of a two-insertion trace.

    ``idx`` is (i, i', j, j'), each an int or an index array over a stack,
    and ``exps`` the three many-body factors, each one matrix or a stack.
    """
    i, ip, j, jp = idx
    c = np.stack(c_ops)
    cd = c.conj().transpose(0, 2, 1)
    ex, ey, ez = exps
    if kind == "adjacent":
        op = cd[i] @ c[ip] @ ex @ cd[j] @ c[jp] @ ey @ ez
    elif kind == "split_mp":
        op = cd[i] @ c[ip] @ ex @ cd[j] @ ey @ c[jp] @ ez
    elif kind == "split_pp":
        op = c[i] @ cd[ip] @ ex @ cd[j] @ ey @ c[jp] @ ez
    elif kind == "split_mm":
        op = cd[i] @ c[ip] @ ex @ c[j] @ ey @ cd[jp] @ ez
    elif kind == "split_pm":
        op = c[i] @ cd[ip] @ ex @ c[j] @ ey @ cd[jp] @ ez
    else:
        raise ValueError(kind)
    return _trace(op)


def verify_tracedet(
    seed: int = 0,
    draws: int = 20,
    sizes: tuple[int, ...] = (2, 3),
    threshold: float = 1e-9,
) -> VerificationReport:
    """Randomized check of every trace-determinant identity against Fock space.

    For each identity and each draw: random complex coefficient matrices
    with entries of magnitude <= 1 and random insertion indices; the
    many-body trace (2^L space) is compared with the single-particle
    formula (L x L space).  Also re-derives the one-insertion trace
    through the finite-alpha factorization and checks the conjugation,
    Sylvester and Sherman-Morrison lemmas the derivations rest on.  Each
    comparison is one recorded draw of its entry; a NaN deviation fails
    the entry, and so does an entry with no draw (``draws`` = 0 or no
    sizes).

    The numbers come from one ``random.Random(seed)``, drawn draw by draw
    in one fixed order: per draw the four coefficient matrices (uniform
    real, then imaginary parts), the insertion indices, the diagonal
    index, the lemma matrix, then psi and phi (standard normal real, then
    imaginary parts).  Each size's draws are then evaluated as one stack:
    one four-factor :class:`tracedet.QuadraticFormChain` stack, whose
    prefixes are the bare chains of one to four factors and the
    three-factor chain of the insertion formulas, each formula called once
    with index arrays, and on the Fock side one stack of quadratic-form
    operators with one expm call.
    """
    rng = random.Random(seed)
    report = VerificationReport(seed=seed)
    bare = {n: report.add(f"bare_trace_{n}_factors", threshold) for n in (1, 2, 3, 4)}
    one = report.add("one_insertion", threshold)
    two = {k: report.add(f"two_insertion_{k}", threshold) for k in tracedet.TWO_INSERT_KINDS}
    alpha_route = report.add("alpha_independence", threshold)
    conjugation = report.add("conjugation_identity", 1e-10)
    sylvester = report.add("sylvester_lemma", 1e-10)
    sherman = report.add("sherman_morrison_lemma", 1e-10)

    if draws < 1:
        return report  # nothing drawn: every entry fails
    for L in sizes:
        drawn = []
        integers, normal = partial(rng.randrange, L), partial(rng.gauss, 0.0, 1.0)
        for _ in range(draws):
            coeffs = np.stack([_random_coeff(rng, L) for _ in range(4)])
            one_idx = _drawn(integers, 4)  # (i, i', j, j'); one insertion reads i, i'
            two_idx = _drawn(integers, len(tracedet.TWO_INSERT_KINDS), 4)
            diag = integers()
            a = _random_coeff(rng, L) + 2.0 * np.eye(L)
            psi = _drawn(normal, L) + 1j * _drawn(normal, L)
            phi = _drawn(normal, L) + 1j * _drawn(normal, L)
            drawn.append((coeffs, one_idx, two_idx, diag, a, psi, phi))
        coeffs, one_idx, two_idx, diag, a, psi, phi = (np.stack(x) for x in zip(*drawn))

        c = np.stack(build_fermions(L))
        cd = c.conj().transpose(0, 2, 1)
        many = expm(quadratic_form_operator(coeffs, c))  # (draws, 4, 2^L, 2^L)
        products = [many[:, 0]]
        for n in (1, 2, 3):
            products.append(products[-1] @ many[:, n])

        chain = tracedet.QuadraticFormChain(coeffs.transpose(1, 0, 2, 3))
        for n in (1, 2, 3, 4):
            formula = tracedet.bss_trace(chain.prefix(n))
            bare[n].record(_rel_dev(_trace(products[n - 1]), formula))

        chain3 = chain.prefix(3)
        i, ip = one_idx[:, 0], one_idx[:, 1]
        lhs = _trace(cd[i] @ c[ip] @ products[2])
        one.record(_rel_dev(lhs, tracedet.trace_one_insert(i, ip, chain3)))

        for n, kind in enumerate(tracedet.TWO_INSERT_KINDS):
            idx = tuple(two_idx[:, n].T)
            lhs = _fock_two_insert(kind, idx, (many[:, 0], many[:, 1], many[:, 2]), c)
            two[kind].record(_rel_dev(lhs, tracedet.trace_two_insert_chain(kind, idx, chain3)))

        base = tracedet.trace_one_insert(diag, diag, chain3)
        for alpha in (0.1, 1.0, 10.0):
            via_alpha = tracedet.trace_one_insert_alpha_route(diag, chain3, alpha)
            alpha_route.record(_rel_dev(base, via_alpha))

        conjugation.record(tracedet.conjugation_residual(chain3))

        psi, phi = psi[:, :, None], phi[:, None, :]  # columns and rows
        upd = a + psi * phi
        ainv = np.linalg.inv(a)
        ainv_psi, phi_ainv = ainv @ psi, phi @ ainv
        denom = 1.0 + phi_ainv @ psi  # (draws, 1, 1)
        sylvester.record(_rel_dev(np.linalg.det(upd), np.linalg.det(a) * denom[:, 0, 0]))
        sm = ainv - ainv_psi * phi_ainv / denom
        sherman.record(np.max(np.abs(np.linalg.inv(upd) - sm), axis=(1, 2)))
    return report
