"""Brute-force many-body reference for the L x L closed forms.

Fermion operators are realized by a Jordan-Wigner chain of Pauli matrices
with site 1 as the leftmost tensor factor; every module shares this
ordering.  Density matrices are 2^L x 2^L.

The waiting-time density P(t, k|q) = tr(J_k e^{L0 t} J_q rho) / tr(J_q rho)
never forms a superoperator: the no-click generator is
L0 rho = -i (H_eff rho - rho H_eff^dag), so the no-click evolution is the
sandwich G rho G^dag with G = e^{-i H_eff t}, a 2^L x 2^L propagator (32 at
L = 5, 64 at L = 6), and each jump is the sandwich rate * a rho a^dag.

What still scales as C(2L, L) is the steady state.  The full generator is
built on the sector of entries rho[I, J] whose ket and bra hold the same
particle number: a number-conserving h with single-site jumps conserves
N_ket - N_bra (Buca & Prosen, NJP 14, 073007, 2012), the trace reads only
that sector, and the steady state lies in it, so dropping the other blocks
is exact.  The steady state is the null vector of that sector generator:
its uniqueness is read from the singular values, the vector from one LU
solve.  The no-click part and the four jumps are built on the same
sector only to assert the sum rule full = no_click + jumps, which
cross-checks H_eff.  Sector vectors list the (ket, bra) pairs in row-major
order, so a sandwich A rho B has the entries A[I, I'] B[J', J].

Everything here exists to verify the L x L closed forms at small L, not to
be fast.  The one hard cap is L <= 6 (sector dimension 924); the command
line stops at L = 4 (dimension 70) unless ``--allow-large-oracle`` is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from .linalg import Propagator, expm
from .model import ChainSpec, Channel, CHANNEL_ORDER, can_click, channels
from . import tracedet

ORACLE_MAX_SITES = 6
ANTICOMM_TOL = 1e-13

_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # <0|c|1> = 1


def _check_size(L: int):
    if not 1 <= L <= ORACLE_MAX_SITES:
        raise ValueError(f"Fock oracle supports 1 <= L <= {ORACLE_MAX_SITES} (got L={L})")


def build_fermions(L: int) -> list[np.ndarray]:
    """Annihilation operators c_1..c_L as 2^L matrices (Jordan-Wigner).

    c_i = Z x ... x Z x s x I x ... x I with the lowering matrix s at slot
    i and site 1 leftmost.  Canonical anticommutation is verified at
    construction.
    """
    _check_size(L)
    ops = []
    for i in range(L):
        mats = [_PAULI_Z] * i + [_LOWER] + [np.eye(2, dtype=complex)] * (L - i - 1)
        full = mats[0]
        for m in mats[1:]:
            full = np.kron(full, m)
        ops.append(full)

    dim = 2**L
    eye = np.eye(dim)
    for a in range(L):
        for b in range(L):
            acc = ops[a] @ ops[b].conj().T + ops[b].conj().T @ ops[a]
            target = eye if a == b else 0.0
            if np.max(np.abs(acc - target)) > ANTICOMM_TOL:
                raise AssertionError(f"anticommutator {{c_{a}, c_{b}^dag}} violated")
            acc2 = ops[a] @ ops[b] + ops[b] @ ops[a]
            if np.max(np.abs(acc2)) > ANTICOMM_TOL:
                raise AssertionError(f"anticommutator {{c_{a}, c_{b}}} violated")
    return ops


def quadratic_form_operator(x, c_ops: list[np.ndarray]) -> np.ndarray:
    """Many-body operator sum_ij x_ij c_i^dag c_j."""
    x = np.asarray(x, dtype=complex)
    L = len(c_ops)
    if x.shape != (L, L):
        raise ValueError(f"coefficient matrix must be {L}x{L}, got {x.shape}")
    dim = c_ops[0].shape[0]
    op = np.zeros((dim, dim), dtype=complex)
    for i in range(L):
        for j in range(L):
            if x[i, j] != 0.0:
                op += x[i, j] * (c_ops[i].conj().T @ c_ops[j])
    return op


@dataclass
class LiouvillianParts:
    """Full generator, its no-click part and the four jumps, on the sector.

    Entry s of a sector vector is rho[ket[s], bra[s]].  ``c_ops`` are the
    2^L fermion operators the superoperators were built from, ``h_eff`` the
    2^L effective Hamiltonian that ``no_click`` is built from, and
    ``jump_ops[label]`` the 2^L operator a of each channel, whose jump
    superoperator is rate * (rho -> a rho a^dag).
    """

    full: np.ndarray
    no_click: np.ndarray
    jumps: dict[str, np.ndarray]
    ket: np.ndarray
    bra: np.ndarray
    c_ops: list[np.ndarray]
    h_eff: np.ndarray
    jump_ops: dict[str, np.ndarray]


def build_liouvillian(spec: ChainSpec) -> LiouvillianParts:
    """Assemble the master-equation superoperators for a chain spec.

    The full generator (Lindblad dissipators), the no-click generator
    (built from the non-Hermitian effective Hamiltonian) and the four jump
    sandwiches are constructed independently from the one channel table;
    their sum rule full = no_click + sum(jumps) is then asserted, which
    cross-validates the effective-Hamiltonian decomposition.
    """
    c_ops = build_fermions(spec.L)
    c1, cL = c_ops[0], c_ops[-1]
    ch = channels(spec)
    number = np.array([bin(i).count("1") for i in range(2**spec.L)])
    ket, bra = np.nonzero(number[:, None] == number[None, :])  # row-major pairs
    kets, bras = np.ix_(ket, ket), np.ix_(bra, bra)
    eye = np.eye(2**spec.L)

    def sandwich(a, b):  # rho -> A rho B
        return a[kets] * b.T[bras]

    def dissipator(a):
        ada = a.conj().T @ a
        return sandwich(a, a.conj().T) - 0.5 * (sandwich(ada, eye) + sandwich(eye, ada))

    h_many = quadratic_form_operator(spec.h, c_ops)
    full = -1j * (sandwich(h_many, eye) - sandwich(eye, h_many))
    for op, site in ((c1, "1"), (cL, "L")):
        full = full + ch[site + "-"].rate * dissipator(op)
        full = full + ch[site + "+"].rate * dissipator(op.conj().T)

    jump_ops = {"1-": c1, "1+": c1.conj().T, "L-": cL, "L+": cL.conj().T}
    jumps = {label: ch[label].rate * sandwich(a, a.conj().T) for label, a in jump_ops.items()}
    h_eff = h_many - 0.5j * sum(ch[label].rate * (a.conj().T @ a) for label, a in jump_ops.items())
    no_click = -1j * (sandwich(h_eff, eye) - sandwich(eye, h_eff.conj().T))

    recomposed = no_click + sum(jumps.values())
    scale = max(1.0, np.max(np.abs(full)))
    if np.max(np.abs(full - recomposed)) > 1e-12 * scale:
        raise AssertionError("generator decomposition full = no_click + jumps failed")
    return LiouvillianParts(
        full=full, no_click=no_click, jumps=jumps, ket=ket, bra=bra, c_ops=c_ops,
        h_eff=h_eff, jump_ops=jump_ops,
    )


def _as_label(k) -> str:
    label = k.label if isinstance(k, Channel) else str(k)
    if label not in CHANNEL_ORDER:
        raise ValueError(f"unknown channel {label!r}, expected one of {CHANNEL_ORDER}")
    return label


class FockOracle:
    """Cached many-body machinery for one chain spec.

    Builds the fermion operators, the sector Liouvillian parts and the 2^L
    no-click propagator e^{-i H_eff t} once.  The per-call work of
    :meth:`wtd` is two jump sandwiches, one propagator matrix and one
    sandwich G rho G^dag, all 2^L x 2^L.  The C(2L, L) sector generator
    serves only :meth:`steady_state`, through its singular values and one
    LU solve.  Density matrices go in and come out as full 2^L x 2^L
    arrays.
    """

    def __init__(self, spec: ChainSpec):
        self.spec = spec
        self.parts = build_liouvillian(spec)
        self.c_ops = self.parts.c_ops
        self.propagator = Propagator(-1j * self.parts.h_eff)
        self.dim = 2**spec.L
        ch = channels(spec)
        self._jumps = {label: (ch[label], a) for label, a in self.parts.jump_ops.items()}

    def wtd(self, t: float, k, q, rho: np.ndarray) -> float:
        """Waiting-time density between a click in q (at 0) and k (at t).

        Direct evaluation: apply jump q to rho as rate_q * a_q rho a_q^dag,
        evolve with G rho G^dag for G = e^{-i H_eff t}, and read
        rate_k * tr(a_k rho(t) a_k^dag) over tr of the jumped state.  A q that
        cannot click from rho (``model.can_click``) is an error.
        """
        if t < 0:
            raise ValueError("time must be nonnegative")
        k_ch, a_k = self._jumps[_as_label(k)]
        q_ch, a_q = self._jumps[_as_label(q)]
        sandwich = a_q @ np.asarray(rho, dtype=complex) @ a_q.conj().T  # tr: q's occupation factor
        if not can_click(q_ch, float(np.trace(sandwich).real)):
            raise ValueError(f"jump {q_ch.label} is impossible from this state")
        jumped = q_ch.rate * sandwich
        denom = np.trace(jumped)
        g = self.propagator.matrix(t)
        num = k_ch.rate * np.trace(a_k @ g @ jumped @ g.conj().T @ a_k.conj().T)
        val = complex(num / denom)
        if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
            raise AssertionError(f"waiting-time density has imaginary part {val.imag:.3e}")
        return float(val.real)

    def steady_state(self) -> np.ndarray:
        """Unique trace-1 fixed point of the full generator, from its sector null space.

        The null space must be one-dimensional: the second-smallest singular
        value of the sector generator (singular values only) must exceed
        1e-10.  The null vector is then one LU solve of the generator with
        the row of the first diagonal entry rho[I, I] replaced by the trace
        functional, right-hand side that row's unit vector.  The trace
        functional is the generator's left null vector, so the replaced
        equation follows from the others, and the solution is the null
        vector with trace 1.
        """
        full = self.parts.full
        s = np.linalg.svd(full, compute_uv=False)
        if s[-2] <= 1e-10:
            raise ValueError(
                f"degenerate null space: second-smallest singular value {s[-2]:.3e}"
            )
        diagonal = self.parts.ket == self.parts.bra
        row = int(np.argmax(diagonal))
        a = full.copy()
        a[row] = diagonal
        rhs = np.zeros(full.shape[0], dtype=complex)
        rhs[row] = 1.0
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        rho[self.parts.ket, self.parts.bra] = np.linalg.solve(a, rhs)
        rho = 0.5 * (rho + rho.conj().T)
        tr = np.trace(rho).real
        if abs(tr) < 1e-12:
            raise ValueError("null vector is traceless; not a state")
        rho = rho / tr
        if np.linalg.eigvalsh(rho).min() < -1e-8:
            raise ValueError("steady-state candidate is not positive semidefinite")
        return rho

    def covariance(self, rho: np.ndarray) -> np.ndarray:
        """Two-point matrix C_ij = <c_j^dag c_i> of a density matrix."""
        L = self.spec.L
        c = np.empty((L, L), dtype=complex)
        for i in range(L):
            for j in range(L):
                c[i, j] = np.trace(rho @ self.c_ops[j].conj().T @ self.c_ops[i])
        return c

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
    once seen, so the entry fails.
    """

    name: str
    threshold: float
    draws: int = 0
    max_deviation: float = 0.0

    def record(self, deviation: float) -> None:
        self.draws += 1
        if math.isnan(deviation) or deviation > self.max_deviation:
            self.max_deviation = float(deviation)

    @property
    def passed(self) -> bool:
        return bool(self.max_deviation <= self.threshold)


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


def _random_coeff(rng, L: int) -> np.ndarray:
    """Complex matrix with entries of magnitude <= 1."""
    return (rng.uniform(-1, 1, (L, L)) + 1j * rng.uniform(-1, 1, (L, L))) / np.sqrt(2)


def _rel_dev(lhs: complex, rhs: complex) -> float:
    scale = max(abs(lhs), abs(rhs))
    if scale < 1e-10:
        return abs(lhs - rhs)
    return abs(lhs - rhs) / scale


def _fock_two_insert(kind, idx, exps, c_ops):
    """Many-body left-hand side of a two-insertion trace."""
    i, ip, j, jp = idx
    cd = [op.conj().T for op in c_ops]
    ex, ey, ez = exps
    if kind == "adjacent":
        op = cd[i] @ c_ops[ip] @ ex @ cd[j] @ c_ops[jp] @ ey @ ez
    elif kind == "split_mp":
        op = cd[i] @ c_ops[ip] @ ex @ cd[j] @ ey @ c_ops[jp] @ ez
    elif kind == "split_pp":
        op = c_ops[i] @ cd[ip] @ ex @ cd[j] @ ey @ c_ops[jp] @ ez
    elif kind == "split_mm":
        op = cd[i] @ c_ops[ip] @ ex @ c_ops[j] @ ey @ cd[jp] @ ez
    elif kind == "split_pm":
        op = c_ops[i] @ cd[ip] @ ex @ c_ops[j] @ ey @ cd[jp] @ ez
    else:
        raise ValueError(kind)
    return complex(np.trace(op))


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
    the entry.  Each draw builds one four-factor chain: the bare chains of
    one to four factors and the three-factor chain of the insertion
    formulas are its prefixes, so they share its exponentials, and every
    formula on the three-factor chain shares its D and T.
    """
    rng = np.random.default_rng(seed)
    report = VerificationReport(seed=seed)
    bare = {n: report.add(f"bare_trace_{n}_factors", threshold) for n in (1, 2, 3, 4)}
    one = report.add("one_insertion", threshold)
    two = {k: report.add(f"two_insertion_{k}", threshold) for k in tracedet.TWO_INSERT_KINDS}
    alpha_route = report.add("alpha_independence", threshold)
    conjugation = report.add("conjugation_identity", 1e-10)
    sylvester = report.add("sylvester_lemma", 1e-10)
    sherman = report.add("sherman_morrison_lemma", 1e-10)

    for L in sizes:
        c_ops = build_fermions(L)
        for _ in range(draws):
            coeffs = [_random_coeff(rng, L) for _ in range(4)]
            many = list(expm(np.stack([quadratic_form_operator(x, c_ops) for x in coeffs])))

            chain = tracedet.QuadraticFormChain(coeffs)
            prefixes = {n: chain.prefix(n) for n in (1, 2, 3, 4)}
            for n, head in prefixes.items():
                lhs = complex(np.trace(np.linalg.multi_dot(many[:n]) if n > 1 else many[0]))
                bare[n].record(_rel_dev(lhs, tracedet.bss_trace(head).value))

            chain3 = prefixes[3]
            exps3 = many[:3]
            i, ip, j, jp = rng.integers(0, L, size=4)
            lhs = complex(np.trace(
                c_ops[i].conj().T @ c_ops[ip] @ exps3[0] @ exps3[1] @ exps3[2]
            ))
            one.record(_rel_dev(lhs, tracedet.trace_one_insert(i, ip, chain3)))

            for kind in tracedet.TWO_INSERT_KINDS:
                idx = tuple(rng.integers(0, L, size=4))
                lhs = _fock_two_insert(kind, idx, exps3, c_ops)
                two[kind].record(_rel_dev(lhs, tracedet.trace_two_insert_chain(kind, idx, chain3)))

            d = int(rng.integers(0, L))
            base = tracedet.trace_one_insert(d, d, chain3)
            for alpha in (0.1, 1.0, 10.0):
                via_alpha = tracedet.trace_one_insert_alpha_route(d, chain3, alpha)
                alpha_route.record(_rel_dev(base, via_alpha))

            conjugation.record(tracedet.conjugation_residual(chain3))

            a = _random_coeff(rng, L) + 2.0 * np.eye(L)
            psi = rng.standard_normal(L) + 1j * rng.standard_normal(L)
            phi = rng.standard_normal(L) + 1j * rng.standard_normal(L)
            upd = a + np.outer(psi, phi)
            ainv = np.linalg.inv(a)
            syl = np.linalg.det(a) * (1.0 + phi @ ainv @ psi)
            sylvester.record(_rel_dev(np.linalg.det(upd), syl))
            sm = ainv - np.outer(ainv @ psi, phi @ ainv) / (1.0 + phi @ ainv @ psi)
            sherman.record(np.max(np.abs(np.linalg.inv(upd) - sm)))
    return report
