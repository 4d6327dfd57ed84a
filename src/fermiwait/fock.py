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

What still scales as C(2L, L) is the steady state.  The full generator is
built on the sector of entries rho[I, J] whose ket and bra hold the same
particle number: a number-conserving h with single-site jumps conserves
N_ket - N_bra (Buca & Prosen, NJP 14, 073007, 2012), the trace reads only
that sector, and the steady state lies in it, so dropping the other blocks
is exact.  The steady state is the null vector of that sector generator:
its uniqueness is read from the singular values, the vector from one LU
solve.  The full generator is assembled in place in one buffer, and the
oracle holds it and its 2^L operators, nothing else of sector size.  The
no-click part and the four jumps are built on the same sector and summed
one at a time into one residual buffer, to assert the sum rule
full = no_click + jumps, which cross-checks H_eff; they are then freed.
``LiouvillianParts.no_click`` and ``.jumps`` rebuild them, by the same
expressions, the first time they are read.  Sector vectors list the
(ket, bra) pairs in row-major order, so a sandwich A rho B has the entries
A[I, I'] B[J', J].

Everything here exists to verify the L x L closed forms at small L, not to
be fast.  The one hard cap is ``model.ORACLE_MAX_SITES`` = 6 (sector
dimension 924), kept in ``model`` so that the command line reads it without
importing this module; the command line stops at L = 4 (dimension 70)
unless ``--allow-large-oracle`` is given.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from .linalg import Propagator, expm
from .model import ORACLE_MAX_SITES, ChainSpec, Channel, CHANNEL_ORDER, can_click, channels
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


def _sector_pairs(L: int) -> tuple[np.ndarray, np.ndarray]:
    """(ket, bra) of the N_ket = N_bra sector, its (ket, bra) pairs in row-major order."""
    number = np.array([bin(i).count("1") for i in range(2**L)])
    return np.nonzero(number[:, None] == number[None, :])


class _Sector:
    """Superoperators rho -> A rho B on the sector, each written into a given buffer.

    Built where superoperators are assembled and dropped with them, so no
    index array outlives the assembly.
    """

    def __init__(self, L: int):
        self.ket, self.bra = _sector_pairs(L)
        # The identity on the sector: gather(eye, ket) and gather(eye, bra).
        self.eye_kets = self.ket[:, None] == self.ket[None, :]
        self.eye_bras = self.bra[:, None] == self.bra[None, :]

    def empty(self) -> np.ndarray:
        return np.empty((len(self.ket),) * 2, dtype=complex)

    @staticmethod
    def gather(m, index, out):  # m[index[s], index[s']]: rows, then columns
        return np.take(m[index], index, axis=1, out=out)

    def sandwich(self, a, b, out, work):  # rho -> A rho B
        kets, bras = self.gather(a, self.ket, out), self.gather(b.T, self.bra, work)
        return np.multiply(kets, bras, out=out)

    def left(self, a, out):  # rho -> A rho, as sandwich(a, eye)
        return np.multiply(self.gather(a, self.ket, out), self.eye_bras, out=out)

    def right(self, b, out):  # rho -> rho B, as sandwich(eye, b)
        return np.multiply(self.eye_kets, self.gather(b.T, self.bra, out), out=out)

    def coherent(self, a, b, out, work):  # rho -> -i (A rho - rho B)
        np.subtract(self.left(a, out), self.right(b, work), out=out)
        return np.multiply(-1j, out, out=out)

    def jump(self, rate, a, out, work):  # rho -> rate * a rho a^dag
        return np.multiply(rate, self.sandwich(a, a.conj().T, out, work), out=out)

    def dissipator(self, a, out, work, work2):  # rho -> a rho a^dag - {a^dag a, rho} / 2
        ada = a.conj().T @ a
        self.sandwich(a, a.conj().T, out, work)
        np.add(self.left(ada, work), self.right(ada, work2), out=work)
        return np.subtract(out, np.multiply(0.5, work, out=work), out=out)


@dataclass(eq=False)
class LiouvillianParts:
    """Full generator on the sector, and the 2^L operators its parts are built from.

    Entry s of a sector vector is rho[ket[s], bra[s]]; ``ket`` and ``bra``
    are computed on each read, not stored.  ``c_ops`` are the 2^L fermion
    operators, ``h_eff`` the 2^L effective Hamiltonian, ``jump_ops[label]``
    the 2^L operator a of each channel and ``rates[label]`` its rate.  The
    no-click generator -i (H_eff rho - rho H_eff^dag) and the four jump
    superoperators rate * (rho -> a rho a^dag) are built on the sector the
    first time they are read, by the expressions that checked the sum rule,
    and kept from then on.
    """

    full: np.ndarray
    c_ops: list[np.ndarray]
    h_eff: np.ndarray
    jump_ops: dict[str, np.ndarray]
    rates: dict[str, float]

    @property
    def ket(self) -> np.ndarray:
        return _sector_pairs(len(self.c_ops))[0]

    @property
    def bra(self) -> np.ndarray:
        return _sector_pairs(len(self.c_ops))[1]

    @cached_property
    def no_click(self) -> np.ndarray:
        sector = _Sector(len(self.c_ops))
        return sector.coherent(self.h_eff, self.h_eff.conj().T, sector.empty(), sector.empty())

    @cached_property
    def jumps(self) -> dict[str, np.ndarray]:
        sector = _Sector(len(self.c_ops))
        work = sector.empty()
        return {
            label: sector.jump(self.rates[label], a, sector.empty(), work)
            for label, a in self.jump_ops.items()
        }


def build_liouvillian(spec: ChainSpec) -> LiouvillianParts:
    """Assemble the master-equation superoperators for a chain spec.

    The full generator (Lindblad dissipators) is assembled in one buffer.
    The no-click generator (from the non-Hermitian effective Hamiltonian)
    and the four jump sandwiches are built independently from the one
    channel table and streamed into one residual buffer, each freed after
    use, to assert the sum rule full = no_click + sum(jumps), which
    cross-validates the effective-Hamiltonian decomposition.
    """
    c_ops = build_fermions(spec.L)
    c1, cL = c_ops[0], c_ops[-1]
    jump_ops = {"1-": c1, "1+": c1.conj().T, "L-": cL, "L+": cL.conj().T}
    rates = {label: channel.rate for label, channel in channels(spec).items()}
    sector = _Sector(spec.L)
    full, buffers = sector.empty(), [sector.empty() for _ in range(3)]

    h_many = quadratic_form_operator(spec.h, c_ops)
    sector.coherent(h_many, h_many, full, buffers[0])
    for label, a in jump_ops.items():
        dissipator = sector.dissipator(a, *buffers)
        np.add(full, np.multiply(rates[label], dissipator, out=dissipator), out=full)
    h_eff = h_many - 0.5j * sum(rates[label] * (a.conj().T @ a) for label, a in jump_ops.items())

    # full - (no_click + sum(jumps)): no_click, then each jump, summed into
    # one buffer in the order of the sum rule.
    residual, work, work2 = buffers
    sector.coherent(h_eff, h_eff.conj().T, residual, work)
    for label, a in jump_ops.items():
        np.add(residual, sector.jump(rates[label], a, work, work2), out=residual)
    del buffers, work, work2  # freed before the check's temporaries
    np.subtract(full, residual, out=residual)
    scale = max(1.0, np.max(np.abs(full)))
    if np.max(np.abs(residual)) > 1e-12 * scale:
        raise AssertionError("generator decomposition full = no_click + jumps failed")
    return LiouvillianParts(full=full, c_ops=c_ops, h_eff=h_eff, jump_ops=jump_ops, rates=rates)


def _as_label(k) -> str:
    label = k.label if isinstance(k, Channel) else str(k)
    if label not in CHANNEL_ORDER:
        raise ValueError(f"unknown channel {label!r}, expected one of {CHANNEL_ORDER}")
    return label


class FockOracle:
    """Cached many-body machinery for one chain spec.

    Builds the fermion operators, the sector generator and the 2^L no-click
    propagator e^{-i H_eff t} once, and holds only those: the sector's
    no-click part and jumps (``parts.no_click``, ``parts.jumps``) are built
    only if read, and its index arrays on each read.  The per-call work of
    :meth:`wtd_matrix` is one jump sandwich per conditioning channel, then
    per time one propagator matrix G and one sandwich G rho G^dag per
    channel that can click, all 2^L x 2^L; :meth:`wtd` is one entry of the
    table at one time.  The C(2L, L) sector generator serves only
    :meth:`steady_state`, through its singular values and one LU solve.
    Density matrices go in and come out as full 2^L x 2^L arrays.
    """

    def __init__(self, spec: ChainSpec):
        self.spec = spec
        self.parts = build_liouvillian(spec)
        self.c_ops = self.parts.c_ops
        self.propagator = Propagator(-1j * self.parts.h_eff)
        self.dim = 2**spec.L
        ch = channels(spec)
        self._channels = [ch[label] for label in CHANNEL_ORDER]

    def wtd_matrix(self, ts, rho: np.ndarray) -> np.ndarray:
        """All sixteen densities P(t, k|q) at n times, as an (n, 4, 4) table.

        Entry [m, a, b] is k = CHANNEL_ORDER[a] at t = ts[m] after a click
        in q = CHANNEL_ORDER[b] at 0.  Direct evaluation: apply each jump q
        to rho as rate_q * a_q rho a_q^dag, evolve with G rho G^dag for
        G = e^{-i H_eff t}, and read every rate_k * tr(a_k rho(t) a_k^dag)
        over tr of the jumped state.  A column whose q cannot click from rho
        (``model.can_click``) is NaN.  The table at each time is the same
        in every stack of times it is evaluated in.
        """
        ts = np.asarray(ts, dtype=float)
        if ts.ndim != 1:
            raise ValueError(f"times must be a 1-D array, got shape {ts.shape}")
        if np.any(ts < 0):
            raise ValueError("time must be nonnegative")
        n_ch = len(CHANNEL_ORDER)
        table = np.full((len(ts), n_ch, n_ch), np.nan, dtype=complex)
        rates = np.array([q.rate for q in self._channels])
        ops = np.stack([self.parts.jump_ops[label] for label in CHANNEL_ORDER])
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
        ket, bra = _sector_pairs(self.spec.L)
        diagonal = ket == bra
        row = int(np.argmax(diagonal))
        a = full.copy()
        a[row] = diagonal
        rhs = np.zeros(full.shape[0], dtype=complex)
        rhs[row] = 1.0
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        rho[ket, bra] = np.linalg.solve(a, rhs)
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
