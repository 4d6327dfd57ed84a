"""Trace-determinant identities for products of fermionic quadratic forms.

Every operator here is of the form exp(sum_ij (X_k)_ij c_i^dag c_j), i.e. an
exponentiated number-conserving quadratic form, represented by its L x L
coefficient matrix.  Traces over the 2^L-dimensional Fock space of products
of such operators, optionally with one or two c^dag/c insertions, reduce to
determinants and matrix elements on the L x L single-particle space.

With P the ordered product of the single-particle exponentials, the two
recurring objects are

    D = det(1 + P)           (Fock trace of the bare product)
    T = P (1 + P)^{-1}       (occupation-like kernel)

The insertion formulas below are exact for arbitrary complex coefficient
matrices and arbitrary index placement; the factor ordering is never
rearranged because the quadratic forms do not commute.

Every formula takes one chain or a stack of n chains of equal length and
dimension (:class:`QuadraticFormChain`), and each mode index is an int or
an (n,) integer array, one index per member of the stack.  A stack gives
(n,) arrays, one value per member; one chain is evaluated as a stack of
one, so each formula has one implementation, and gives a scalar (D as a
:class:`LogDet`, D itself for each member of a stack).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .linalg import LinalgError, LogDet, checked_slogdet, expm

TWO_INSERT_KINDS = ("adjacent", "split_mp", "split_pp", "split_mm", "split_pm")


class QuadraticFormChain:
    """Ordered list of exponentiated quadratic forms, as e^{X_k} matrices.

    Built from the coefficient matrices X_k, each (L, L) for one chain or
    (n, L, L) for a stack of n chains: each is exponentiated once, and its
    inverse is taken as e^{-X_k} rather than by inversion, for accuracy.
    All e^{X_k} and e^{-X_k} of the stack come from one stacked expm call,
    kept as ``exps`` and ``inv_exps`` of shape (factors, n, L, L), with
    n = 1 for one chain.  The product P, D = det(1 + P) (numpy's
    ``slogdet``) and T = P (1 + P)^{-1} (numpy's ``solve``) are each
    computed on first use for the whole stack and then kept, so the
    formulas below share them; an exactly singular 1 + P in any member is a
    :class:`LinalgError`.  :meth:`prefix` gives the chain of the first n
    factors on the same exponentials, with no further expm call.
    """

    def __init__(self, matrices: Sequence[np.ndarray]):
        mats = [np.asarray(m, dtype=complex) for m in matrices]
        if not mats:
            raise ValueError("chain must contain at least one factor")
        shape = mats[0].shape
        for m in mats:
            if m.ndim not in (2, 3) or m.shape != shape or shape[-1] != shape[-2]:
                raise ValueError(
                    "all factors must be square of equal dimension and stack length, "
                    f"got {m.shape}"
                )
        self.stacked = len(shape) == 3
        n, dim = (shape[0] if self.stacked else 1), shape[-1]
        both = expm(np.stack(mats + [-m for m in mats])).reshape(2 * len(mats), n, dim, dim)
        self._reset(both[: len(mats)], both[len(mats) :])

    def _reset(self, exps: np.ndarray, inv_exps: np.ndarray):
        self.exps, self.inv_exps = exps, inv_exps
        self._product = self._det = self._kernel = None

    def prefix(self, n: int) -> "QuadraticFormChain":
        """The chain of the first n factors, sharing their exponentials."""
        if not 1 <= n <= len(self):
            raise ValueError(f"prefix length must lie in [1, {len(self)}], got {n}")
        head = object.__new__(QuadraticFormChain)
        head.stacked = self.stacked
        head._reset(self.exps[:n], self.inv_exps[:n])
        return head

    @property
    def dim(self) -> int:
        return self.exps.shape[-1]

    @property
    def size(self) -> int:
        """Number of chains in the stack (1 for one chain)."""
        return self.exps.shape[1]

    def __len__(self) -> int:
        return len(self.exps)

    def _result(self, x):
        """Per-member values as the caller's shape: the one member of one chain."""
        return x if self.stacked else x[0]

    def _stack_product(self) -> np.ndarray:
        if self._product is None:
            p = self.exps[0]
            for m in self.exps[1:]:
                p = p @ m
            self._product = p
        return self._product

    def _stack_det(self) -> tuple[np.ndarray, np.ndarray]:
        """(sign, log|D|) of each member."""
        if self._det is None:
            self._det = checked_slogdet(np.eye(self.dim) + self._stack_product(), "1 + P")
        return self._det

    def _stack_det_value(self) -> np.ndarray:
        """D of each member."""
        sign, log_abs = self._stack_det()
        return np.exp(log_abs) * sign

    def _stack_kernel(self) -> np.ndarray:
        if self._kernel is None:
            p = self._stack_product()
            try:
                self._kernel = np.linalg.solve(np.eye(self.dim) + p, p)
            except np.linalg.LinAlgError:  # an exactly zero pivot
                raise LinalgError("1 + P is exactly singular") from None
        return self._kernel

    def product(self) -> np.ndarray:
        """P = e^{X_1} e^{X_2} ... in chain order, computed once."""
        return self._result(self._stack_product())

    def det(self):
        """D = det(1 + P), computed once: a LogDet for one chain, an (n,) array of D for a stack."""
        if self.stacked:
            return self._stack_det_value()
        sign, log_abs = self._stack_det()
        return LogDet(float(log_abs[0]), complex(sign[0]))

    def kernel(self) -> np.ndarray:
        """T = P (1 + P)^{-1}, computed once."""
        return self._result(self._stack_kernel())


def _indices(chain: QuadraticFormChain, *indices) -> tuple[np.ndarray, ...]:
    """The stack's row numbers, then each mode index as an (n,) array, range-checked."""
    out = [np.arange(chain.size)]
    for i in indices:
        i = np.broadcast_to(np.asarray(i), (chain.size,))
        bad = (i < 0) | (i >= chain.dim)
        if bad.any():
            raise IndexError(
                f"mode index {i[bad][0]} out of range for dimension {chain.dim}"
            )
        out.append(i)
    return tuple(out)


def bss_trace(chain: QuadraticFormChain):
    """Fock-space trace of the ordered product, as det(1 + prod_k e^{X_k}) (:meth:`~QuadraticFormChain.det`)."""
    return chain.det()


def trace_one_insert(i, i_prime, chain: QuadraticFormChain):
    """Fock trace of c_i^dag c_{i'} times the ordered product: D * T[i', i]."""
    rows, i, ip = _indices(chain, i, i_prime)
    return chain._result(chain._stack_det_value() * chain._stack_kernel()[rows, ip, i])


def trace_two_insert_chain(kind: str, indices, chain: QuadraticFormChain):
    """Fock trace with two bilinear insertions into a three-factor product.

    ``indices`` is (i, i', j, j'), each an int or an index array over the
    stack.  Writing the three factors as U, V, W (single-particle
    exponentials u = e^X, v = e^Y, w = e^Z), the operator patterns are

        adjacent:  c_i^dag c_{i'}  U  c_j^dag c_{j'}  V W
        split_mp:  c_i^dag c_{i'}  U  c_j^dag  V  c_{j'}  W
        split_pp:  c_i c_{i'}^dag  U  c_j^dag  V  c_{j'}  W
        split_mm:  c_i^dag c_{i'}  U  c_j  V  c_{j'}^dag  W
        split_pm:  c_i c_{i'}^dag  U  c_j  V  c_{j'}^dag  W

    Results carry the determinant factor D reattached from log form.
    """
    if kind not in TWO_INSERT_KINDS:
        raise ValueError(f"unknown kind {kind!r}, expected one of {TWO_INSERT_KINDS}")
    if len(chain) != 3:
        raise ValueError("two-insertion traces need exactly three factors")
    rows, i, ip, j, jp = _indices(chain, *indices)

    def at(m, a, b):  # m[a, b] of each member
        return m[rows, a, b]

    u, v, _w = chain.exps
    ui, vi, wi = chain.inv_exps
    d, t = chain._stack_det_value(), chain._stack_kernel()
    delta_ii = (i == ip).astype(float)

    # Building blocks shared by several kinds.
    ut_u = ui @ t  # e^{-X} T
    t_u = ut_u @ u  # e^{-X} T e^X

    if kind == "adjacent":
        t_zw = t @ wi @ vi  # T e^{-Z} e^{-Y}
        out = d * (at(t_u, jp, j) * at(t, ip, i) + at(t_zw, ip, j) * at(ut_u, jp, i))
    elif kind in ("split_mp", "split_pp"):
        vut = vi @ ut_u  # e^{-Y} e^{-X} T
        vut_u = vi @ t_u  # e^{-Y} e^{-X} T e^X
        t_zw = t @ wi @ vi
        if kind == "split_mp":
            out = d * (at(vut_u, jp, j) * at(t, ip, i) + at(t_zw, ip, j) * at(vut, jp, i))
        else:
            out = d * (
                at(vut_u, jp, j) * (delta_ii - at(t, i, ip)) - at(t_zw, i, j) * at(vut, jp, ip)
            )
    else:
        t_uv = t_u @ v  # e^{-X} T e^X e^Y
        t_z = t @ wi  # T e^{-Z}
        if kind == "split_mm":
            out = d * (
                (at(v, j, jp) - at(t_uv, j, jp)) * at(t, ip, i) - at(t_z, ip, jp) * at(ut_u, j, i)
            )
        else:  # split_pm
            out = d * (
                (at(v, j, jp) - at(t_uv, j, jp)) * (delta_ii - at(t, i, ip))
                + at(t_z, i, jp) * at(ut_u, j, ip)
            )
    return chain._result(out)


def conjugation_residual(chain: QuadraticFormChain):
    """Max-norm residual of e^{-X} T e^{-Z} e^{-Y} = 1 - e^{-X} T e^X.

    This identity underpins the cancellation of the auxiliary constant in
    the derivation of the two-insertion formulas; it must hold for any
    three-factor chain.
    """
    if len(chain) != 3:
        raise ValueError("identity is stated for three factors")
    ui, vi, wi = chain.inv_exps
    u = chain.exps[0]
    t = chain._stack_kernel()
    lhs = ui @ t @ wi @ vi
    rhs = np.eye(chain.dim, dtype=complex) - ui @ t @ u
    return chain._result(np.max(np.abs(lhs - rhs), axis=(-2, -1)))


def trace_one_insert_alpha_route(i, chain: QuadraticFormChain, alpha: float):
    """Diagonal one-insertion trace via the finite-alpha factorization.

    Uses e^{alpha n_i} = 1 + (e^alpha - 1) |i><i| to express
    tr{n_i e^X ...} as a difference of two bare traces divided by
    (e^alpha - 1).  The result must be independent of alpha; comparing a
    few alphas against :func:`trace_one_insert` is a strong self-test.
    """
    rows, i = _indices(chain, i)
    scaled = chain._stack_product().copy()
    scaled[rows, i] *= np.exp(alpha)  # e^{alpha n_i} P scales row i of P
    sign, log_abs = checked_slogdet(np.eye(chain.dim) + scaled, "1 + e^{alpha n_i} P")
    return chain._result((np.exp(log_abs) * sign - chain._stack_det_value()) / np.expm1(alpha))
