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
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .linalg import LogDet, LUFactors, expm, lu_logdet, solve_factored

TWO_INSERT_KINDS = ("adjacent", "split_mp", "split_pp", "split_mm", "split_pm")


class QuadraticFormChain:
    """Ordered list of exponentiated quadratic forms, as e^{X_k} matrices.

    Built from the coefficient matrices X_k: each is exponentiated once,
    and its inverse is taken as e^{-X_k} rather than by inversion, for
    accuracy.  All e^{X_k} and e^{-X_k} come from one stacked expm call.
    The product P, the LU factorization of 1 + P with D = det(1 + P), and
    T = P (1 + P)^{-1} are each computed on first use and then kept, so the
    formulas below share them.  :meth:`prefix` gives the chain of the first
    n factors on the same exponentials, with no further expm call.
    """

    def __init__(self, matrices: Sequence[np.ndarray]):
        mats = [np.asarray(m, dtype=complex) for m in matrices]
        if not mats:
            raise ValueError("chain must contain at least one factor")
        dim = mats[0].shape[0]
        for m in mats:
            if m.ndim != 2 or m.shape != (dim, dim):
                raise ValueError(
                    f"all factors must be square of equal dimension, got {m.shape}"
                )
        both = expm(np.stack(mats + [-m for m in mats]))
        self._reset(list(both[: len(mats)]), list(both[len(mats) :]))

    def _reset(self, exps: list[np.ndarray], inv_exps: list[np.ndarray]):
        self.exps, self.inv_exps = exps, inv_exps
        self._product = self._factors = self._kernel = None

    def prefix(self, n: int) -> "QuadraticFormChain":
        """The chain of the first n factors, sharing their exponentials."""
        if not 1 <= n <= len(self):
            raise ValueError(f"prefix length must lie in [1, {len(self)}], got {n}")
        head = object.__new__(QuadraticFormChain)
        head._reset(self.exps[:n], self.inv_exps[:n])
        return head

    @property
    def dim(self) -> int:
        return self.exps[0].shape[0]

    def __len__(self) -> int:
        return len(self.exps)

    def product(self) -> np.ndarray:
        """P = e^{X_1} e^{X_2} ... in chain order, computed once."""
        if self._product is None:
            p = self.exps[0]
            for m in self.exps[1:]:
                p = p @ m
            self._product = p
        return self._product

    def _one_plus_product(self) -> tuple[LUFactors, LogDet]:
        if self._factors is None:
            self._factors = lu_logdet(np.eye(self.dim, dtype=complex) + self.product())
        return self._factors

    def det(self) -> LogDet:
        """D = det(1 + P), computed once."""
        return self._one_plus_product()[1]

    def kernel(self) -> np.ndarray:
        """T = P (1 + P)^{-1}, computed once."""
        if self._kernel is None:
            self._kernel = solve_factored(self._one_plus_product()[0], self.product())
        return self._kernel


def _check_index(chain: QuadraticFormChain, *indices: int):
    for i in indices:
        if not 0 <= i < chain.dim:
            raise IndexError(f"mode index {i} out of range for dimension {chain.dim}")


def bss_trace(chain: QuadraticFormChain) -> LogDet:
    """Fock-space trace of the ordered product, as det(1 + prod_k e^{X_k})."""
    return chain.det()


def trace_one_insert(i: int, i_prime: int, chain: QuadraticFormChain) -> complex:
    """Fock trace of c_i^dag c_{i'} times the ordered product: D * T[i', i]."""
    _check_index(chain, i, i_prime)
    return chain.det().value * chain.kernel()[i_prime, i]


def trace_two_insert_chain(
    kind: str,
    indices: tuple[int, int, int, int],
    chain: QuadraticFormChain,
) -> complex:
    """Fock trace with two bilinear insertions into a three-factor product.

    ``indices`` is (i, i', j, j').  Writing the three factors as U, V, W
    (single-particle exponentials u = e^X, v = e^Y, w = e^Z), the operator
    patterns are

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
    i, ip, j, jp = indices
    _check_index(chain, i, ip, j, jp)

    u, v, _w = chain.exps
    ui, vi, wi = chain.inv_exps
    d, t = chain.det().value, chain.kernel()
    delta_ii = 1.0 if i == ip else 0.0

    # Building blocks shared by several kinds.
    ut_u = ui @ t  # e^{-X} T
    t_u = ut_u @ u  # e^{-X} T e^X

    if kind == "adjacent":
        t_zw = t @ wi @ vi  # T e^{-Z} e^{-Y}
        return d * (t_u[jp, j] * t[ip, i] + t_zw[ip, j] * ut_u[jp, i])

    if kind == "split_mp":
        vut = vi @ ut_u  # e^{-Y} e^{-X} T
        vut_u = vi @ t_u  # e^{-Y} e^{-X} T e^X
        t_zw = t @ wi @ vi
        return d * (vut_u[jp, j] * t[ip, i] + t_zw[ip, j] * vut[jp, i])

    if kind == "split_pp":
        vut = vi @ ut_u
        vut_u = vi @ t_u
        t_zw = t @ wi @ vi
        return d * (
            vut_u[jp, j] * (delta_ii - t[i, ip]) - t_zw[i, j] * vut[jp, ip]
        )

    t_uv = t_u @ v  # e^{-X} T e^X e^Y
    t_z = t @ wi  # T e^{-Z}
    if kind == "split_mm":
        return d * (
            (v[j, jp] - t_uv[j, jp]) * t[ip, i] - t_z[ip, jp] * ut_u[j, i]
        )
    # split_pm
    return d * (
        (v[j, jp] - t_uv[j, jp]) * (delta_ii - t[i, ip])
        + t_z[i, jp] * ut_u[j, ip]
    )


def conjugation_residual(chain: QuadraticFormChain) -> float:
    """Max-norm residual of e^{-X} T e^{-Z} e^{-Y} = 1 - e^{-X} T e^X.

    This identity underpins the cancellation of the auxiliary constant in
    the derivation of the two-insertion formulas; it must hold for any
    three-factor chain.
    """
    if len(chain) != 3:
        raise ValueError("identity is stated for three factors")
    ui, vi, wi = chain.inv_exps
    u = chain.exps[0]
    t = chain.kernel()
    lhs = ui @ t @ wi @ vi
    rhs = np.eye(chain.dim, dtype=complex) - ui @ t @ u
    return float(np.max(np.abs(lhs - rhs)))


def trace_one_insert_alpha_route(
    i: int, chain: QuadraticFormChain, alpha: float
) -> complex:
    """Diagonal one-insertion trace via the finite-alpha factorization.

    Uses e^{alpha n_i} = 1 + (e^alpha - 1) |i><i| to express
    tr{n_i e^X ...} as a difference of two bare traces divided by
    (e^alpha - 1).  The result must be independent of alpha; comparing a
    few alphas against :func:`trace_one_insert` is a strong self-test.
    """
    _check_index(chain, i)
    p = chain.product()
    eye = np.eye(chain.dim, dtype=complex)
    e_alpha = eye.copy()
    e_alpha[i, i] = np.exp(alpha)
    _, det_with = lu_logdet(eye + e_alpha @ p)
    return (det_with.value - chain.det().value) / (np.expm1(alpha))
