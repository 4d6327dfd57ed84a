"""Full 2^L x 2^L Fock-space reference for the oracle, kept for differential tests.

This is the straightforward form of the many-body superoperators: density
matrices are vectorized row-major over the whole 4^L space, so a sandwich
A rho B becomes kron(A, B.T).  The program builds no superoperator: its
oracle evolves 2^L sandwiches and takes its steady state from the closure
of the bilinears c_j^dag c_i.  Both are compared with this reference.  No
entry of these generators couples the N_ket = N_bra sector to the rest, so
a test may restrict them to that sector, C(2L, L) square.
"""

import numpy as np
import scipy.linalg as sla

from fermiwait.fock import build_fermions, quadratic_form_operator
from fermiwait.model import channels


def _spre(a):
    return np.kron(a, np.eye(a.shape[0]))


def _spost(b):
    return np.kron(np.eye(b.shape[0]), b.T)


def _sandwich(a, b):
    return np.kron(a, b.T)


def _dissipator(a):
    ada = a.conj().T @ a
    return _sandwich(a, a.conj().T) - 0.5 * (_spre(ada) + _spost(ada))


def full_liouvillian(spec):
    """(full, no_click, jumps) as 4^L x 4^L superoperators on row-major vec(rho)."""
    c_ops = build_fermions(spec.L)
    c1, cL = c_ops[0], c_ops[-1]
    ch = channels(spec)

    h_many = quadratic_form_operator(spec.h, c_ops)
    full = -1j * (_spre(h_many) - _spost(h_many))
    for op, site in ((c1, "1"), (cL, "L")):
        full = full + ch[site + "-"].rate * _dissipator(op)
        full = full + ch[site + "+"].rate * _dissipator(op.conj().T)

    jumps = {
        "1-": ch["1-"].rate * _sandwich(c1, c1.conj().T),
        "1+": ch["1+"].rate * _sandwich(c1.conj().T, c1),
        "L-": ch["L-"].rate * _sandwich(cL, cL.conj().T),
        "L+": ch["L+"].rate * _sandwich(cL.conj().T, cL),
    }

    h_eff = h_many - 0.5j * (
        ch["1-"].rate * (c1.conj().T @ c1)
        + ch["1+"].rate * (c1 @ c1.conj().T)
        + ch["L-"].rate * (cL.conj().T @ cL)
        + ch["L+"].rate * (cL @ cL.conj().T)
    )
    no_click = -1j * (_spre(h_eff) - np.kron(np.eye(h_eff.shape[0]), h_eff.conj()))
    return full, no_click, jumps


def full_steady_state(full, dim):
    """Trace-1 Hermitian null vector of the full-space generator."""
    rho = np.linalg.svd(full)[2][-1].conj().reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def full_wtd(evolve, jumps, kl, ql, rho):
    """tr(J_k evolve J_q rho) / tr(J_q rho), with evolve = expm(L0 t) of the full L0."""
    dim = rho.shape[0]
    v = jumps[ql] @ rho.reshape(-1)
    num = jumps[kl] @ (evolve @ v)
    return (np.trace(num.reshape(dim, dim)) / np.trace(v.reshape(dim, dim))).real
