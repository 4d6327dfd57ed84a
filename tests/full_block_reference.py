"""Full-block reference for the waiting-time densities, kept for differential tests.

This is the straightforward form of the closed-form kernel: every block is
built as a full L x L matrix from a fresh ``scipy.linalg.expm(-Q t)``, and
the densities read their entries at the bath sites.  The program computes
only the 2 x 2 boundary entries from a shared propagator; the two must agree
to roundoff.
"""

import numpy as np
import scipy.linalg as sla

from fermiwait.model import CHANNEL_ORDER


def _full_blocks(t, c, sp):
    L = sp.L
    eye = np.eye(L, dtype=complex)
    g = sla.expm(-sp.Q * t)
    gd = g.conj().T
    one_minus_c = eye - c
    a = one_minus_c + gd @ g @ c
    lu = sla.lu_factor(a)
    sign, logabs = np.linalg.slogdet(a)
    ainv_gd = sla.lu_solve(lu, gd)
    c_ainv = sla.lu_solve(lu, c.conj().T, trans=2).conj().T
    ext_right = c @ ainv_gd
    tmat = g @ ext_right
    return {
        "T": tmat,
        "inj_same": one_minus_c @ ainv_gd @ g,
        "inj_left": (eye - tmat) @ g,
        "inj_right": one_minus_c @ ainv_gd,
        "ext_same": c_ainv,
        "ext_left": g @ c_ainv,
        "ext_right": ext_right,
        "prefactor": sign * np.exp(-sp.gamma_total * t + logabs),
        "amplification": np.linalg.cond(a, 1) * max(1.0, np.max(np.abs(g))) ** 2,
    }


def _entry(blk, c, k, q):
    i, j = k.site_index, q.site_index
    if q.sign == "+":
        denom = 1.0 - c[j, j].real
        diag = blk["inj_same"][j, j]
        cross = blk["inj_left"][i, j] * blk["inj_right"][j, i]
        b = diag * blk["T"][i, i] + cross if k.sign == "-" else diag * (1.0 - blk["T"][i, i]) - cross
    else:
        denom = c[j, j].real
        diag = blk["ext_same"][j, j]
        cross = blk["ext_left"][i, j] * blk["ext_right"][j, i]
        b = diag * blk["T"][i, i] - cross if k.sign == "-" else diag * (1.0 - blk["T"][i, i]) + cross
    if denom <= 1e-14:
        return 0.0
    return max((k.rate / denom) * (blk["prefactor"] * b).real, 0.0)


def _vacuum_entry(g, decay, k, q):
    if q.sign == "-":
        return 0.0
    i, j = k.site_index, q.site_index
    hop = abs(g[i, j]) ** 2
    if k.sign == "-":
        return k.rate * decay * hop
    return max(k.rate * decay * (np.vdot(g[:, j], g[:, j]).real - hop), 0.0)


def reference_density_matrix(t, state, sp):
    """All sixteen densities at time t in CHANNEL_ORDER, impossible columns zero.

    Also returns the roundoff amplification cond_1(A) * max(1, max|G|)^2 of
    the closed form (max(1, max|G|)^2 for the vacuum, which needs no solve):
    where a bath has f > 1/2, G = e^{-Qt} can grow with t, and the terms of
    each bracket grow with |G|^2 before the prefactor scales them back.
    """
    ch = sp.channels
    out = np.zeros((4, 4))
    if state.kind == "vacuum":
        g = sla.expm(-sp.Q * t)
        decay = np.exp(-sp.gamma_total * t)
        for a, kl in enumerate(CHANNEL_ORDER):
            for b, ql in enumerate(CHANNEL_ORDER):
                out[a, b] = _vacuum_entry(g, decay, ch[kl], ch[ql])
        return out, max(1.0, np.max(np.abs(g))) ** 2
    blk = _full_blocks(t, state.C, sp)
    for a, kl in enumerate(CHANNEL_ORDER):
        for b, ql in enumerate(CHANNEL_ORDER):
            out[a, b] = _entry(blk, state.C, ch[kl], ch[ql])
    return out, blk["amplification"]
