"""Full-block reference for the waiting-time densities, kept for differential tests.

This is the straightforward form of the closed-form kernel: every block is
built as a full L x L matrix from a fresh ``scipy.linalg.expm(-Q t)``, and
the densities read their entries at the bath sites.  The program computes
only the 2 x 2 boundary entries from a shared propagator; the two must agree
to roundoff.  ``mp_steady_density_matrix`` evaluates the same blocks in
50-digit ``mpmath`` arithmetic, for points where double precision fails.
"""

import mpmath as mp
import numpy as np
import scipy.linalg as sla

from fermiwait.model import CHANNEL_ORDER, channels


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


def _mp_steady_covariance(w, f, L):
    """W C + C W^dag = F as one dense (L^2 x L^2) solve, row-major vec(C)."""
    big = mp.zeros(L * L, L * L)
    for i in range(L):
        for j in range(L):
            for k in range(L):
                big[i * L + j, k * L + j] += w[i, k]
                big[i * L + j, i * L + k] += mp.conj(w[j, k])
    vec = mp.lu_solve(big, mp.matrix([f[i, j] for i in range(L) for j in range(L)]))
    return mp.matrix([[vec[i * L + j] for j in range(L)] for i in range(L)])


def mp_steady_density_matrix(spec, t, dps=50):
    """All sixteen steady-state densities at time t from the full blocks in ``dps`` digits.

    W, F, the steady covariance, G = expm(-Q t), A and its inverse are all
    built in mpmath from the spec alone; only the channel rates are the
    double-precision table's.  Meant for L <= 4.
    """
    L = spec.L
    ch = channels(spec)
    with mp.workdps(dps):
        w = mp.matrix([[1j * mp.mpc(complex(x)) for x in row] for row in spec.h])
        w[0, 0] += mp.mpf(spec.gamma1) / 2
        w[L - 1, L - 1] += mp.mpf(spec.gammaL) / 2
        f = mp.zeros(L, L)
        f[0, 0] = mp.mpf(spec.gamma1) * mp.mpf(spec.f1)
        f[L - 1, L - 1] = mp.mpf(spec.gammaL) * mp.mpf(spec.fL)
        c = _mp_steady_covariance(w, f, L)
        eye = mp.eye(L)
        g = mp.expm(-(w - f) * t)
        a = (eye - c) + g.H * g * c
        ainv = mp.inverse(a)
        tmat = g * c * ainv * g.H
        blk = {
            "T": tmat,
            "inj_same": (eye - c) * ainv * g.H * g,
            "inj_left": (eye - tmat) * g,
            "inj_right": (eye - c) * ainv * g.H,
            "ext_same": c * ainv,
            "ext_left": g * c * ainv,
            "ext_right": c * ainv * g.H,
            "prefactor": mp.exp(-(f[0, 0] + f[L - 1, L - 1]) * t) * mp.det(a),
        }
        out = np.zeros((4, 4))
        for a_, kl in enumerate(CHANNEL_ORDER):
            for b_, ql in enumerate(CHANNEL_ORDER):
                out[a_, b_] = float(_entry(blk, c, ch[kl], ch[ql]))
        return out
