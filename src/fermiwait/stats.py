"""Integrals and moments over the waiting-time densities.

Every statistic is a read of one vector-valued quadrature pass per state.
The pass integrates the time moments

    M_n[k, q] = int_0^inf t^n P(t, k|q) dt,    n = 0, 1, 2,

of all sixteen channel pairs together, from the 4 x 4 table that
``wtd_density_matrix`` builds out of one set of L x L blocks per node.
Channel probabilities are M_0, conditional means and variances follow from
M_1 / M_0 and M_2 / M_0, the net activity (NATD) moments are the
click-frequency mixtures of the column sums of M_1 and M_2, and the
normalization audit is a column sum of M_0.  The pass runs once per
(state, single-particle set, tol, t_cut) and is kept on the set, so reading
several entries or columns does not repeat it.

The improper integral is certified, not extrapolated.  Every density carries
the uniform decay envelope rate * e^{-Gamma t} * (bounded matrix factor), so
the mass beyond a cutoff T is bounded by the largest component at T with a
polynomial correction for the t^2 weight.  The cutoff is extended,
integrating only the added interval, until that bound is below tol / 10.
On each interval the adaptive Gauss-Kronrod scheme of
``scipy.integrate.quad_vec`` refines until the largest componentwise error
estimate is below tol / 2, or below 1e-10 times the largest component.

The pass integrates [P, (Gamma t) P, (Gamma t)^2 P], whose integrals are all
of order one, and divides the last two blocks by Gamma and Gamma^2
afterwards.  Each block n thus meets tol / 2 in units of Gamma^-n (for tol
above a few 1e-10, where the relative target is the smaller), and the pass's
``abs_error_estimate`` and ``truncation_tail_bound`` are in these units.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad_vec

from .model import (
    CHANNEL_ORDER,
    MIN_CLICK_WEIGHT,
    Channel,
    GaussianState,
    SingleParticleSet,
    click_weight,
)
from .wtd import wtd_density_matrix

DEFAULT_TOL = 1e-8

#: Channel probabilities below this are treated as "this sequence never
#: happens" and conditional moments are undefined.
EPS_PROBABILITY = 1e-12

_QUAD_VEC_STATUS = {1: "subdivision limit reached", 2: "roundoff error", 3: "non-finite integrand"}


class QuadratureError(Exception):
    """Adaptive refinement failed or the tail cannot be bounded."""


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with error and truncation accounting.

    ``value`` has the shape of the integrand's output.  ``evaluations``
    counts every integrand call, the tail probes at the cutoffs included.
    """

    value: float | np.ndarray
    abs_error_estimate: float
    evaluations: int
    truncation_tail_bound: float
    t_cut: float


@dataclass(frozen=True)
class ChannelStats:
    """Channel-resolved summary tables, indexed by CHANNEL_ORDER.

    ``p_kq[a, b]`` is the probability that a click in channel
    CHANNEL_ORDER[b] is followed by one in CHANNEL_ORDER[a]; ``mean`` and
    ``variance`` are the conditional waiting-time moments of that pair
    (NaN where the pair has vanishing probability); ``p_q`` are the
    relative click frequencies.  ``moments[n, a, b]`` is the raw integral
    of t^n P(t, a|b), and ``quadrature`` accounts for the pass that
    produced it.  Columns of channels that never click are NaN throughout.
    """

    p_kq: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    p_q: np.ndarray
    moments: np.ndarray
    quadrature: QuadratureResult
    order: tuple[str, ...] = CHANNEL_ORDER

    def natd_moments(self) -> tuple[float, float]:
        """Mean and variance of the time between consecutive clicks.

        Only meaningful for the steady state, where p_q is stationary.
        """
        clicks = self.p_q > 0.0
        m1, m2 = (float(self.p_q[clicks] @ self.moments[n][:, clicks].sum(0)) for n in (1, 2))
        return m1, max(m2 - m1**2, 0.0)

    def normalization(self) -> dict[str, float | None]:
        """Total probability sum_k p(k|q) per conditioning channel q, from M_0.

        Should be 1 for every channel that clicks; None for those that never do.
        """
        totals = self.moments[0].sum(axis=0)
        return {q: None if np.isnan(s) else float(s) for q, s in zip(self.order, totals)}


def integrate_semiinfinite(
    f,
    tol: float = DEFAULT_TOL,
    *,
    decay_rate: float,
    amplitude: float = 1.0,
    poly_degree: int = 0,
    t_cut: float | None = None,
    limit: int = 400,
) -> QuadratureResult:
    """Integrate a scalar- or array-valued f over [0, inf) given an exponential tail envelope.

    ``decay_rate`` is the guaranteed exponential rate of f's tail and
    ``amplitude`` an a-priori scale of its prefactor, so the initial
    cutoff satisfies amplitude * e^{-rate * T} / rate < tol / 10.  After
    integrating, the tail bound is re-estimated from the largest component
    of f at the cutoff (assuming the envelope, with a polynomial correction
    of degree ``poly_degree``, the highest power of t among the components)
    and the cutoff is extended, integrating only the added interval, until
    the bound drops below tol / 10.  Passing ``t_cut`` pins the cutoff,
    bypassing the extension loop (useful to demonstrate that the audit
    catches truncation).
    """
    if decay_rate <= 0.0:
        raise QuadratureError(
            "cannot bound the tail: the system has no dissipative decay scale "
            "(total injection rate is zero)"
        )
    fixed_cut = t_cut is not None
    if t_cut is None:
        amp = max(amplitude, tol)
        t_cut = np.log(10.0 * amp / (tol * decay_rate)) / decay_rate
        t_cut = max(t_cut, (poly_degree + 2.0) / decay_rate)
    if t_cut <= 0.0:
        raise ValueError("t_cut must be positive")

    calls = 0

    def counted(t):
        nonlocal calls
        calls += 1
        return f(t)

    value, abs_err, start = 0.0, 0.0, 0.0
    for _ in range(8):
        piece, err, info = quad_vec(
            counted, start, t_cut, epsabs=0.5 * tol, epsrel=1e-10, norm="max",
            limit=limit, full_output=True,
        )
        if info.status != 0:
            raise QuadratureError(
                f"adaptive refinement did not converge on [{start:.6g}, {t_cut:.6g}]: "
                f"{_QUAD_VEC_STATUS.get(info.status, f'status {info.status}')}"
            )
        value = value + piece
        abs_err += float(err)

        edge = max(float(np.max(counted(t_cut))), 0.0)
        slack = decay_rate * t_cut
        if slack <= poly_degree + 1:
            tail = np.inf
        else:
            tail = (edge / decay_rate) / (1.0 - poly_degree / slack)
        if fixed_cut or tail <= tol / 10.0:
            return QuadratureResult(value, abs_err, calls, tail, t_cut)
        start, t_cut = t_cut, 1.6 * t_cut
    raise QuadratureError(
        f"tail bound {tail:.3e} still above {tol / 10:.1e} after extending the cutoff"
    )


def jump_frequencies(state: GaussianState, sp: SingleParticleSet) -> np.ndarray:
    """Relative click frequencies p(q) in CHANNEL_ORDER, normalized to 1.

    Each raw weight is the channel's click weight; channels at or below
    MIN_CLICK_WEIGHT never click and get exactly 0.
    """
    raw = np.array([click_weight(sp.channels[label], state) for label in CHANNEL_ORDER])
    raw[raw <= MIN_CLICK_WEIGHT] = 0.0
    total = raw.sum()
    if total <= 0.0:
        raise ValueError("no channel has a nonzero click frequency")
    return raw / total


def _moment_pass(
    state: GaussianState,
    sp: SingleParticleSet,
    tol: float,
    t_cut: float | None = None,
) -> ChannelStats:
    """The one quadrature pass over [P, tP, t^2 P], read into the tables.

    Run once per (state, sp, tol, t_cut) and kept in ``sp.memo``, so the
    readers below share it.  The returned tables are that shared entry.
    """
    return sp.memo(
        state, ("moments", tol, t_cut), lambda: _run_moment_pass(state, sp, tol, t_cut)
    )


def _run_moment_pass(
    state: GaussianState, sp: SingleParticleSet, tol: float, t_cut: float | None
) -> ChannelStats:
    p_q = jump_frequencies(state, sp)
    gamma = sp.gamma_total

    def moments_at(t: float) -> np.ndarray:
        m = wtd_density_matrix(t, state, sp)
        s = gamma * t
        return np.stack((m, s * m, s * s * m))

    res = integrate_semiinfinite(
        moments_at,
        tol,
        decay_rate=sp.gamma_total,
        amplitude=max(4.0 * max(c.rate for c in sp.channels.values()), tol),
        poly_degree=2,
        t_cut=t_cut,
    )
    moments = np.array(res.value)
    moments[1] /= gamma
    moments[2] /= gamma**2
    moments[:, :, p_q == 0.0] = np.nan

    p = moments[0]
    bad = (p < -tol) | (p > 1.0 + max(tol, 1e-6))
    if bad.any():
        a, b = np.argwhere(bad)[0]
        raise QuadratureError(
            f"p({CHANNEL_ORDER[a]}|{CHANNEL_ORDER[b]}) = {p[a, b]} outside [0, 1]"
        )
    p_kq = np.clip(p, 0.0, 1.0)

    mean = np.full((4, 4), np.nan)
    var = np.full((4, 4), np.nan)
    ok = p_kq > EPS_PROBABILITY
    mean[ok] = moments[1][ok] / p_kq[ok]
    var[ok] = moments[2][ok] / p_kq[ok] - mean[ok] ** 2
    if np.any(var[ok] < -max(tol, 1e-6) * np.maximum(mean[ok] ** 2, 1.0)):
        raise QuadratureError(f"variance {np.min(var[ok]):.3e} is negative beyond tolerance")
    var[ok] = np.maximum(var[ok], 0.0)
    return ChannelStats(
        p_kq=p_kq, mean=mean, variance=var, p_q=p_q, moments=moments, quadrature=res
    )


def channel_stats(
    state: GaussianState,
    sp: SingleParticleSet,
    tol: float = DEFAULT_TOL,
) -> ChannelStats:
    """Full 4x4 tables of channel probabilities and conditional moments.

    Columns for channels that never click from this state are NaN, as are
    moment entries of pairs with probability below EPS_PROBABILITY.  The
    result is the caller's own copy of the shared pass.
    """
    return copy.deepcopy(_moment_pass(state, sp, tol))


def channel_probability(
    k: Channel,
    q: Channel,
    state: GaussianState,
    sp: SingleParticleSet,
    tol: float = DEFAULT_TOL,
) -> float:
    """Probability that a click in q is followed by one in k, any time later.

    One entry of :func:`channel_stats`, NaN when q never clicks.
    """
    table = _moment_pass(state, sp, tol)
    return float(table.p_kq[CHANNEL_ORDER.index(k.label), CHANNEL_ORDER.index(q.label)])


def natd(t: float, state: GaussianState, sp: SingleParticleSet) -> float:
    """Net activity time density: waiting time between any two clicks.

    Defined as the click-frequency mixture of all sixteen channel-resolved
    densities; only meaningful in the steady state, where the frequencies
    are stationary.
    """
    if state.kind != "steady":
        raise ValueError("net activity distribution is defined for the steady state")
    p_q = jump_frequencies(state, sp)
    m = wtd_density_matrix(t, state, sp)
    return float(m.sum(axis=0) @ p_q)


def natd_moments(
    state: GaussianState, sp: SingleParticleSet, tol: float = DEFAULT_TOL
) -> tuple[float, float]:
    """Mean and variance of the time between consecutive clicks (steady state)."""
    if state.kind != "steady":
        raise ValueError("net activity distribution is defined for the steady state")
    return _moment_pass(state, sp, tol).natd_moments()


def normalization_audit(
    q: Channel,
    state: GaussianState,
    sp: SingleParticleSet,
    tol: float = DEFAULT_TOL,
    t_cut: float | None = None,
) -> float:
    """Total probability sum_k p(k|q); should be 1 for any admissible q.

    The returned value is the diagnostic: a deficit beyond quadrature
    tolerance means lost tail mass or a broken density.  ``t_cut``
    deliberately truncates the integral (the audit then reports < 1).
    """
    if click_weight(q, state) <= MIN_CLICK_WEIGHT:
        raise ValueError(
            f"channel {q.label} never clicks from the {state.kind} state; audit undefined"
        )
    return _moment_pass(state, sp, tol, t_cut).normalization()[q.label]
