"""Integrals and moments over the waiting-time densities.

Every statistic is a read of one vector-valued quadrature pass per state.
The pass integrates the time moments

    M_n[k, q] = int_0^inf t^n P(t, k|q) dt,    n = 0, 1, 2,

of all sixteen channel pairs together, from the 4 x 4 table that
``wtd_density_matrix`` builds out of one set of L x L blocks per node.
``channel_stats`` runs the pass and is its one reader: channel
probabilities are M_0, conditional means and variances follow from
M_1 / M_0 and M_2 / M_0, and the table it returns reads the net activity
(NATD) moments, the click-frequency mixtures of the column sums of M_1 and
M_2 (``ChannelStats.natd_moments``), and the normalization audit, a column
sum of M_0 (``ChannelStats.normalization``).  Nothing keeps the pass: a
caller that reads several statistics of one state calls ``channel_stats``
once and reads them all from its table.

The improper integral is certified, not extrapolated.  Every density carries
the uniform decay envelope rate * e^{-Gamma t} * (bounded matrix factor), so
the mass beyond a cutoff T is bounded by the largest component at T with a
polynomial correction for the t^2 weight.  The cutoff is extended,
integrating only the added interval, until that bound is below tol / 10.

On each interval a globally adaptive 21-point Gauss-Kronrod rule (QUADPACK's
qk21 constants and error estimate, with the subdivision policy of
``scipy.integrate.quad_vec``) refines until the summed error estimate of
all subintervals, each taken in the max norm over the components, is below
1/8 of max(tol / 2, 1e-10 * max|I|), I the integral so far.  Refinement
runs in rounds: each round takes the subintervals of largest error (at most
128) and halves them, and the 21 nodes of every half are gathered into one
1-D array of times, so the pass makes one ``wtd_density_matrix`` call per
round with the whole stack, not one per node.  ``evaluations`` still counts
nodes, and the subdivision, the node count and the sums are those of
``quad_vec`` on the same integrand values.

The pass integrates [P, (Gamma t) P, (Gamma t)^2 P], whose integrals are all
of order one, and divides the last two blocks by Gamma and Gamma^2
afterwards.  Each block n thus meets tol / 2 in units of Gamma^-n (for tol
above a few 1e-10, where the relative target is the smaller), and the pass's
``abs_error_estimate`` and ``truncation_tail_bound`` are in these units.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass

import numpy as np

from .model import (
    CHANNEL_ORDER,
    GaussianState,
    SingleParticleSet,
    can_click,
    occupation_factor,
)
from .wtd import wtd_density_matrix

DEFAULT_TOL = 1e-8

#: Channel probabilities below this are treated as "this sequence never
#: happens" and conditional moments are undefined.
EPS_PROBABILITY = 1e-12


class QuadratureError(Exception):
    """Adaptive refinement failed or the tail cannot be bounded."""


@dataclass(frozen=True, eq=False)
class QuadratureResult:
    """Integral value with error and truncation accounting.

    ``value`` has the shape of the integrand's output.  ``evaluations``
    counts every node at which the integrand was evaluated, the tail probes
    at the cutoffs included.
    """

    value: float | np.ndarray
    abs_error_estimate: float
    evaluations: int
    truncation_tail_bound: float
    t_cut: float


@dataclass(frozen=True, eq=False)
class ChannelStats:
    """Channel-resolved summary tables, indexed by CHANNEL_ORDER.

    ``p_kq[a, b]`` is the probability that a click in channel
    CHANNEL_ORDER[b] is followed by one in CHANNEL_ORDER[a]; ``mean`` and
    ``variance`` are the conditional waiting-time moments of that pair
    (NaN where the pair has vanishing probability); ``p_q`` are the
    relative click frequencies.  ``moments[n, a, b]`` is the raw integral
    of t^n P(t, a|b), and ``quadrature`` accounts for the pass that
    produced it.  Columns of channels that never click are NaN throughout.
    ``state_kind`` is the kind of the state the pass started from.
    """

    p_kq: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    p_q: np.ndarray
    moments: np.ndarray
    quadrature: QuadratureResult
    state_kind: str
    order: tuple[str, ...] = CHANNEL_ORDER

    def natd_moments(self) -> tuple[float, float]:
        """Mean and variance of the time between consecutive clicks.

        Defined for the steady state only, where p_q is stationary.
        """
        if self.state_kind != "steady":
            raise ValueError("net activity distribution is defined for the steady state")
        clicks = self.p_q > 0.0
        m1, m2 = (float(self.p_q[clicks] @ self.moments[n][:, clicks].sum(0)) for n in (1, 2))
        return m1, max(m2 - m1**2, 0.0)

    def normalization(self) -> dict[str, float | None]:
        """Total probability sum_k p(k|q) per conditioning channel q, from M_0.

        Should be 1 for every channel that clicks; None for those that never do.
        """
        totals = self.moments[0].sum(axis=0)
        return {q: None if np.isnan(s) else float(s) for q, s in zip(self.order, totals)}


#: Gauss-Kronrod 21-point rule on [-1, 1] (QUADPACK qk21): the positive
#: Kronrod nodes, largest first, with the centre's weight last among the
#: Kronrod weights, and the Gauss weights of the odd-numbered nodes.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
#: All 21 nodes from +1 to -1 with their Kronrod weights, and the Gauss
#: weights of nodes 1, 3, ..., 19: the order in which the sums run.
_GK21_NODES = _XGK + (0.0,) + tuple(-x for x in reversed(_XGK))
_GK21_KRONROD = _WGK + _WGK[-2::-1]
_GK21_GAUSS = _WG + _WG[::-1]
_GK21_EVALS = len(_GK21_NODES)

#: Largest number of intervals split in one refinement round.
_ROUND_INTERVALS = 128

_STATUS = {1: "subdivision limit reached", 2: "roundoff error", 3: "non-finite integrand"}


def _gk21(intervals, f) -> list[tuple[np.ndarray, float, float]]:
    """(integral, error estimate, rounding error) of f on each (a, b), from one call of f.

    The sums run node by node in QUADPACK's order and the error estimate is
    QUADPACK's, taken in the max norm over the components of f.  A value of
    f that is not finite raises :class:`QuadratureError` before any sum.
    """
    bounds = np.array(intervals, dtype=float).reshape(-1, 2)
    c = 0.5 * (bounds[:, 0] + bounds[:, 1])
    h = 0.5 * (bounds[:, 1] - bounds[:, 0])
    nodes = c[:, None] + h[:, None] * np.array(_GK21_NODES)
    fv = np.asarray(f(nodes.reshape(-1)), dtype=float)
    shape = fv.shape[1:]
    fv = fv.reshape(len(bounds), _GK21_EVALS, -1)
    finite = np.isfinite(fv).all(axis=(1, 2))
    if not finite.all():
        lo, hi = bounds[np.argmin(finite)]
        raise QuadratureError(f"adaptive refinement failed on [{lo:.6g}, {hi:.6g}]: {_STATUS[3]}")
    s_k = np.zeros((len(bounds), fv.shape[2]))
    s_k_abs = np.zeros_like(s_k)
    for i, weight in enumerate(_GK21_KRONROD):
        s_k += weight * fv[:, i]
        s_k_abs += weight * abs(fv[:, i])
    s_g = np.zeros_like(s_k)
    for i, weight in enumerate(_GK21_GAUSS):
        s_g += weight * fv[:, 2 * i + 1]
    y0 = s_k / 2.0
    s_k_dabs = np.zeros_like(s_k)
    for i, weight in enumerate(_GK21_KRONROD):
        s_k_dabs += weight * abs(fv[:, i] - y0)

    scale = h[:, None]
    errs = np.max(abs((s_k - s_g) * scale), axis=1).tolist()
    dabss = np.max(abs(s_k_dabs * scale), axis=1).tolist()
    rounds = np.max(abs(50 * sys.float_info.epsilon * scale * s_k_abs), axis=1).tolist()
    out = []
    for n, (err, dabs, round_err) in enumerate(zip(errs, dabss, rounds)):
        if dabs != 0 and err != 0:
            err = dabs * min(1.0, (200 * err / dabs) ** 1.5)
        if round_err > sys.float_info.min:
            err = max(err, round_err)
        out.append((h[n] * s_k[n].reshape(shape), err, round_err))
    return out


def _adaptive_gk21(f, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """Globally adaptive vector quadrature of f on [a, b].

    Returns (integral, error estimate, status, evaluations), status 0 when
    converged or a key of ``_STATUS``.  Intervals sit on a heap by error.
    Each round pops the intervals of largest error, at most
    ``_ROUND_INTERVALS``, until the errors popped would leave less than an
    eighth of the target, halves each one and evaluates all the halves with
    one call of f.  The pass stops once the summed error is below an eighth
    of max(epsabs, epsrel * max|I|), or below the summed rounding error, or
    at ``limit`` intervals.  This is the subdivision of
    ``scipy.integrate.quad_vec`` with norm="max", gk21 and one worker,
    interval for interval.
    """
    ((integral, error, rounding),) = _gk21([(a, b)], f)
    evaluations = _GK21_EVALS
    parts = {(a, b): integral.copy()}
    heap = [(-error, a, b)]
    status = 1
    while heap and len(heap) < limit:
        tol = max(epsabs, epsrel * float(np.max(abs(integral))))
        popped, err_sum = [], 0.0
        while heap and len(popped) < _ROUND_INTERVALS:
            if popped and err_sum > error - tol / 8:
                break
            neg_err, lo, hi = heapq.heappop(heap)
            popped.append((-neg_err, lo, hi))
            err_sum += -neg_err
        halves = [
            half for _, lo, hi in popped for half in ((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi))
        ]
        rules = _gk21(halves, f)
        evaluations += _GK21_EVALS * len(halves)
        for n, (old_err, lo, hi) in enumerate(popped):
            (s1, err1, round1), (s2, err2, round2) = rules[2 * n], rules[2 * n + 1]
            integral += s1 + s2 - parts.pop((lo, hi))
            error += err1 + err2 - old_err
            rounding += round1 + round2
            for (x1, x2), s, err in zip(halves[2 * n : 2 * n + 2], (s1, s2), (err1, err2)):
                parts[(x1, x2)] = s
                heapq.heappush(heap, (-err, x1, x2))
        if len(heap) >= 2:
            tol = max(epsabs, epsrel * float(np.max(abs(integral))))
            if error < tol / 8:
                status = 0
                break
            if error < rounding:
                status = 2
                break
        if not (np.isfinite(error) and np.isfinite(rounding)):
            status = 3
            break
    return integral, error + rounding, status, evaluations


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
    integrating, the tail bound is re-estimated from the largest |component|
    of f at the cutoff (assuming the envelope, with a polynomial correction
    of degree ``poly_degree``, the highest power of t among the components)
    and the cutoff is extended, integrating only the added interval, until
    the bound drops below tol / 10.  Passing ``t_cut`` pins the cutoff,
    bypassing the extension loop: a truncated pass, whose tail bound and
    normalization show the lost mass (``channel_stats(..., t_cut=...)``).

    f takes a 1-D array of nodes and returns one row per node (a scalar
    row for a scalar integrand); it is called once per refinement round
    with all of the round's nodes, and once per cutoff with the tail probe.
    ``evaluations`` counts nodes, tail probes included.
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

    value, abs_err, start, evaluations = 0.0, 0.0, 0.0, 0
    for _ in range(8):
        piece, err, status, count = _adaptive_gk21(f, start, t_cut, 0.5 * tol, 1e-10, limit)
        evaluations += count
        if status != 0:
            raise QuadratureError(
                f"adaptive refinement did not converge on [{start:.6g}, {t_cut:.6g}]: "
                f"{_STATUS[status]}"
            )
        value = value + piece
        abs_err += float(err)

        edge = float(np.max(np.abs(np.asarray(f(np.array([t_cut])))[0])))
        evaluations += 1
        slack = decay_rate * t_cut
        if slack <= poly_degree + 1:
            tail = np.inf
        else:
            tail = (edge / decay_rate) / (1.0 - poly_degree / slack)
        if fixed_cut or tail <= tol / 10.0:
            return QuadratureResult(value, abs_err, evaluations, tail, t_cut)
        start, t_cut = t_cut, 1.6 * t_cut
    raise QuadratureError(
        f"tail bound {tail:.3e} still above {tol / 10:.1e} after extending the cutoff"
    )


def jump_frequencies(state: GaussianState, sp: SingleParticleSet) -> np.ndarray:
    """Relative click frequencies p(q) in CHANNEL_ORDER, normalized to 1.

    Each raw weight is the channel's click weight; channels that cannot
    click (``model.can_click``) get exactly 0.
    """
    c_diag = state.boundary_occupations
    factors = [(q, occupation_factor(q, c_diag)) for q in map(sp.channels.get, CHANNEL_ORDER)]
    raw = np.array([q.rate * f if can_click(q, f) else 0.0 for q, f in factors])
    total = raw.sum()
    if total <= 0.0:
        raise ValueError("no channel has a nonzero click frequency")
    return raw / total


def channel_stats(
    state: GaussianState,
    sp: SingleParticleSet,
    tol: float = DEFAULT_TOL,
    t_cut: float | None = None,
) -> ChannelStats:
    """Full 4x4 tables of channel probabilities and conditional moments, from one pass.

    The one quadrature pass over [P, tP, t^2 P].  Columns for channels that
    never click from this state are NaN, as are moment entries of pairs
    with probability below EPS_PROBABILITY.  ``t_cut`` pins the cutoff
    (``integrate_semiinfinite``), so a truncated pass shows its lost mass in
    its normalization and tail bound.
    """
    p_q = jump_frequencies(state, sp)
    gamma = sp.gamma_total

    def moments_at(ts: np.ndarray) -> np.ndarray:
        m = wtd_density_matrix(ts, state, sp)
        s = (gamma * ts)[:, None, None]
        return np.stack((m, s * m, s * s * m), axis=1)

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
        p_kq=p_kq,
        mean=mean,
        variance=var,
        p_q=p_q,
        moments=moments,
        quadrature=res,
        state_kind=state.kind,
    )


def natd(t, state: GaussianState, sp: SingleParticleSet):
    """Net activity time density: waiting time between any two clicks.

    Defined as the click-frequency mixture of all sixteen channel-resolved
    densities; only meaningful in the steady state, where the frequencies
    are stationary.  A 1-D array of times gives one density per time from
    one stacked density call, each equal to its scalar call bitwise.
    """
    if state.kind != "steady":
        raise ValueError("net activity distribution is defined for the steady state")
    p_q = jump_frequencies(state, sp)
    m = wtd_density_matrix(t, state, sp)
    density = np.array([column_sums @ p_q for column_sums in m.reshape(-1, 4, 4).sum(axis=1)])
    return density if np.ndim(t) else float(density[0])
