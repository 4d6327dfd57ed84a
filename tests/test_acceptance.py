"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a single PASS line (visible with ``pytest -s``) after all
of its assertions hold, so a full run doubles as a sign-off checklist.
"""

import time

import numpy as np
import pytest

from fermiwait.model import (
    CHANNEL_ORDER,
    ChainSpec,
    GaussianState,
    build_tight_binding,
    channels,
    derive_single_particle,
    steady_state,
    vacuum_state,
)
from fermiwait.fock import FockOracle, verify_tracedet
from fermiwait.stats import channel_stats, natd
from fermiwait.wtd import wtd_curve, wtd_density

from conftest import generic_spec, tight_binding_spec


def linear_fit_r2(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return slope, 1.0 - ss_res / ss_tot


def test_criterion_1_oracle_equivalence():
    """All sixteen channel pairs against the brute-force reference."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    for L in (2, 3):
        spec = generic_spec(L)  # every channel rate nonzero
        sp = derive_single_particle(spec)
        ch = channels(spec)
        oracle = FockOracle(spec)
        st = steady_state(spec)
        rho_ss = oracle.steady_state()
        vac = vacuum_state(L)
        rho_vac = oracle.vacuum_density()
        window = 20.0 / min(spec.gamma1, spec.gammaL)
        times = rng.uniform(0.0, window, size=10)
        table_ss = oracle.wtd_matrix(times, rho_ss)
        table_vac = oracle.wtd_matrix(times, rho_vac)
        vac_at_one = oracle.wtd_matrix([1.0], rho_vac)[0]
        for qb, ql in enumerate(CHANNEL_ORDER):
            for ka, kl in enumerate(CHANNEL_ORDER):
                for m, t in enumerate(times):
                    a = wtd_density(float(t), ch[kl], ch[ql], st, sp)
                    b = table_ss[m, ka, qb]
                    assert abs(a - b) <= max(1e-8 * max(abs(a), abs(b)), 1e-12)
                    checked += 1
                if ql.endswith("+"):
                    for m, t in enumerate(times):
                        a = wtd_density(float(t), ch[kl], ch[ql], vac, sp)
                        b = table_vac[m, ka, qb]
                        assert abs(a - b) <= max(1e-8 * max(abs(a), abs(b)), 1e-12)
                        checked += 1
                else:
                    # extraction never fires from the vacuum: the closed
                    # form returns exactly zero, the oracle's column is NaN.
                    assert wtd_density(1.0, ch[kl], ch[ql], vac, sp) == 0.0
                    assert np.isnan(vac_at_one[ka, qb])
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 1 oracle equivalence: PASS "
        f"({checked} comparisons, {elapsed:.1f} s)"
    )


def test_criterion_2_tracedet_identity_suite():
    """Trace-determinant formula family against Fock-space brute force."""
    report = verify_tracedet(seed=0, draws=20, sizes=(2, 3), threshold=1e-9)
    names = {e.name: e for e in report.entries}
    for required in (
        "bare_trace_3_factors",
        "one_insertion",
        "two_insertion_adjacent",
        "two_insertion_split_mp",
        "two_insertion_split_pp",
        "two_insertion_split_mm",
        "two_insertion_split_pm",
        "alpha_independence",
        "conjugation_identity",
        "sylvester_lemma",
        "sherman_morrison_lemma",
    ):
        assert required in names, f"missing identity {required}"
        assert names[required].passed, report.to_text()
    assert report.passed
    worst = max(e.max_deviation for e in report.entries)
    print(f"\nACCEPTANCE 2 trace-det identities: PASS (worst deviation {worst:.2e})")


def test_criterion_3_normalization():
    """Total escape probability is 1 for every admissible conditioning click."""
    audits = 0
    for L in (2, 5, 10):
        for spec in (tight_binding_spec(L), generic_spec(L)):
            sp = derive_single_particle(spec)
            ch = channels(spec)
            for state in (steady_state(spec), vacuum_state(L)):
                occ = np.real(np.diagonal(state.C))
                totals = channel_stats(state, sp, tol=1e-8).normalization()
                for ql in CHANNEL_ORDER:
                    q = ch[ql]
                    weight = occ[q.site_index] if q.sign == "-" else 1.0 - occ[q.site_index]
                    total = totals[ql]
                    if q.rate * weight <= 1e-14 or (state.kind == "vacuum" and q.sign == "-"):
                        assert total is None, (L, ql, state.kind, total)
                        continue
                    assert abs(total - 1.0) <= 1e-6, (L, ql, state.kind, total)
                    audits += 1
    print(f"\nACCEPTANCE 3 normalization: PASS ({audits} audits within 1e-6)")


def test_criterion_4_two_site_analytic_activity():
    """Closed-form two-site activity density and its mean."""
    gamma, hop = 0.1, 1.0
    spec = tight_binding_spec(2, gamma=gamma)
    sp = derive_single_particle(spec)
    st = steady_state(spec)
    omega = np.sqrt(4 * hop**2 - gamma**2)

    def analytic(t):
        return (
            gamma
            / (2 * (gamma**2 - 4 * hop**2))
            * np.exp(-gamma * t)
            * (gamma**2 - 8 * hop**2 + 4 * hop**2 * np.cos(omega * t))
        )

    worst = 0.0
    for t in np.linspace(0.0, 50.0, 201):
        worst = max(worst, abs(natd(float(t), st, sp) - analytic(t)))
    assert worst <= 1e-8

    mean, _ = channel_stats(st, sp).natd_moments()
    expect = 1.0 / gamma + gamma / (4 * hop**2)
    assert expect == pytest.approx(10.025)
    assert mean == pytest.approx(expect, abs=1e-4)
    print(
        f"\nACCEPTANCE 4 analytic two-site activity: PASS "
        f"(max density dev {worst:.2e}, E(T) = {mean:.6f})"
    )


def test_criterion_5a_vacuum_peak_time_scales_linearly():
    peaks = []
    sizes = (5, 10, 20)
    for L in sizes:
        spec = tight_binding_spec(L)
        sp = derive_single_particle(spec)
        ch = channels(spec)
        ts = np.arange(0.0, 1.5 * L, 0.02)
        vals = wtd_curve(ch["L-"], ch["1+"], vacuum_state(L), sp, ts).values
        peak = None
        for i in range(1, len(vals) - 1):
            if vals[i] > vals[i - 1] and vals[i] >= vals[i + 1] and vals[i] > 1e-6:
                peak = ts[i]
                break
        assert peak is not None
        peaks.append(peak)
    slope, r2 = linear_fit_r2(sizes, peaks)
    assert slope > 0.0
    assert r2 > 0.95
    print(
        f"\nACCEPTANCE 5a first-peak ballistic scaling: PASS "
        f"(t_peak = {slope:.3f} L, R^2 = {r2:.5f})"
    )


def test_criterion_5b_steady_tail_decays_at_bath_rate():
    gamma = 0.1
    spec = tight_binding_spec(50, gamma=gamma)
    sp = derive_single_particle(spec)
    ch = channels(spec)
    st = steady_state(spec)
    ts = np.linspace(40.0, 120.0, 49)
    vals = np.array([wtd_density(float(t), ch["L-"], ch["1+"], st, sp) for t in ts])
    assert np.all(vals > 0.0)
    slope, _ = linear_fit_r2(ts, np.log(vals))
    assert abs(slope + gamma) <= 0.1 * gamma
    print(f"\nACCEPTANCE 5b steady tail slope: PASS (slope {slope:.5f} vs -{gamma})")


def test_criterion_5c_vacuum_transmission_exponentially_suppressed():
    sizes = np.arange(4, 13)
    ps = []
    for L in sizes:
        spec = tight_binding_spec(int(L))
        sp = derive_single_particle(spec)
        table = channel_stats(vacuum_state(int(L)), sp)
        ps.append(table.p_kq[CHANNEL_ORDER.index("L-"), CHANNEL_ORDER.index("1+")])
    slope, r2 = linear_fit_r2(sizes, np.log(ps))
    assert slope < 0.0
    assert r2 > 0.95
    print(
        f"\nACCEPTANCE 5c vacuum transmission suppression: PASS "
        f"(log p slope {slope:.4f}, R^2 = {r2:.4f})"
    )


def test_criterion_5d_steady_transmission_plateau():
    vals = []
    for L in (10, 20, 40):
        spec = tight_binding_spec(L)
        sp = derive_single_particle(spec)
        table = channel_stats(steady_state(spec), sp)
        vals.append(table.p_kq[CHANNEL_ORDER.index("L-"), CHANNEL_ORDER.index("1+")])
    variation = (max(vals) - min(vals)) / np.mean(vals)
    assert variation < 0.10
    print(
        f"\nACCEPTANCE 5d steady transmission plateau: PASS "
        f"(p = {vals[0]:.4f}..{vals[-1]:.4f}, variation {100 * variation:.1f}%)"
    )


def test_criterion_5e_activity_moments_flat_in_size():
    means, sds = [], []
    for L in (2, 5, 10, 20):
        spec = tight_binding_spec(L)
        sp = derive_single_particle(spec)
        mean, var = channel_stats(steady_state(spec), sp).natd_moments()
        means.append(mean)
        sds.append(np.sqrt(var))
    spread = (max(means) - min(means)) / np.mean(means)
    assert spread < 0.01
    for mean, sd in zip(means, sds):
        assert abs(sd / mean - 1.0) <= 0.25
    print(
        f"\nACCEPTANCE 5e activity moments: PASS "
        f"(E(T) spread {100 * spread:.3f}%, SD/E in "
        f"[{min(s / m for s, m in zip(sds, means)):.3f}, "
        f"{max(s / m for s, m in zip(sds, means)):.3f}])"
    )


def test_criterion_6_vacuum_limit_consistency():
    """Regularized covariance lam * I converges to the analytic limit.

    Error is the relative sup norm per curve: max_t |reg - exact| divided
    by the curve's peak.  The densities pass through zeros (ballistic
    onset, interference minima) where the regularization correction is
    additive, so a pointwise ratio diverges there for any implementation;
    the sup norm is the well-posed reading of "relative error" for the
    whole curve (the oracle-equivalence criterion carries an absolute
    floor near zero for the same reason).
    """
    for L in (2, 5):
        spec = tight_binding_spec(L)
        sp = derive_single_particle(spec)
        ch = channels(spec)
        ts = np.linspace(0.1, 3.0 * L, 25)
        pairs = (("L-", "1+"), ("1+", "1+"))
        exact = {
            (kl, ql): wtd_curve(ch[kl], ch[ql], vacuum_state(L), sp, ts).values
            for kl, ql in pairs
        }
        errors = []
        for lam in (1e-4, 1e-6, 1e-8):
            state = GaussianState(C=lam * np.eye(L), kind="custom")
            worst = 0.0
            for kl, ql in pairs:
                reg = np.array(
                    [wtd_density(float(t), ch[kl], ch[ql], state, sp) for t in ts]
                )
                ref = exact[(kl, ql)]
                worst = max(worst, float(np.max(np.abs(reg - ref)) / ref.max()))
            errors.append(worst)
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] <= 1e-6
    print(
        f"\nACCEPTANCE 6 vacuum-limit consistency: PASS "
        f"(errors decrease to {errors[2]:.2e} at lam = 1e-8)"
    )


def test_criterion_7_mirror_symmetry():
    """Symmetric couplings: distant and local pairs coincide pointwise."""
    worst = 0.0
    for L in (2, 5):
        spec = tight_binding_spec(L)
        sp = derive_single_particle(spec)
        ch = channels(spec)
        st = steady_state(spec)
        for t in np.linspace(0.0, 100.0, 51):
            t = float(t)
            d1 = abs(
                wtd_density(t, ch["L-"], ch["1+"], st, sp)
                - wtd_density(t, ch["1+"], ch["L-"], st, sp)
            )
            d2 = abs(
                wtd_density(t, ch["1+"], ch["1+"], st, sp)
                - wtd_density(t, ch["L-"], ch["L-"], st, sp)
            )
            worst = max(worst, d1, d2)
            assert d1 <= 1e-9 and d2 <= 1e-9
    print(f"\nACCEPTANCE 7 mirror symmetry: PASS (max pointwise gap {worst:.2e})")


def test_criterion_8_scalability():
    """Cubic-with-overhead scaling and a sub-10-second point at L = 200."""
    sizes = (25, 50, 100, 200)
    timings = []
    for L in sizes:
        spec = tight_binding_spec(L)
        sp = derive_single_particle(spec)
        ch = channels(spec)
        st = steady_state(spec)
        wtd_density(L / 2.0, ch["L-"], ch["1+"], st, sp)  # warm-up
        best = np.inf
        for _ in range(3):
            tic = time.perf_counter()
            wtd_density(L / 2.0, ch["L-"], ch["1+"], st, sp)
            best = min(best, time.perf_counter() - tic)
        timings.append(best)
    assert timings[-1] < 10.0
    slope, _ = linear_fit_r2(np.log(sizes), np.log(timings))
    assert slope <= 3.5
    print(
        f"\nACCEPTANCE 8 scalability: PASS "
        f"(L=200 point {timings[-1] * 1e3:.0f} ms, log-log slope {slope:.2f})"
    )
