import numpy as np
import pytest
from scipy.integrate import quad

from fermiwait.linalg import lyapunov_solve
from fermiwait.model import (
    CHANNEL_ORDER,
    ChainSpec,
    GaussianState,
    build_tight_binding,
    can_click,
    channels,
    derive_single_particle,
    occupation_factor,
    steady_state,
    vacuum_state,
)
from fermiwait.stats import (
    DEFAULT_TOL,
    ChannelStats,
    QuadratureError,
    channel_stats,
    integrate_semiinfinite,
    jump_frequencies,
    natd,
)
from fermiwait.wtd import wtd_density, wtd_density_matrix

from conftest import generic_spec, tight_binding_spec


def cell(kl, ql):
    """(row, column) of the pair (kl | ql) in the CHANNEL_ORDER tables."""
    return CHANNEL_ORDER.index(kl), CHANNEL_ORDER.index(ql)


@pytest.fixture(scope="module")
def sv_tables(sv_spec, sv_sp):
    """The default-tolerance tables of the reference chain's steady state and vacuum.

    One pass per state, shared by every test that only reads them.
    """
    return {
        "steady": channel_stats(steady_state(sv_spec), sv_sp),
        "vacuum": channel_stats(vacuum_state(2), sv_sp),
    }


def exact_moments(oracle, rho):
    """Quadrature-free moments int t^n P(t, k|q) dt, n = 0, 1, 2, and p_q.

    With the post-jump state rho_q = J_q rho / tr(J_q rho) and the no-click
    generator L0, P(t, k|q) = tr(J_k e^{L0 t} rho_q), so the moments are
    -tr(J_k L0^-1 rho_q), tr(J_k L0^-2 rho_q) and -2 tr(J_k L0^-3 rho_q).
    Columns of channels that cannot click are NaN.
    """
    parts = oracle.parts
    l0, jumps = parts.no_click, parts.jumps
    vec = rho[parts.ket, parts.bra]

    def tr(v):
        return float(np.sum(v[parts.ket == parts.bra]).real)

    weights = np.array([tr(jumps[ql] @ vec) for ql in CHANNEL_ORDER])
    out = np.full((3, 4, 4), np.nan)
    for b, ql in enumerate(CHANNEL_ORDER):
        if weights[b] <= 1e-14:
            continue
        x = jumps[ql] @ vec / weights[b]
        for n, sign in enumerate((-1.0, 1.0, -2.0)):
            x = np.linalg.solve(l0, x)
            for a, kl in enumerate(CHANNEL_ORDER):
                out[n, a, b] = sign * tr(jumps[kl] @ x)
    return out, weights / weights.sum()


def analytic_natd(t, gamma=0.1, hop=1.0):
    """Closed-form two-site activity density at the reference working point."""
    omega = np.sqrt(4 * hop**2 - gamma**2)
    return (
        gamma
        / (2 * (gamma**2 - 4 * hop**2))
        * np.exp(-gamma * t)
        * (gamma**2 - 8 * hop**2 + 4 * hop**2 * np.cos(t * omega))
    )


def quad_vec_semiinfinite(
    f, tol, *, decay_rate, amplitude=1.0, poly_degree=0, t_cut=None, limit=400
):
    """The cutoff loop of ``integrate_semiinfinite`` run on scipy's quad_vec.

    The reference for the in-repo Gauss-Kronrod pass: f takes a 1-D array
    of nodes, quad_vec calls it with one node at a time, and every call
    counts as an evaluation.
    """
    from scipy.integrate import quad_vec

    fixed_cut = t_cut is not None
    if t_cut is None:
        amp = max(amplitude, tol)
        t_cut = np.log(10.0 * amp / (tol * decay_rate)) / decay_rate
        t_cut = max(t_cut, (poly_degree + 2.0) / decay_rate)
    calls = 0

    def counted(t):
        nonlocal calls
        calls += 1
        return f(np.array([t]))[0]

    value, abs_err, start = 0.0, 0.0, 0.0
    for _ in range(8):
        piece, err, info = quad_vec(
            counted, start, t_cut, epsabs=0.5 * tol, epsrel=1e-10, norm="max",
            limit=limit, full_output=True,
        )
        if info.status != 0:
            raise QuadratureError(f"quad_vec status {info.status}")
        value = value + piece
        abs_err += float(err)
        edge = float(np.max(np.abs(counted(t_cut))))
        slack = decay_rate * t_cut
        if slack <= poly_degree + 1:
            tail = np.inf
        else:
            tail = (edge / decay_rate) / (1.0 - poly_degree / slack)
        if fixed_cut or tail <= tol / 10.0:
            return value, abs_err, calls, tail, t_cut
        start, t_cut = t_cut, 1.6 * t_cut
    raise QuadratureError("tail")


#: The integrands of TestQuadrature with their keyword arguments.
QUADRATURE_CASES = {
    "exponential": (lambda t: 0.37 * np.exp(-0.37 * t), dict(decay_rate=0.37)),
    "first_moment": (lambda t: t * 0.25 * np.exp(-0.25 * t), dict(decay_rate=0.25, poly_degree=1)),
    "fixed_cutoff": (lambda t: 0.5 * np.exp(-0.5 * t), dict(decay_rate=0.5, t_cut=10.0)),
    "oscillatory": (lambda t: np.exp(-0.1 * t) * np.cos(2.0 * t) ** 2, dict(decay_rate=0.1)),
    "extended_cutoff": (
        lambda t: t * t * 0.5 * np.exp(-0.5 * t),
        dict(decay_rate=0.5, amplitude=1e-8, poly_degree=2),
    ),
    "signed": (lambda t: -50.0 * np.exp(-0.5 * t), dict(decay_rate=0.5)),
    "array_valued": (
        lambda t: 0.25 * np.exp(-0.25 * t)[:, None] * np.stack((t**0, t, t * t), axis=1),
        dict(decay_rate=0.25, poly_degree=2),
    ),
}


def assert_matches_quad_vec(res, ref):
    value, abs_err, evaluations, tail, t_cut = ref
    assert res.evaluations == evaluations
    assert np.max(np.abs(res.value - value)) <= 1e-13 * np.max(np.abs(value))
    assert res.abs_error_estimate == pytest.approx(abs_err, rel=1e-12)
    assert (res.truncation_tail_bound, res.t_cut) == (tail, t_cut)


class TestAgainstQuadVec:
    @pytest.mark.parametrize("name", sorted(QUADRATURE_CASES))
    def test_quadrature_integrands(self, name):
        f, kwargs = QUADRATURE_CASES[name]
        res = integrate_semiinfinite(f, 1e-8, **kwargs)
        assert_matches_quad_vec(res, quad_vec_semiinfinite(f, 1e-8, **kwargs))

    def test_subdivision_cap_fails_on_both(self):
        f = lambda t: np.exp(-0.01 * t) * np.cos(40.0 * t) ** 2  # noqa: E731
        for integrate in (integrate_semiinfinite, quad_vec_semiinfinite):
            with pytest.raises(QuadratureError):
                integrate(f, 1e-10, decay_rate=0.01, limit=2)

    @pytest.mark.parametrize("kind", ["steady", "vacuum"])
    @pytest.mark.parametrize("L", [2, 5])
    def test_default_moment_passes(self, L, kind):
        # The pass evaluates each round with one stacked density call; the
        # reference calls the single-time kernel once per node.
        spec = tight_binding_spec(L)
        sp = derive_single_particle(spec)
        state = steady_state(spec) if kind == "steady" else vacuum_state(L)
        gamma = sp.gamma_total

        def moments_at(ts):
            m = wtd_density_matrix(ts, state, sp)
            s = (gamma * ts)[:, None, None]
            return np.stack((m, s * m, s * s * m), axis=1)

        res = channel_stats(state, sp).quadrature
        ref = quad_vec_semiinfinite(
            moments_at,
            DEFAULT_TOL,
            decay_rate=gamma,
            amplitude=max(4.0 * max(c.rate for c in sp.channels.values()), DEFAULT_TOL),
            poly_degree=2,
        )
        assert_matches_quad_vec(res, ref)

    def test_moment_pass_evaluates_each_round_in_one_call(self, monkeypatch):
        import fermiwait.stats as statsmod

        stacks = []
        real = statsmod.wtd_density_matrix

        def recorded(t, state, sp):
            stacks.append(np.size(t))
            return real(t, state, sp)

        monkeypatch.setattr(statsmod, "wtd_density_matrix", recorded)
        spec = tight_binding_spec(2)
        res = channel_stats(steady_state(spec), derive_single_particle(spec)).quadrature
        assert sum(stacks) == res.evaluations
        # Every call is a round of 21-node intervals or one tail probe.
        assert all(n == 1 or n % 21 == 0 for n in stacks)
        assert len(stacks) < res.evaluations / 42


class TestQuadrature:
    def test_normalized_exponential(self):
        g = 0.37
        res = integrate_semiinfinite(lambda t: g * np.exp(-g * t), 1e-8, decay_rate=g)
        assert res.value == pytest.approx(1.0, abs=1e-8)
        assert res.truncation_tail_bound <= 1e-9
        assert res.evaluations > 0

    def test_first_moment_of_exponential(self):
        g = 0.25
        res = integrate_semiinfinite(
            lambda t: t * g * np.exp(-g * t), 1e-8, decay_rate=g, poly_degree=1
        )
        assert res.value == pytest.approx(1.0 / g, rel=1e-7)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_tail_bound_holds_for_either_sign(self, sign):
        # A negative integrand must extend the cutoff as far as its mirror.
        f = lambda t: sign * 50.0 * np.exp(-0.5 * t)  # noqa: E731
        res = integrate_semiinfinite(f, 1e-8, decay_rate=0.5)
        assert abs(res.value - sign * 100.0) <= 1e-8
        assert 0.0 < res.truncation_tail_bound <= 1e-9

    def test_no_decay_scale_is_an_error(self):
        with pytest.raises(QuadratureError, match="decay scale"):
            integrate_semiinfinite(lambda t: np.exp(-t), 1e-8, decay_rate=0.0)

    def test_fixed_cutoff_reports_lost_mass(self):
        g = 0.5
        res = integrate_semiinfinite(
            lambda t: g * np.exp(-g * t), 1e-8, decay_rate=g, t_cut=10.0
        )
        assert res.t_cut == 10.0
        assert res.value < 1.0 - 1e-3
        assert res.truncation_tail_bound > 1e-3

    def test_oscillatory_integrand(self):
        res = integrate_semiinfinite(
            lambda t: np.exp(-0.1 * t) * np.cos(2.0 * t) ** 2, 1e-8, decay_rate=0.1
        )
        # integral of e^{-gt} cos^2(wt) = 1/(2g) + g/(2(g^2+4w^2))
        expected = 0.5 / 0.1 + 0.1 / (2 * (0.01 + 16.0))
        assert res.value == pytest.approx(expected, abs=1e-7)

    def test_extended_cutoff_counts_every_call(self):
        g = 0.5
        calls = 0

        def f(ts):
            nonlocal calls
            calls += ts.size
            return ts * ts * g * np.exp(-g * ts)

        # amplitude 1e-8 puts the first cutoff at (2 + 2) / g = 8, far short.
        res = integrate_semiinfinite(f, 1e-8, decay_rate=g, amplitude=1e-8, poly_degree=2)
        assert res.t_cut > 8.0
        assert res.value == pytest.approx(2.0 / g**2, abs=1e-7)
        assert res.truncation_tail_bound <= 1e-9
        assert res.evaluations == calls

    def test_array_valued_integrand(self):
        g = 0.25
        res = integrate_semiinfinite(
            lambda t: g * np.exp(-g * t)[:, None] * np.stack((t**0, t, t * t), axis=1),
            1e-8,
            decay_rate=g,
            poly_degree=2,
        )
        assert res.value == pytest.approx([1.0, 1.0 / g, 2.0 / g**2], rel=1e-9)

    def test_non_finite_integrand_is_an_error(self):
        with pytest.raises(QuadratureError, match="non-finite integrand"):
            integrate_semiinfinite(
                lambda t: np.where(t > 3.0, np.inf, np.exp(-t)), 1e-8, decay_rate=1.0
            )

    def test_subdivision_cap_is_an_error(self):
        with pytest.raises(QuadratureError, match="refinement"):
            integrate_semiinfinite(
                lambda t: np.exp(-0.01 * t) * np.cos(40.0 * t) ** 2,
                1e-10,
                decay_rate=0.01,
                limit=2,
            )


class TestChannelProbability:
    def test_blocked_channel_has_zero_probability(self, sv_tables):
        for ql in ("1+", "L-"):
            assert sv_tables["steady"].p_kq[cell("1-", ql)] == 0.0

    def test_against_integrated_brute_force(self, sv_tables, sv_oracle):
        rho = sv_oracle.steady_state()
        p = sv_tables["steady"].p_kq[cell("L-", "1+")]
        ref = quad(
            lambda t: sv_oracle.wtd(t, "L-", "1+", rho), 0.0, 400.0, limit=400
        )[0]
        assert p == pytest.approx(ref, abs=1e-6)

    def test_probabilities_bounded(self, sv_tables):
        table = sv_tables["steady"]
        for ql in ("1+", "L-"):
            for kl in CHANNEL_ORDER:
                assert 0.0 <= table.p_kq[cell(kl, ql)] <= 1.0
        # The probabilities are the zeroth moments, clipped to [0, 1].
        assert np.array_equal(table.p_kq, np.clip(table.moments[0], 0.0, 1.0), equal_nan=True)


class TestConditionalMoments:
    def test_bayes_normalization(self, sv_spec, sv_sp, sv_channels, sv_tables):
        st = steady_state(sv_spec)
        k, q = sv_channels["L-"], sv_channels["1+"]
        p = sv_tables["steady"].p_kq[cell("L-", "1+")]
        res = integrate_semiinfinite(
            lambda ts: np.array([wtd_density(t, k, q, st, sv_sp) for t in ts]) / p,
            1e-8,
            decay_rate=sv_sp.gamma_total,
        )
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_mean_against_brute_force(self, sv_tables, sv_oracle):
        rho = sv_oracle.steady_state()
        table = sv_tables["steady"]
        mean, var = table.mean[cell("L-", "1+")], table.variance[cell("L-", "1+")]
        p_ref = quad(lambda t: sv_oracle.wtd(t, "L-", "1+", rho), 0, 400, limit=400)[0]
        m_ref = quad(
            lambda t: t * sv_oracle.wtd(t, "L-", "1+", rho), 0, 400, limit=400
        )[0]
        assert mean == pytest.approx(m_ref / p_ref, abs=1e-6)
        assert var >= 0.0

    @pytest.mark.parametrize("L", [2, 4, 7])
    def test_variance_nonnegative_across_channels(self, L):
        spec = generic_spec(L)
        sp = derive_single_particle(spec)
        table = channel_stats(steady_state(spec), sp)
        for ql in ("1+", "L-"):
            for kl in ("1+", "L-"):
                assert table.variance[cell(kl, ql)] >= 0.0

    def test_impossible_sequence_rejected(self, sv_tables):
        table = sv_tables["steady"]
        assert table.p_kq[cell("1-", "1+")] == 0.0
        assert np.isnan(table.mean[cell("1-", "1+")])
        assert np.isnan(table.variance[cell("1-", "1+")])


class TestJumpFrequencies:
    def test_reference_point_splits_evenly(self, sv_spec, sv_sp):
        st = steady_state(sv_spec)
        p_q = jump_frequencies(st, sv_sp)
        assert p_q.sum() == pytest.approx(1.0, abs=1e-12)
        # only injection on the left and extraction on the right click
        assert p_q[CHANNEL_ORDER.index("1-")] == 0.0
        assert p_q[CHANNEL_ORDER.index("L+")] == 0.0
        assert p_q[CHANNEL_ORDER.index("1+")] == pytest.approx(0.5, abs=1e-9)
        assert p_q[CHANNEL_ORDER.index("L-")] == pytest.approx(0.5, abs=1e-9)


class TestNatd:
    def test_matches_analytic_two_site_form(self, sv_spec, sv_sp):
        st = steady_state(sv_spec)
        for t in np.linspace(0.0, 50.0, 26):
            assert natd(float(t), st, sv_sp) == pytest.approx(
                analytic_natd(t), abs=1e-8
            )

    def test_mean_matches_analytic_value(self, sv_tables):
        mean, var = sv_tables["steady"].natd_moments()
        assert mean == pytest.approx(1.0 / 0.1 + 0.1 / 4.0, abs=1e-4)
        assert var >= 0.0

    def test_is_mixture_of_channel_densities(self, sv_spec, sv_sp):
        st = steady_state(sv_spec)
        p_q = jump_frequencies(st, sv_sp)
        for t in (0.0, 0.7, 3.0, 11.0):
            direct = natd(t, st, sv_sp)
            m = wtd_density_matrix(t, st, sv_sp)
            mixture = float(m.sum(axis=0) @ p_q)
            assert abs(direct - mixture) < 1e-12

    def test_stack_is_bitwise_single(self, sv_spec, sv_sp):
        st = steady_state(sv_spec)
        grid = np.linspace(0.0, 50.0, 26)
        stack = natd(grid, st, sv_sp)
        assert stack.shape == grid.shape
        assert np.array_equal(stack, [natd(float(t), st, sv_sp) for t in grid])

    def test_total_expectation_consistency(self):
        spec = generic_spec(2)
        sp = derive_single_particle(spec)
        st = steady_state(spec)
        table = channel_stats(st, sp)
        mean, _ = table.natd_moments()
        mix = 0.0
        for b in range(4):
            for a in range(4):
                if np.isnan(table.p_kq[a, b]) or table.p_kq[a, b] <= 1e-12:
                    continue
                mix += table.p_q[b] * table.p_kq[a, b] * table.mean[a, b]
        assert mean == pytest.approx(mix, abs=1e-6)

    def test_requires_steady_state(self, sv_sp, sv_tables):
        with pytest.raises(ValueError, match="steady"):
            natd(1.0, vacuum_state(2), sv_sp)
        with pytest.raises(ValueError, match="steady"):
            sv_tables["vacuum"].natd_moments()


class TestNormalizationAudit:
    def test_steady_and_vacuum_audits(self, sv_tables):
        for ql in ("1+", "L-"):
            assert sv_tables["steady"].normalization()[ql] == pytest.approx(1.0, abs=1e-6)
        assert sv_tables["vacuum"].normalization()["1+"] == pytest.approx(1.0, abs=1e-6)

    def test_truncation_is_detected(self, sv_spec, sv_sp, sv_tables):
        full = sv_tables["steady"].normalization()["1+"]
        cut = channel_stats(steady_state(sv_spec), sv_sp, t_cut=104.0)
        truncated = cut.normalization()["1+"]
        assert truncated < full
        assert truncated < 1.0 - 1e-6
        assert cut.quadrature.t_cut == 104.0
        assert cut.quadrature.truncation_tail_bound > 1e-6

    def test_silent_channel_rejected(self, sv_tables):
        # A channel that never clicks has no audit: None, not a number.
        assert sv_tables["steady"].normalization()["1-"] is None
        assert sv_tables["vacuum"].normalization()["L-"] is None

    def test_accepts_exactly_the_defined_table_columns(self, sv_spec, sv_sp, sv_tables):
        # The last input: site 1 holds 5e-15, at or below the occupation
        # threshold, while its extraction rate 10 lifts the click weight
        # above the weight threshold; the channel cannot click.
        spec = ChainSpec(
            h=build_tight_binding(2, 1.0, 1.0), gamma1=10.0, gammaL=0.1, f1=0.0, fL=0.5
        )
        near_empty = GaussianState(C=np.diag([5e-15, 0.5]).astype(complex))
        near_sp = derive_single_particle(spec)
        inputs = [
            (steady_state(sv_spec), sv_sp, sv_tables["steady"]),
            (vacuum_state(2), sv_sp, sv_tables["vacuum"]),
            (near_empty, near_sp, channel_stats(near_empty, near_sp)),
        ]
        for state, sp, table in inputs:
            audits = table.normalization()
            for b, ql in enumerate(CHANNEL_ORDER):
                q = sp.channels[ql]
                clicks = can_click(q, occupation_factor(q, state.boundary_occupations))
                defined = bool(np.all(~np.isnan(table.p_kq[:, b])))
                assert clicks == defined == (audits[ql] is not None), (state.kind, ql)
        assert np.all(np.isnan(table.p_kq[:, CHANNEL_ORDER.index("1-")]))


class TestChannelStatsTable:
    def test_reference_point_table(self, sv_tables):
        table = sv_tables["steady"]
        assert isinstance(table, ChannelStats)
        i_1p = CHANNEL_ORDER.index("1+")
        i_lm = CHANNEL_ORDER.index("L-")
        for col in (i_1p, i_lm):
            assert np.nansum(table.p_kq[:, col]) == pytest.approx(1.0, abs=1e-6)
        for col in (CHANNEL_ORDER.index("1-"), CHANNEL_ORDER.index("L+")):
            assert np.all(np.isnan(table.p_kq[:, col]))
        assert np.all(np.isnan(table.variance) | (table.variance >= 0.0))

    def test_vacuum_table_has_injection_columns_only(self, sv_tables):
        table = sv_tables["vacuum"]
        assert np.nansum(table.p_kq[:, CHANNEL_ORDER.index("1+")]) == pytest.approx(
            1.0, abs=1e-6
        )
        assert np.all(np.isnan(table.p_kq[:, CHANNEL_ORDER.index("L-")]))

    def test_empty_boundary_site_leaves_only_its_extraction_column_out(self):
        sp = derive_single_particle(generic_spec(2))
        state = GaussianState(C=np.diag([0.0, 0.5]).astype(complex), kind="custom")
        table = channel_stats(state, sp)
        defined = ~np.isnan(table.p_kq).all(axis=0)
        assert defined.tolist() == [False, True, True, True]
        assert np.nansum(table.p_kq, axis=0)[defined] == pytest.approx(1.0, abs=1e-6)


class TestExactTable:
    @pytest.mark.parametrize("kind", ["steady", "vacuum"])
    @pytest.mark.parametrize("L", [2, 3])
    def test_against_liouvillian_solves(self, L, kind, oracle_cache):
        spec = generic_spec(L)
        sp = derive_single_particle(spec)
        oracle = oracle_cache(spec)
        if kind == "steady":
            state, rho = steady_state(spec), oracle.steady_state()
        else:
            state, rho = vacuum_state(L), oracle.vacuum_density()
        exact, p_q = exact_moments(oracle, rho)
        table = channel_stats(state, sp)

        def close(got, want):
            return abs(got - want) <= 1e-7 * max(abs(want), 1.0)

        assert np.array_equal(np.isnan(table.p_kq), np.isnan(exact[0]))
        assert np.nanmax(np.abs(table.p_kq - exact[0])) <= 1e-8
        assert table.p_q == pytest.approx(p_q, abs=1e-12)
        for a in range(4):
            for b in range(4):
                p = exact[0, a, b]
                if not p > 1e-12:
                    assert np.isnan(table.mean[a, b])
                    continue
                mean = exact[1, a, b] / p
                assert close(table.mean[a, b], mean)
                assert close(table.variance[a, b], exact[2, a, b] / p - mean**2)
        if kind == "steady":
            clicks = p_q > 0.0
            m1, m2 = (p_q[clicks] @ exact[n][:, clicks].sum(axis=0) for n in (1, 2))
            mean, var = table.natd_moments()
            assert close(mean, m1)
            assert close(var, m2 - m1**2)


    @pytest.mark.parametrize("kind", ["steady", "vacuum"])
    def test_slow_decay_meets_tol_per_block(self, kind, oracle_cache):
        # Gamma = 0.01, so max|M_2| ~ 1e4: each moment block still meets
        # tol / 2 in its own units, tol / (2 Gamma^n).
        spec = ChainSpec(
            h=build_tight_binding(2, 1.0, 1.0), gamma1=0.0125, gammaL=0.0125, f1=0.6, fL=0.2
        )
        sp = derive_single_particle(spec)
        gamma = sp.gamma_total
        assert gamma == pytest.approx(0.01)
        oracle = oracle_cache(spec)
        if kind == "steady":
            state, rho = steady_state(spec), oracle.steady_state()
        else:
            state, rho = vacuum_state(2), oracle.vacuum_density()
        exact, _ = exact_moments(oracle, rho)
        assert np.nanmax(np.abs(exact[2])) > 5e3
        table = channel_stats(state, sp)
        for n in range(3):
            dev = np.nanmax(np.abs(table.moments[n] - exact[n]))
            assert dev <= 0.5 * DEFAULT_TOL / gamma**n


class TestVacuumLyapunov:
    def test_large_chain_against_lyapunov_solves(self):
        # From the vacuum, P(t, i-|j+) = rate_i- e^{-Gamma t} (Gd E_ii G)_jj
        # and P(t, i+|j+) = rate_i+ e^{-Gamma t} (Gd (1 - E_ii) G)_jj with
        # G = e^{-Qt}.  X = int e^{-Gamma t} Gd E G dt solves
        # W X + X W^dag = E with W = Q^dag + Gamma/2, and X1 = int t (...) dt
        # solves W X1 + X1 W^dag = X: exact moments with no quadrature.
        spec = generic_spec(20)
        sp = derive_single_particle(spec)
        ch = channels(spec)
        w = sp.Q.conj().T + 0.5 * sp.gamma_total * np.eye(spec.L)
        table = channel_stats(vacuum_state(spec.L), sp)

        def moments(e):
            x = lyapunov_solve(w, e)
            return x, lyapunov_solve(w, x)

        all_x, all_x1 = moments(np.eye(spec.L, dtype=complex))
        for a, kl in enumerate(CHANNEL_ORDER):
            k = ch[kl]
            e = np.zeros((spec.L, spec.L), dtype=complex)
            e[k.site_index, k.site_index] = 1.0
            x, x1 = moments(e)
            if k.sign == "+":
                x, x1 = all_x - x, all_x1 - x1
            for ql in ("1+", "L+"):
                b, j = CHANNEL_ORDER.index(ql), ch[ql].site_index
                p, m1 = k.rate * x[j, j].real, k.rate * x1[j, j].real
                assert abs(table.p_kq[a, b] - p) <= 1e-8
                assert abs(table.moments[1, a, b] - m1) <= 1e-7 * max(abs(m1), 1.0)
        assert np.all(np.isnan(table.p_kq[:, [CHANNEL_ORDER.index("1-"), CHANNEL_ORDER.index("L-")]]))
