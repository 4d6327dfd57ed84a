import dataclasses
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st_

import fermiwait.wtd as wtdmod
from fermiwait import linalg
from fermiwait.linalg import LinalgError, NotPositiveDefiniteError, expm, set_blas_threads
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
from fermiwait.wtd import (
    C_MIN_EIGENVALUE,
    COND_THRESHOLD,
    WtdNumericsError,
    default_time_grid,
    validate_times,
    wtd_curve,
    wtd_density,
    wtd_density_matrix,
)

from conftest import generic_spec, random_hermitian, rel_dev, tight_binding_spec
from full_block_reference import mp_steady_density_matrix, reference_density_matrix

# Brute-force reference values for the two-site chain at the reference
# working point (gamma = 0.1, full left bath, empty right bath), computed
# from the 16x16 vectorized generator.
STEADY_LMINUS_GIVEN_1PLUS = {
    0.5: 0.05849573712103775,
    1.0: 0.07730511070354423,
    2.0: 0.07494611666079273,
}
VACUUM_LMINUS_GIVEN_1PLUS = {
    0.5: 0.02186853179200408,
    1.0: 0.0641264796034925,
    2.0: 0.06801915801378729,
}


class TestAgainstBruteForce:
    def test_frozen_reference_points(self, sv_spec, sv_sp, sv_channels):
        st = steady_state(sv_spec)
        for t, ref in STEADY_LMINUS_GIVEN_1PLUS.items():
            val = wtd_density(t, sv_channels["L-"], sv_channels["1+"], st, sv_sp)
            assert val == pytest.approx(ref, rel=1e-8)
        vac = vacuum_state(2)
        for t, ref in VACUUM_LMINUS_GIVEN_1PLUS.items():
            val = wtd_density(t, sv_channels["L-"], sv_channels["1+"], vac, sv_sp)
            assert val == pytest.approx(ref, rel=1e-8)

    def test_live_table_at_unit_time(self, sv_spec, sv_sp, sv_channels, sv_oracle):
        st = steady_state(sv_spec)
        rho = sv_oracle.steady_state()
        for ql in ("1+", "L-"):
            for kl in CHANNEL_ORDER:
                a = wtd_density(1.0, sv_channels[kl], sv_channels[ql], st, sv_sp)
                b = sv_oracle.wtd(1.0, sv_channels[kl], sv_channels[ql], rho)
                assert rel_dev(a, b) < 1e-8

    def test_all_sixteen_pairs_language(self, oracle_cache):
        spec = generic_spec(3)
        sp = derive_single_particle(spec)
        ch = channels(spec)
        oracle = oracle_cache(spec)
        st = steady_state(spec)
        rho = oracle.steady_state()
        rng = np.random.default_rng(5)
        for ql in CHANNEL_ORDER:
            for kl in CHANNEL_ORDER:
                for t in rng.uniform(0.0, 50.0, size=3):
                    a = wtd_density(float(t), ch[kl], ch[ql], st, sp)
                    b = oracle.wtd(float(t), ch[kl], ch[ql], rho)
                    assert rel_dev(a, b) < 1e-8


class TestZeroRateChannels:
    def test_blocked_extraction_vanishes(self, sv_spec, sv_sp, sv_channels):
        # Full left bath: gamma_1^- = 0, so clicks in 1- never happen.
        st = steady_state(sv_spec)
        for ql in ("1+", "L-"):
            for t in (0.0, 1.0, 10.0):
                assert wtd_density(t, sv_channels["1-"], sv_channels[ql], st, sv_sp) == 0.0


class TestVacuumPath:
    def test_distant_click_needs_travel_time(self, sv_sp, sv_channels):
        vac = vacuum_state(2)
        assert wtd_density(0.0, sv_channels["L-"], sv_channels["1+"], vac, sv_sp) == 0.0

    def test_repeat_injection_starts_at_zero(self, sv_sp, sv_channels):
        vac = vacuum_state(2)
        assert wtd_density(0.0, sv_channels["1+"], sv_channels["1+"], vac, sv_sp) == (
            pytest.approx(0.0, abs=1e-14)
        )

    def test_extraction_conditioning_vanishes(self, sv_sp, sv_channels):
        vac = vacuum_state(2)
        for kl in CHANNEL_ORDER:
            assert wtd_density(1.0, sv_channels[kl], sv_channels["1-"], vac, sv_sp) == 0.0
        assert np.all(wtd_density_matrix(1.0, vac, sv_sp)[:, [0, 2]] == 0.0)

    def test_matches_regularized_general_path(self, sv_spec, sv_sp, sv_channels):
        lam_state = GaussianState(C=1e-10 * np.eye(2), kind="custom")
        vac = vacuum_state(2)
        for t in (0.5, 1.0, 2.0, 5.0):
            exact = wtd_density(t, sv_channels["L-"], sv_channels["1+"], vac, sv_sp)
            reg = wtd_density(t, sv_channels["L-"], sv_channels["1+"], lam_state, sv_sp)
            assert rel_dev(reg, exact) < 1e-6

    def test_regularized_path_converges_monotonically(self, sv_sp, sv_channels):
        ts = (0.5, 1.0, 2.0, 5.0)
        k, q = sv_channels["L-"], sv_channels["1+"]
        exact = [wtd_density(t, k, q, vacuum_state(2), sv_sp) for t in ts]
        errors = []
        for lam in (1e-4, 1e-6, 1e-8):
            state = GaussianState(C=lam * np.eye(2), kind="custom")
            errs = [rel_dev(wtd_density(t, k, q, state, sv_sp), e) for t, e in zip(ts, exact)]
            errors.append(max(errs))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] <= 1e-6

    def test_vacuum_kind_dispatches_to_exact_limit(self):
        # From the vacuum, P(t, i-|j+) = rate e^{-Gamma t} |G_ij|^2 and
        # P(t, i+|j+) = rate e^{-Gamma t} [(Gd G)_jj - |G_ij|^2], G = e^{-Qt}.
        spec = generic_spec(3)
        sp = derive_single_particle(spec)
        vac = vacuum_state(3)
        for t in (0.3, 1.7, 6.0):
            g = expm(-sp.Q * t)
            m = wtd_density_matrix(t, vac, sp)
            for a, kl in enumerate(CHANNEL_ORDER):
                k = sp.channels[kl]
                for b, ql in enumerate(CHANNEL_ORDER):
                    j = sp.channels[ql].site_index
                    hop = abs(g[k.site_index, j]) ** 2
                    if ql.endswith("-"):
                        want = 0.0
                    elif kl.endswith("-"):
                        want = k.rate * np.exp(-sp.gamma_total * t) * hop
                    else:
                        norm = np.sum(np.abs(g[:, j]) ** 2)
                        want = k.rate * np.exp(-sp.gamma_total * t) * (norm - hop)
                    assert abs(m[a, b] - want) <= 1e-13 * max(abs(want), 1e-3), (t, kl, ql)


class TestSymmetry:
    def test_mirrored_channel_pairs_coincide(self, sv_spec, sv_sp, sv_channels):
        # gamma_1 = gamma_L with a full left and empty right bath: the
        # mirror/particle-hole image swaps (L-|1+) <-> (1+|L-) and
        # (1+|1+) <-> (L-|L-).
        st = steady_state(sv_spec)
        for t in np.linspace(0.0, 40.0, 21):
            a1 = wtd_density(t, sv_channels["L-"], sv_channels["1+"], st, sv_sp)
            a2 = wtd_density(t, sv_channels["1+"], sv_channels["L-"], st, sv_sp)
            assert abs(a1 - a2) < 1e-9
            b1 = wtd_density(t, sv_channels["1+"], sv_channels["1+"], st, sv_sp)
            b2 = wtd_density(t, sv_channels["L-"], sv_channels["L-"], st, sv_sp)
            assert abs(b1 - b2) < 1e-9


class TestNumericalHygiene:
    def test_positivity_across_all_pairs(self):
        spec = generic_spec(3)
        sp = derive_single_particle(spec)
        st = steady_state(spec)
        for t in np.linspace(0.0, 60.0, 31):
            m = wtd_density_matrix(float(t), st, sp)
            assert np.all(m >= 0.0)

    def test_adjoint_propagator_consistency(self, sv_sp):
        for t in (0.5, 3.0, 12.0):
            g = expm(-sv_sp.Q * t)
            gd = expm(-sv_sp.Q.conj().T * t)
            assert np.max(np.abs(g.conj().T - gd)) < 1e-12

    def test_matrix_agrees_with_scalar_calls(self, sv_spec):
        # Both read the channel rates from the one table on the
        # single-particle set, so the entries agree bitwise, interior bath
        # fillings (generic_spec) included.
        for spec in (sv_spec, generic_spec(2), generic_spec(3)):
            sp = derive_single_particle(spec)
            ch = channels(spec)
            for state in (steady_state(spec), vacuum_state(spec.L)):
                m = wtd_density_matrix(1.3, state, sp)
                for a, kl in enumerate(CHANNEL_ORDER):
                    for b, ql in enumerate(CHANNEL_ORDER):
                        assert m[a, b] == wtd_density(1.3, ch[kl], ch[ql], state, sp)

    def test_conditioning_on_empty_site_is_rejected(self, sv_sp, sv_channels):
        dead = GaussianState(C=np.diag([0.0, 0.0]).astype(complex), kind="custom")
        with pytest.raises(WtdNumericsError, match="impossible"):
            wtd_density(1.0, sv_channels["1+"], sv_channels["1-"], dead, sv_sp)
        m = wtd_density_matrix(1.0, dead, sv_sp)
        assert np.all(m[:, CHANNEL_ORDER.index("1-")] == 0.0)
        assert np.all(m[:, CHANNEL_ORDER.index("L-")] == 0.0)

    def test_negative_time_rejected(self, sv_spec, sv_sp, sv_channels):
        st = steady_state(sv_spec)
        with pytest.raises(ValueError, match="nonnegative"):
            wtd_density(-1.0, sv_channels["1+"], sv_channels["1+"], st, sv_sp)

    def test_non_finite_time_rejected(self, sv_sp, sv_channels):
        # From the vacuum a NaN time used to come back as a NaN density.
        for t in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                wtd_density(t, sv_channels["L-"], sv_channels["1+"], vacuum_state(2), sv_sp)

    @pytest.mark.parametrize("kind", ["steady", "vacuum"])
    def test_state_and_set_sizes_must_match(self, kind):
        # A 3-site vacuum with a 4-site set used to return densities.
        state = steady_state(generic_spec(3)) if kind == "steady" else vacuum_state(3)
        sp = derive_single_particle(tight_binding_spec(4))
        with pytest.raises(ValueError, match="state has 3 sites, the single-particle set 4"):
            wtd_density_matrix(1.0, state, sp)

    def test_condition_flagging(self, sv_spec, sv_sp, sv_channels, monkeypatch):
        st = steady_state(sv_spec)
        k, q = sv_channels["L-"], sv_channels["1+"]
        (p,) = wtd_curve(k, q, st, sv_sp, [1.0]).points
        assert p.flag == "" and p.cond_estimate >= 1.0
        monkeypatch.setattr("fermiwait.wtd.COND_THRESHOLD", 0.5)
        (forced,) = wtd_curve(k, q, st, sv_sp, [1.0]).points
        assert "ill_conditioned" in forced.flag
        assert forced.value == p.value


class TestGrids:
    def test_default_horizon_covers_decay_and_traversal(self):
        spec = tight_binding_spec(5)
        grid = default_time_grid(derive_single_particle(spec))
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(max(20.0 / 0.1, 4 * 5 / 1.0))
        assert len(grid) == 400

    def test_traversal_scale_dominates_for_long_chains(self):
        spec = tight_binding_spec(60)
        assert default_time_grid(derive_single_particle(spec))[-1] == pytest.approx(240.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            validate_times([0.0, 1.0, 1.0], grid=True)
        with pytest.raises(ValueError, match=">= 0"):
            validate_times([-1.0, 1.0], grid=True)
        with pytest.raises(ValueError, match="nonempty"):
            validate_times([], grid=True)
        with pytest.raises(ValueError, match="finite"):
            validate_times([0.0, np.nan], grid=True)
        # A stack of times need not be a grid.
        assert validate_times([2.0, 1.0]).tolist() == [2.0, 1.0]
        assert validate_times([]).size == 0


class TestCurves:
    def test_curve_preserves_grid_order(self, sv_spec, sv_sp, sv_channels):
        st = steady_state(sv_spec)
        grid = np.linspace(0.0, 10.0, 23)
        curve = wtd_curve(sv_channels["L-"], sv_channels["1+"], st, sv_sp, grid)
        assert len(curve.points) == 23
        assert np.array_equal(curve.times, grid)
        assert curve.state_kind == "steady"
        assert curve.from_channel.label == "1+"
        assert curve.to_channel.label == "L-"

    def test_parallel_matches_serial(self, sv_spec, sv_sp, sv_channels):
        st = steady_state(sv_spec)
        grid = np.linspace(0.0, 20.0, 40)
        k, q = sv_channels["L-"], sv_channels["1+"]
        serial = [wtd_density(float(t), k, q, st, sv_sp) for t in grid]
        assert np.array_equal(wtd_curve(k, q, st, sv_sp, grid).values, serial)

    def test_vacuum_curve_is_clean(self, sv_sp, sv_channels):
        vac = vacuum_state(2)
        grid = np.linspace(0.0, 30.0, 50)
        curve = wtd_curve(sv_channels["L-"], sv_channels["1+"], vac, sv_sp, grid)
        assert all(p.flag == "" for p in curve.points)
        assert np.all(curve.values >= 0.0)


_occupation = st_.one_of(st_.sampled_from([0.0, 1.0]), st_.floats(0.05, 0.95))


class TestAgainstFullBlocks:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        L=st_.integers(2, 12),
        seed=st_.integers(0, 2**32 - 1),
        gammas=st_.tuples(st_.floats(0.05, 2.0), st_.floats(0.05, 2.0)),
        fs=st_.tuples(_occupation, _occupation),
        kind=st_.sampled_from(["steady", "custom", "vacuum"]),
        t=st_.floats(0.0, 40.0),
    )
    def test_boundary_blocks_match_full_blocks(self, L, seed, gammas, fs, kind, t):
        rng = np.random.default_rng(seed)
        spec = ChainSpec(
            h=random_hermitian(rng, L), gamma1=gammas[0], gammaL=gammas[1], f1=fs[0], fL=fs[1]
        )
        sp = derive_single_particle(spec)
        if kind == "steady":
            state = steady_state(spec)
        elif kind == "vacuum":
            state = vacuum_state(L)
        else:
            pure = seed % 3 == 0  # some modes exactly empty or full
            occ = rng.choice([0.0, 1.0, 0.5], size=L) if pure else rng.uniform(0, 1, L)
            u = np.linalg.qr(rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L)))[0]
            state = GaussianState(C=(u * occ) @ u.conj().T)
        want, amp = reference_density_matrix(t, state, sp)
        try:
            got = wtd_density_matrix(t, state, sp)
        except (WtdNumericsError, LinalgError):
            # Custom states with modes occupied exactly 0 or 1 make (1 - C)
            # or C singular; custom and vacuum points may then fail, but only
            # by name and only when badly conditioned.  Steady states,
            # growing modes (a bath with f > 1/2) included, never fail.
            assert kind != "steady" and (amp > 1e4 or (kind == "custom" and pure))
            return
        if not amp <= COND_THRESHOLD:
            return  # as past the "ill_conditioned" flag: no digits left to compare
        # Relative 1e-10 or absolute 1e-14; both kernels lose about `amp`
        # units of roundoff on the largest entry.
        atol = max(1e-14, 1e-14 * amp * np.max(np.abs(want)))
        assert np.all(np.abs(got - want) <= np.maximum(1e-10 * np.abs(want), atol))


def _densities_and_flags(ts, state, sp):
    """The (n, 4, 4) densities and the flags of every (k, q) curve, or the error message of q.

    "clamped" is left out: it marks a density within roundoff of zero, whose
    sign is itself roundoff.
    """
    flags = {}
    for q in CHANNEL_ORDER:
        for k in CHANNEL_ORDER:
            try:
                curve = wtd_curve(sp.channels[k], sp.channels[q], state, sp, ts)
            except WtdNumericsError as exc:  # q cannot click from this state
                flags[k, q] = str(exc)
            else:
                flags[k, q] = [set(p.flag.split(",")) - {"", "clamped"} for p in curve.points]
    return wtd_density_matrix(ts, state, sp), flags


class TestBatchedSolveAgainstLapackLoop:
    """Up to linalg.BATCHED_SOLVE_MAX_SITES sites the Cholesky factors are inverted in one batched
    call; the per-time LAPACK loop (the threshold at 0) agrees to roundoff, flags included."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        L=st_.integers(2, 8),
        seed=st_.integers(0, 2**32 - 1),
        gammas=st_.tuples(st_.floats(0.05, 2.0), st_.floats(0.05, 2.0)),
        fs=st_.tuples(_occupation, _occupation),
        kind=st_.sampled_from(["steady", "custom"]),
        ts=st_.lists(st_.floats(0.0, 40.0), min_size=1, max_size=5, unique=True).map(sorted),
    )
    def test_densities_and_flags_agree(self, L, seed, gammas, fs, kind, ts):
        rng = np.random.default_rng(seed)
        spec = ChainSpec(
            h=random_hermitian(rng, L), gamma1=gammas[0], gammaL=gammas[1], f1=fs[0], fL=fs[1]
        )
        sp = derive_single_particle(spec)
        if kind == "steady":
            state = steady_state(spec)
        else:
            u = np.linalg.qr(rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L)))[0]
            state = GaussianState(C=(u * rng.uniform(0.05, 0.95, L)) @ u.conj().T)
        got, got_flags = _densities_and_flags(ts, state, sp)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "BATCHED_SOLVE_MAX_SITES", 0)
            want, want_flags = _densities_and_flags(ts, state, sp)
        assert got_flags == want_flags
        assert np.all(np.abs(got - want) <= np.maximum(1e-10 * np.abs(want), 1e-12))


@pytest.fixture
def kernel_forms(monkeypatch):
    """Counts of the factorizations the kernel makes, by form (block-build workers included)."""
    calls = {"eigenbasis": 0, "lu": 0}
    lock = threading.Lock()

    def counted(form, fn):
        def wrapper(*args):
            with lock:
                calls[form] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        wtdmod, "cholesky_half_solve", counted("eigenbasis", wtdmod.cholesky_half_solve)
    )
    monkeypatch.setattr(wtdmod, "_lu_blocks", counted("lu", wtdmod._lu_blocks))
    return calls


def _above_half_draw(seed):
    """Random steady chain, L 2-4, both baths more than half full, t in [0, 40]."""
    rng = np.random.default_rng(seed)
    L = int(rng.integers(2, 5))
    spec = ChainSpec(
        h=random_hermitian(rng, L),
        gamma1=rng.uniform(0.05, 2.0),
        gammaL=rng.uniform(0.05, 2.0),
        f1=rng.uniform(0.5, 1.0),
        fL=rng.uniform(0.5, 1.0),
    )
    return spec, float(rng.uniform(0.0, 40.0))


# Strong coupling across a weak link: the steady C has its smallest
# eigenvalue at 6.2e-4, below C_MIN_EIGENVALUE, and a mode of G grows at
# rate 0.92.  The LU form raises from about t = 10 on.
WEAK_LINK = ChainSpec(
    h=np.array([[0.8, -0.02 - 0.018j], [-0.02 + 0.018j, 1.4]]),
    gamma1=1.85,
    gammaL=0.94,
    f1=1.0,
    fL=0.0,
)


def _assert_matches_mpmath(spec, t):
    got = wtd_density_matrix(t, steady_state(spec), derive_single_particle(spec))
    want = mp_steady_density_matrix(spec, t)
    # The oracle-equivalence tolerance of acceptance criterion 1.
    assert np.all(np.abs(got - want) <= np.maximum(1e-8 * np.maximum(abs(got), abs(want)), 1e-12))


def _lowest_occupation_state(rng, L, lowest):
    u = np.linalg.qr(rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L)))[0]
    occ = np.concatenate(([lowest], rng.uniform(0.2, 0.8, L - 1)))
    return GaussianState(C=(u * occ) @ u.conj().T)


class TestGrowingModes:
    """Where a bath has f > 1/2, G = e^{-Qt} grows.

    The LU form of A raises on the seeded draws and on the weak link from
    t = 10; t = 2 is before the weak link's switch time, on the LU form.
    """

    @pytest.mark.parametrize("seed", [9, 12, 61, 121])
    def test_steady_draws_against_mpmath(self, seed):
        _assert_matches_mpmath(*_above_half_draw(seed))

    @pytest.mark.parametrize("t", [2.0, 10.0, 28.3])
    def test_weak_link_against_mpmath(self, t):
        _assert_matches_mpmath(WEAK_LINK, t)

    def test_fully_filled_chain_is_clean(self):
        # C = 1 and every mode grows: the eigenbasis form keeps B = Dbar_s S D_s.
        spec = tight_binding_spec(6, f1=1.0, fL=1.0)
        sp = derive_single_particle(spec)
        st = steady_state(spec)
        for t in (1.0, 40.0, 400.0):
            (p,) = wtd_curve(sp.channels["L+"], sp.channels["1-"], st, sp, [t]).points
            assert p.flag == "" and p.cond_estimate < 1e3


#: The stack of times of ``TestStackedTimes``.
STACK_TIMES = np.array([0.0, 0.3, 1.7, 4.0, 9.5, 23.0, 61.0])


class TestFormSelection:
    def test_each_side_of_the_smallest_occupation(self, kernel_forms):
        # f <= 1/2 on both baths: no mode of G grows, so the lowest
        # occupation alone picks the form.
        spec = tight_binding_spec(4, gamma=0.5, f1=0.5, fL=0.2)
        rng = np.random.default_rng(0)
        sides = ((1.1 * C_MIN_EIGENVALUE, "eigenbasis"), (0.9 * C_MIN_EIGENVALUE, "lu"))
        for lowest, form in sides:
            state = _lowest_occupation_state(rng, 4, lowest)
            sp = derive_single_particle(spec)
            kernel_forms.update(eigenbasis=0, lu=0)
            for t in (0.5, 7.0, 30.0):
                got = wtd_density_matrix(t, state, sp)
                want, amp = reference_density_matrix(t, state, sp)
                atol = max(1e-14, 1e-14 * amp * np.max(np.abs(want)))
                assert np.all(np.abs(got - want) <= np.maximum(1e-10 * np.abs(want), atol))
            assert kernel_forms[form] == 3 and sum(kernel_forms.values()) == 3

    def test_small_occupation_switches_form_once_modes_grow(self, kernel_forms):
        # The LU form loses about e^{2 g t}, the eigenbasis form about 1 / min(C).
        sp = derive_single_particle(WEAK_LINK)
        st = steady_state(WEAK_LINK)
        lowest = np.linalg.eigvalsh(st.C)[0]
        growth = np.max(np.linalg.eigvals(-sp.Q).real)
        assert lowest < C_MIN_EIGENVALUE and growth > 0
        switch = -np.log(lowest) / (2 * growth)
        wtd_density_matrix(0.9 * switch, st, sp)
        assert kernel_forms == {"eigenbasis": 0, "lu": 1}
        wtd_density_matrix(1.1 * switch, st, sp)
        assert kernel_forms == {"eigenbasis": 1, "lu": 1}

    def test_failed_cholesky_takes_the_lu_form(self, monkeypatch, kernel_forms):
        # A refused stack runs again one time at a time, and each refused
        # time takes the LU form.
        spec = generic_spec(3)
        st = steady_state(spec)
        cases = [
            (ts, wtd_density_matrix(ts, st, derive_single_particle(spec))) for ts in (2.0, STACK_TIMES)
        ]

        def refuse(a, b):
            raise NotPositiveDefiniteError("forced")

        monkeypatch.setattr(wtdmod, "cholesky_half_solve", refuse)
        for ts, clean in cases:
            kernel_forms.update(eigenbasis=0, lu=0)
            forced = wtd_density_matrix(ts, st, derive_single_particle(spec))
            assert kernel_forms["lu"] == np.size(ts)
            scale = np.max(clean, axis=(-2, -1), keepdims=True)
            assert np.all(np.abs(forced - clean) <= 1e-12 * scale)
        _assert_stack_is_bitwise_single(STACK_TIMES, st, derive_single_particle(spec))


class TestExceptionalPoint:
    def test_fallback_agrees_with_oracle(self, oracle_cache, kernel_forms):
        # Q = i h + diag(gamma_1 (1/2 - f_1), gamma_L (1/2 - f_L)) on two sites is
        # defective when |gamma_1 (1/2 - f_1) - gamma_L (1/2 - f_L)| = 2 J:
        # here |2 - 0| = 2 with J = 1.
        spec = ChainSpec(h=build_tight_binding(2, 0.0, 1.0), gamma1=4.0, gammaL=4.0, f1=0.0, fL=0.5)
        sp = derive_single_particle(spec)
        assert sp.propagator.path == "expm"
        ch = channels(spec)
        oracle = oracle_cache(spec)
        for state, rho in (
            (steady_state(spec), oracle.steady_state()),
            (vacuum_state(2), oracle.vacuum_density()),
        ):
            for ql in ("1-", "L-", "L+"):
                if ql.endswith("-") and state.kind == "vacuum":
                    continue
                for kl in CHANNEL_ORDER:
                    for t in (0.0, 0.3, 1.1, 2.5):
                        a = wtd_density(t, ch[kl], ch[ql], state, sp)
                        b = oracle.wtd(t, ch[kl], ch[ql], rho)
                        assert rel_dev(a, b) < 1e-8
        # No eigenvectors, no eigenbasis form: every steady point took the LU form.
        assert kernel_forms["eigenbasis"] == 0 and kernel_forms["lu"] > 0


def _refuse_cholesky(a, b):
    raise NotPositiveDefiniteError("forced")


class TestLuForm:
    """Every time on the LU form against the full blocks: densities and the exact cond(A).

    ``C_MIN_EIGENVALUE`` = 1 would leave the times after ``lu_until`` on the
    eigenbasis form wherever a mode grows (f > 1/2), so the Cholesky
    factorization of B is refused instead: each refused time takes the LU form.
    """

    @staticmethod
    def _assert_matches_full_blocks(t, state, sp):
        g = sp.propagator.matrix(t)
        a = (g.conj().T @ g) @ state.C + (np.eye(sp.L) - state.C)
        assert rel_dev(wtdmod._lu_blocks(t, state.C, sp).cond[0], np.linalg.cond(a, 1)) <= 1e-10
        want, amp = reference_density_matrix(t, state, sp)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wtdmod, "cholesky_half_solve", _refuse_cholesky)
            try:
                got = wtd_density_matrix(t, state, sp)
            except WtdNumericsError:
                # Where modes grow the LU form loses about e^{2 g t} and may
                # refuse, but only by name and only past the flag.
                assert not amp <= COND_THRESHOLD
                return
        if not amp <= COND_THRESHOLD:
            return  # as past the "ill_conditioned" flag: no digits left to compare
        atol = max(1e-14, 1e-14 * amp * np.max(np.abs(want)))
        assert np.all(np.abs(got - want) <= np.maximum(1e-10 * np.abs(want), atol))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        L=st_.integers(2, 8),
        seed=st_.integers(0, 2**32 - 1),
        gammas=st_.tuples(st_.floats(0.05, 2.0), st_.floats(0.05, 2.0)),
        fs=st_.tuples(_occupation, _occupation),
        t=st_.floats(0.0, 20.0),
    )
    def test_steady_draws(self, L, seed, gammas, fs, t):
        rng = np.random.default_rng(seed)
        spec = ChainSpec(
            h=random_hermitian(rng, L), gamma1=gammas[0], gammaL=gammas[1], f1=fs[0], fL=fs[1]
        )
        self._assert_matches_full_blocks(t, steady_state(spec), derive_single_particle(spec))

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.1, 2.5, 9.0])
    def test_exceptional_point_chain(self, t):
        spec = ChainSpec(h=build_tight_binding(2, 0.0, 1.0), gamma1=4.0, gammaL=4.0, f1=0.0, fL=0.5)
        sp = derive_single_particle(spec)
        assert sp.propagator.path == "expm"
        self._assert_matches_full_blocks(t, steady_state(spec), sp)

    def test_exactly_singular_a_is_a_named_error(self, monkeypatch):
        # Site 1 full and G underflowed to 0: A = 1 - C has an exact zero pivot.
        spec = tight_binding_spec(2, gamma=1.0, f1=0.0, fL=0.0)
        sp = derive_single_particle(spec)
        state = GaussianState(C=np.diag([1.0, 0.5]).astype(complex), kind="custom")
        assert not np.any(sp.propagator.matrix(2000.0))
        monkeypatch.setattr(wtdmod, "cholesky_half_solve", _refuse_cholesky)
        with pytest.raises(LinalgError, match=r"A of the LU form at t=2000 is exactly singular"):
            wtd_density_matrix(2000.0, state, sp)


def _assert_stack_is_bitwise_single(ts, state, sp):
    stack = wtd_density_matrix(ts, state, sp)
    assert stack.shape == (len(ts), 4, 4)
    for t, row in zip(ts, stack):
        assert np.array_equal(row, wtd_density_matrix(float(t), state, sp)), t


class TestStackedTimes:
    """Matrix m of wtd_density_matrix(ts) is the matrix of ts[m] alone, bitwise."""

    TIMES = STACK_TIMES

    def test_eigenbasis_form(self, kernel_forms):
        spec = generic_spec(3)
        sp = derive_single_particle(spec)
        _assert_stack_is_bitwise_single(self.TIMES, steady_state(spec), sp)
        assert kernel_forms["lu"] == 0

    def test_small_occupation_on_both_sides_of_the_switch(self, kernel_forms):
        # A full left bath makes modes grow; the custom state's lowest
        # occupation is below C_MIN_EIGENVALUE, so early times take the LU form.
        spec = tight_binding_spec(4, gamma=0.5, f1=1.0, fL=0.2)
        sp = derive_single_particle(spec)
        state = _lowest_occupation_state(np.random.default_rng(3), 4, 0.5 * C_MIN_EIGENVALUE)
        switch = wtdmod._eigenbasis(state, sp).lu_until
        assert switch > 0.0
        ts = switch * np.array([0.0, 0.2, 0.9, 1.1, 3.0, 8.0])
        kernel_forms.update(eigenbasis=0, lu=0)
        wtd_density_matrix(ts, state, sp)
        assert kernel_forms == {"eigenbasis": 1, "lu": 3}
        _assert_stack_is_bitwise_single(ts, state, sp)

    def test_refused_cholesky_of_one_time(self, monkeypatch, kernel_forms):
        spec = generic_spec(3)
        sp = derive_single_particle(spec)
        st = steady_state(spec)
        real = wtdmod.cholesky_half_solve
        seen = []
        monkeypatch.setattr(
            wtdmod, "cholesky_half_solve", lambda a, b: seen.append(a.copy()) or real(a, b)
        )
        wtd_density_matrix(self.TIMES[3], st, sp)
        (poisoned,) = seen

        def refuse_one(a, b):
            if any(np.array_equal(m, poisoned[0]) for m in a):
                raise NotPositiveDefiniteError("forced")
            return real(a, b)

        monkeypatch.setattr(wtdmod, "cholesky_half_solve", refuse_one)
        kernel_forms.update(eigenbasis=0, lu=0)
        stack = wtd_density_matrix(self.TIMES, st, sp)
        # The stack is refused, then each time is factorized alone: all but
        # the poisoned time succeed, and only that one takes the LU form.
        assert kernel_forms == {"eigenbasis": len(self.TIMES) - 1, "lu": 1}
        _assert_stack_is_bitwise_single(self.TIMES, st, sp)
        clean = wtd_density_matrix(self.TIMES[3], st, derive_single_particle(spec))
        assert np.all(np.abs(stack[3] - clean) <= 1e-12 * np.max(clean))

    @pytest.mark.parametrize("kind", ["steady", "vacuum"])
    def test_exceptional_point_on_expm(self, kind):
        spec = ChainSpec(h=build_tight_binding(2, 0.0, 1.0), gamma1=4.0, gammaL=4.0, f1=0.0, fL=0.5)
        sp = derive_single_particle(spec)
        assert sp.propagator.path == "expm"
        state = steady_state(spec) if kind == "steady" else vacuum_state(2)
        _assert_stack_is_bitwise_single(self.TIMES / 10.0, state, sp)

    def test_vacuum(self, sv_sp):
        _assert_stack_is_bitwise_single(self.TIMES, vacuum_state(2), sv_sp)

    def test_stack_longer_than_one_part(self, monkeypatch):
        spec = generic_spec(3)
        sp = derive_single_particle(spec)
        st = steady_state(spec)
        whole = wtd_density_matrix(self.TIMES, st, sp)
        monkeypatch.setattr(wtdmod, "STACK_BYTES", 2 * 16 * 3**2)
        assert np.array_equal(wtd_density_matrix(self.TIMES, st, sp), whole)
        for state in (st, vacuum_state(3)):
            _assert_stack_is_bitwise_single(self.TIMES, state, sp)

    def test_imaginary_residue_names_the_failing_time(self, monkeypatch):
        spec = generic_spec(3)
        sp = derive_single_particle(spec)
        st = steady_state(spec)
        real = wtdmod._eigen_blocks
        bad_t = self.TIMES[4]

        def rotated(ts, e, gamma_total):
            phase = np.where(ts == bad_t, 1j, 1.0 + 0.0j)
            return dataclasses.replace(real(ts, e, gamma_total), phase=phase)

        monkeypatch.setattr(wtdmod, "_eigen_blocks", rotated)
        with pytest.raises(WtdNumericsError) as single:
            wtd_density_matrix(bad_t, st, sp)
        with pytest.raises(WtdNumericsError) as stacked:
            wtd_density_matrix(self.TIMES, st, sp)
        assert f"t={bad_t:.6g}," in str(single.value)
        assert str(stacked.value) == str(single.value)
        wtd_density_matrix(self.TIMES[:4], st, sp)

    def test_impossible_click_raises_the_single_time_error(self, sv_sp, sv_channels):
        dead = GaussianState(C=np.diag([0.0, 0.0]).astype(complex), kind="custom")
        k, q = sv_channels["1+"], sv_channels["1-"]
        with pytest.raises(WtdNumericsError, match="impossible") as single:
            wtd_density(1.0, k, q, dead, sv_sp)
        with pytest.raises(WtdNumericsError) as stacked:
            wtd_curve(k, q, dead, sv_sp, self.TIMES)
        assert str(stacked.value) == str(single.value)

    @pytest.mark.parametrize("kind", ["steady", "vacuum"])
    def test_curve_points_are_single_points(self, kind):
        # The curve is one stack of the whole grid.
        spec = generic_spec(3)
        sp = derive_single_particle(spec)
        state = steady_state(spec) if kind == "steady" else vacuum_state(3)
        k, q = sp.channels["L-"], sp.channels["1+"]
        grid = np.linspace(0.0, 60.0, 24)
        curve = wtd_curve(k, q, state, sp, grid)
        single = tuple(wtd_curve(k, q, state, sp, [t]).points[0] for t in grid)
        assert curve.points == single
        assert curve.values.tolist() == [wtd_density(t, k, q, state, sp) for t in grid]

    def test_time_arguments(self, sv_spec, sv_sp):
        st = steady_state(sv_spec)
        assert wtd_density_matrix(1.0, st, sv_sp).shape == (4, 4)
        assert wtd_density_matrix([1.0], st, sv_sp).shape == (1, 4, 4)
        assert wtd_density_matrix(np.array([]), st, sv_sp).shape == (0, 4, 4)
        with pytest.raises(ValueError, match="nonnegative"):
            wtd_density_matrix(np.array([1.0, -1.0]), st, sv_sp)
        with pytest.raises(ValueError, match="1-D"):
            wtd_density_matrix(np.ones((2, 2)), st, sv_sp)


@pytest.mark.usefixtures("one_blas_thread")
class TestBlockPool:
    """The tasks of ``_build_blocks`` give the same blocks on the pool as serially, bitwise."""

    @staticmethod
    def _counted_pools(monkeypatch) -> list:
        """The keyword arguments of every pool ``_build_blocks`` starts from now on."""
        pools = []

        class CountedPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(wtdmod, "ThreadPoolExecutor", CountedPool)
        return pools

    @classmethod
    def _pooled_and_serial(cls, monkeypatch, ts, state, sp):
        pools = cls._counted_pools(monkeypatch)
        monkeypatch.setattr(wtdmod, "POOL_MIN_SITES", sp.L)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pooled = wtdmod._build_blocks(ts, state, sp)
        assert pools == [{"max_workers": 2}]
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        serial = wtdmod._build_blocks(ts, state, sp)
        assert len(pools) == 1
        for name in ("m", "log_prefactor", "phase", "cond"):
            assert np.array_equal(getattr(pooled, name), getattr(serial, name)), name
        return pooled

    def test_eigenbasis_parts_with_a_refused_cholesky(self, monkeypatch, kernel_forms):
        spec = generic_spec(3)
        sp = derive_single_particle(spec)
        st = steady_state(spec)
        ts = np.linspace(0.0, 60.0, 11)
        clean = wtdmod._build_blocks(ts, st, sp)
        real = wtdmod.cholesky_half_solve
        seen = []
        monkeypatch.setattr(
            wtdmod, "cholesky_half_solve", lambda a, b: seen.append(a.copy()) or real(a, b)
        )
        wtdmod._build_blocks(ts[4:5], st, sp)
        poisoned = seen[0][0]

        def refuse_one(a, b):
            if any(np.array_equal(m, poisoned) for m in a):
                raise NotPositiveDefiniteError("forced")
            return real(a, b)

        monkeypatch.setattr(wtdmod, "cholesky_half_solve", refuse_one)
        monkeypatch.setattr(wtdmod, "STACK_BYTES", 3 * 16 * 3**2)  # four parts of up to 3 times
        kernel_forms.update(eigenbasis=0, lu=0)
        blocks = self._pooled_and_serial(monkeypatch, ts, st, sp)
        # Each run factorizes three parts and, its part refused, two times of
        # the poisoned part alone; the poisoned time takes the LU form inside
        # its part's task.
        assert kernel_forms == {"eigenbasis": 2 * (3 + 2), "lu": 2}
        others = np.arange(ts.size) != 4
        for name in ("m", "log_prefactor", "phase", "cond"):
            assert np.array_equal(getattr(blocks, name)[others], getattr(clean, name)[others])
        assert np.allclose(blocks.m[4], clean.m[4], rtol=1e-10, atol=1e-14)

    def test_small_occupation_lu_times_are_tasks(self, monkeypatch, kernel_forms):
        spec = tight_binding_spec(4, gamma=0.5, f1=1.0, fL=0.2)
        sp = derive_single_particle(spec)
        state = _lowest_occupation_state(np.random.default_rng(3), 4, 0.5 * C_MIN_EIGENVALUE)
        switch = wtdmod._eigenbasis(state, sp).lu_until
        ts = switch * np.array([0.0, 0.2, 0.5, 0.9, 1.1, 2.0, 3.0, 5.0, 8.0])
        monkeypatch.setattr(wtdmod, "STACK_BYTES", 3 * 16 * 4**2)
        kernel_forms.update(eigenbasis=0, lu=0)
        # Four LU-form times and two parts of eigenbasis times: six tasks.
        self._pooled_and_serial(monkeypatch, ts, state, sp)
        assert kernel_forms == {"eigenbasis": 2 * 2, "lu": 2 * 4}

    def test_no_pool_on_top_of_blas_threads(self, monkeypatch):
        spec = generic_spec(3)
        sp = derive_single_particle(spec)
        st = steady_state(spec)
        ts = np.linspace(0.0, 60.0, 11)
        pools = self._counted_pools(monkeypatch)
        monkeypatch.setattr(wtdmod, "POOL_MIN_SITES", sp.L)
        monkeypatch.setattr(wtdmod, "STACK_BYTES", 3 * 16 * 3**2)  # four parts
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        wtdmod._build_blocks(ts, st, sp)
        assert pools == [{"max_workers": 2}]
        set_blas_threads(2)  # the fixture restores the count
        wtdmod._build_blocks(ts, st, sp)
        assert len(pools) == 1

    def test_the_propagator_is_built_before_the_pool(self, monkeypatch):
        # From the vacuum only the tasks read the propagator; a worker that
        # built it could race the others into building it again.
        sp = derive_single_particle(tight_binding_spec(wtdmod.POOL_MIN_SITES))
        ts = np.linspace(0.0, 100.0, 40)  # two parts of boundary columns
        built = []

        class CheckedPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append("propagator" in vars(sp))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(wtdmod, "ThreadPoolExecutor", CheckedPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        wtdmod._build_blocks(ts, vacuum_state(sp.L), sp)
        assert built == [True]
