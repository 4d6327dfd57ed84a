import random
import re
import sys
import threading

import numpy as np
import pytest

from fermiwait.model import (
    CHANNEL_ORDER,
    MEMO_ENTRIES,
    ChainSpec,
    GaussianState,
    build_tight_binding,
    channels,
    derive_single_particle,
    steady_state,
    vacuum_state,
)

from conftest import generic_spec, random_hermitian, tight_binding_spec


class TestTightBinding:
    def test_two_site_coefficients(self):
        h = build_tight_binding(2, 1.0, 1.0)
        assert np.array_equal(h, np.array([[-1.0, -1.0], [-1.0, -1.0]]))

    def test_zero_couplings(self):
        assert np.all(build_tight_binding(3, 0.0, 0.0) == 0.0)

    @pytest.mark.parametrize("L,V,J", [(2, 0.5, 2.0), (5, -1.0, 0.3), (9, 0.0, 1.0)])
    def test_hermitian_and_tridiagonal(self, L, V, J):
        h = build_tight_binding(L, V, J)
        assert np.array_equal(h, h.conj().T)
        beyond = np.triu(h, 2)
        assert np.all(beyond == 0.0)

    def test_rejects_single_site(self):
        with pytest.raises(ValueError):
            build_tight_binding(1, 1.0, 1.0)


class TestChainSpec:
    def test_rejects_non_hermitian(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            ChainSpec(h=h, gamma1=0.1, gammaL=0.1, f1=0.5, fL=0.5)

    def test_rejects_bad_fermi_factor(self):
        h = build_tight_binding(2, 1.0, 1.0)
        with pytest.raises(ValueError, match="f1"):
            ChainSpec(h=h, gamma1=0.1, gammaL=0.1, f1=1.5, fL=0.0)

    def test_rejects_negative_rate(self):
        h = build_tight_binding(2, 1.0, 1.0)
        with pytest.raises(ValueError, match="gamma1"):
            ChainSpec(h=h, gamma1=-0.1, gammaL=0.1, f1=0.5, fL=0.0)

    @pytest.mark.parametrize("name", ["gamma1", "gammaL"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_rate(self, name, value):
        # nan < 0 is False: a NaN rate used to pass.
        rates = dict(gamma1=0.1, gammaL=0.1)
        rates[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ChainSpec(h=build_tight_binding(2, 1.0, 1.0), f1=0.5, fL=0.0, **rates)

    def test_channel_rates(self):
        spec = ChainSpec(
            h=build_tight_binding(3, 1.0, 1.0), gamma1=0.4, gammaL=0.6, f1=0.25, fL=0.75
        )
        ch = channels(spec)
        assert ch["1+"].rate == pytest.approx(0.1)
        assert ch["1-"].rate == pytest.approx(0.3)
        assert ch["L+"].rate == pytest.approx(0.45)
        assert ch["L-"].rate == pytest.approx(0.15)
        assert ch["L-"].site_index == 2
        assert [ch[label].label for label in CHANNEL_ORDER] == list(CHANNEL_ORDER)


class TestDeriveSingleParticle:
    def test_isolated_chain(self):
        spec = ChainSpec(
            h=build_tight_binding(3, 1.0, 0.7), gamma1=0.0, gammaL=0.0, f1=0.5, fL=0.5
        )
        sp = derive_single_particle(spec)
        assert np.allclose(sp.W, 1j * spec.h)
        assert np.all(sp.F == 0.0)
        assert np.allclose(sp.Q, 1j * spec.h)
        assert sp.gamma_total == 0.0

    def test_reference_working_point(self, sv_spec):
        sp = derive_single_particle(sv_spec)
        assert sp.gamma_total == pytest.approx(0.1)
        assert np.allclose(sp.F, np.diag([0.1, 0.0]))
        assert np.allclose(sp.W, 1j * sv_spec.h + np.diag([0.05, 0.05]))

    def test_q_is_w_minus_f(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            spec = ChainSpec(
                h=random_hermitian(rng, 4),
                gamma1=rng.uniform(0, 1),
                gammaL=rng.uniform(0, 1),
                f1=rng.uniform(0, 1),
                fL=rng.uniform(0, 1),
            )
            sp = derive_single_particle(spec)
            assert np.array_equal(sp.Q, sp.W - sp.F)

    def test_deterministic(self, sv_spec):
        a = derive_single_particle(sv_spec)
        b = derive_single_particle(sv_spec)
        assert np.array_equal(a.W, b.W) and np.array_equal(a.F, b.F)

    def test_drift_spectrum_in_right_half_plane(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            spec = ChainSpec(
                h=random_hermitian(rng, 5),
                gamma1=rng.uniform(0, 1),
                gammaL=rng.uniform(0, 1),
                f1=rng.uniform(0, 1),
                fL=rng.uniform(0, 1),
            )
            w = derive_single_particle(spec).W
            assert np.linalg.eigvals(w).real.min() >= -1e-12
        for L in (2, 4, 7):
            w = derive_single_particle(tight_binding_spec(L)).W
            assert np.linalg.eigvals(w).real.min() > 0.0

    def test_single_particle_set_carries_spec_channels(self):
        spec = generic_spec(4)
        sp = derive_single_particle(spec)
        assert sp.channels == channels(spec)
        # F and gamma_total are built from the same injection rates.
        assert sp.F[0, 0] == sp.channels["1+"].rate
        assert sp.F[-1, -1] == sp.channels["L+"].rate
        assert sp.gamma_total == sp.channels["1+"].rate + sp.channels["L+"].rate


class TestSteadyState:
    def test_equilibrium_fills_uniformly(self):
        spec = ChainSpec(
            h=build_tight_binding(4, 1.0, 1.0), gamma1=0.2, gammaL=0.5, f1=0.3, fL=0.3
        )
        st = steady_state(spec)
        assert st.kind == "steady"
        assert np.max(np.abs(st.C - 0.3 * np.eye(4))) < 1e-12

    def test_matches_brute_force_covariance(self, sv_spec, sv_oracle):
        st = steady_state(sv_spec)
        ref = sv_oracle.covariance(sv_oracle.steady_state())
        assert np.max(np.abs(st.C - ref)) < 1e-8

    def test_matches_brute_force_for_complex_h(self, oracle_cache):
        rng = np.random.default_rng(2)
        spec = ChainSpec(
            h=random_hermitian(rng, 3), gamma1=0.3, gammaL=0.17, f1=0.9, fL=0.25
        )
        st = steady_state(spec)
        oracle = oracle_cache(spec)
        ref = oracle.covariance(oracle.steady_state())
        assert np.max(np.abs(st.C - ref)) < 1e-8

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_occupations_between_bath_fillings(self, L, oracle_cache):
        spec = ChainSpec(
            h=build_tight_binding(L, 1.0, 1.0), gamma1=0.3, gammaL=0.2, f1=0.8, fL=0.1
        )
        st = steady_state(spec)
        diag = np.real(np.diagonal(st.C))
        assert np.all(diag >= 0.1 - 1e-10) and np.all(diag <= 0.8 + 1e-10)
        oracle = oracle_cache(spec)
        ref = np.real(np.diagonal(oracle.covariance(oracle.steady_state())))
        assert np.max(np.abs(diag - ref)) < 1e-8

    def test_lyapunov_residual(self, sv_spec):
        sp = derive_single_particle(sv_spec)
        c = steady_state(sv_spec).C
        res = np.linalg.norm(sp.W @ c + c @ sp.W.conj().T - sp.F)
        assert res <= 1e-10 * np.linalg.norm(sp.F)

    def test_requires_both_couplings(self):
        spec = ChainSpec(
            h=build_tight_binding(2, 1.0, 1.0), gamma1=0.0, gammaL=0.1, f1=1.0, fL=0.0
        )
        with pytest.raises(ValueError, match="gamma"):
            steady_state(spec)


class TestVacuumState:
    def test_covariance_is_negligible(self):
        vac = vacuum_state(5)
        assert vac.kind == "vacuum"
        assert np.all(vac.C == 0)

    def test_occupations_vanish(self):
        vac = vacuum_state(3)
        assert np.all(np.diagonal(vac.C) == 0)


class TestGaussianState:
    def test_rejects_bad_eigenvalues(self):
        with pytest.raises(ValueError, match="eigenvalues"):
            GaussianState(C=1.5 * np.eye(2))

    def test_rejects_non_hermitian(self):
        c = np.array([[0.5, 0.4], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            GaussianState(C=c)

    @pytest.mark.parametrize("c", [np.full((2, 2), np.nan), np.diag([0.5, np.inf])], ids=["nan", "inf"])
    def test_rejects_non_finite_covariance(self, c):
        with pytest.raises(ValueError, match="covariance matrix must be finite"):
            GaussianState(C=c)

    @pytest.mark.parametrize(
        "shape", [(2, 3), (3,), (0, 0), (1, 1)], ids=["2x3", "1-D", "0x0", "1x1"]
    )
    def test_rejects_bad_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"L >= 2, got shape {shape}")):
            GaussianState(C=np.zeros(shape))

    def test_vacuum_must_be_empty(self, sv_spec):
        with pytest.raises(ValueError, match="vacuum state must have C = 0"):
            GaussianState(C=steady_state(sv_spec).C, kind="vacuum")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            GaussianState(C=0.5 * np.eye(2), kind="thermal")


class TestMemo:
    def test_one_build_per_state(self, sv_spec):
        sp = derive_single_particle(sv_spec)
        a, b = steady_state(sv_spec), vacuum_state(2)
        builds = []

        def build(tag):
            return lambda: builds.append(tag) or tag

        assert sp.memo(a, build("a")) == "a"
        assert sp.memo(a, build("again")) == "a"
        assert sp.memo(b, build("b")) == "b"
        assert sp.memo(a, build("none")) is sp.memo(a, build("none"))
        assert builds == ["a", "b"]

    def test_oldest_entry_is_dropped(self, sv_spec):
        sp = derive_single_particle(sv_spec)
        states = [vacuum_state(2) for _ in range(MEMO_ENTRIES + 1)]
        for i, st in enumerate(states):
            sp.memo(st, lambda i=i: i)
        assert sp.memo(states[-1], lambda: -1) == MEMO_ENTRIES
        assert sp.memo(states[0], lambda: -1) == -1

    def test_threads_never_mix_up_states(self, sv_spec):
        # Threads evaluating densities on one set share its memo; more threads
        # than cores, a short switch interval and constant eviction.
        sp = derive_single_particle(sv_spec)
        states = [vacuum_state(2) for _ in range(2 * MEMO_ENTRIES)]
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(3000):
                    i = rng.randrange(len(states))
                    got = sp.memo(states[i], lambda: i)
                    if got != i:
                        errors.append((i, got))
            except Exception as exc:  # reported below, not lost with the thread
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
