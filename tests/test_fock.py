import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st_
from scipy.integrate import quad

from fermiwait import linalg
from fermiwait.model import (
    CHANNEL_ORDER,
    ChainSpec,
    build_tight_binding,
    channels,
    derive_single_particle,
    steady_state,
    vacuum_state,
)
from fermiwait.fock import (
    FockOracle,
    build_fermions,
    build_liouvillian,
    quadratic_form_operator,
)
from fermiwait.wtd import wtd_density

from conftest import generic_spec, random_hermitian, tight_binding_spec
from full_fock_reference import full_liouvillian, full_steady_state, full_wtd


class TestFermions:
    def test_single_mode_matrix(self):
        (c,) = build_fermions(1)
        assert np.array_equal(c, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_cross_site_anticommutators_vanish(self):
        c1, c2 = build_fermions(2)
        anti = c1 @ c2.conj().T + c2.conj().T @ c1
        assert np.max(np.abs(anti)) < 1e-13

    def test_number_operator_spectrum(self):
        for c in build_fermions(3):
            n = c.conj().T @ c
            evals = np.sort(np.linalg.eigvalsh(n))
            assert set(np.round(evals).astype(int)) == {0, 1}

    def test_size_cap(self):
        ops = build_fermions(6)
        assert ops[0].shape == (64, 64)
        with pytest.raises(ValueError, match="oracle supports"):
            build_fermions(7)


class TestLiouvillian:
    def test_isolated_chain_is_antihermitian_rotation(self):
        spec = ChainSpec(
            h=build_tight_binding(2, 1.0, 1.0), gamma1=0.0, gammaL=0.0, f1=0.5, fL=0.5
        )
        parts = build_liouvillian(spec)
        evals = np.linalg.eigvals(parts.full)
        assert np.max(np.abs(evals.real)) < 1e-10

    def test_trace_preservation(self, sv_spec):
        parts = build_liouvillian(sv_spec)
        trace = (parts.ket == parts.bra).astype(float)
        left = trace @ parts.full
        assert np.max(np.abs(left)) < 1e-10

    def test_no_click_part_from_effective_hamiltonian(self, sv_spec):
        # build_liouvillian already asserts full = no_click + sum(jumps);
        # recompute the residual here so a regression is visible.
        parts = build_liouvillian(sv_spec)
        recomposed = parts.no_click + sum(parts.jumps.values())
        assert np.max(np.abs(parts.full - recomposed)) < 1e-13

    def test_no_click_evolution_loses_norm(self, sv_oracle):
        rho = sv_oracle.steady_state()
        norms = []
        for t in (0.0, 1.0, 5.0, 20.0):
            g = sv_oracle.propagator.matrix(t)
            norms.append(np.trace(g @ rho @ g.conj().T).real)
        assert norms[0] == pytest.approx(1.0, abs=1e-10)
        assert all(-1e-10 <= n <= 1.0 + 1e-10 for n in norms)
        assert norms[1] > norms[2] > norms[3]

    def test_propagator_expm_fallback_agrees(self, sv_spec, sv_oracle, monkeypatch):
        monkeypatch.setattr(linalg, "PROPAGATOR_COND_MAX", 1.0)
        other = FockOracle(sv_spec)
        assert sv_oracle.propagator.uses_eig and not other.propagator.uses_eig
        rho = sv_oracle.steady_state()
        for t in (0.3, 2.7):
            ga, gb = sv_oracle.propagator.matrix(t), other.propagator.matrix(t)
            a = ga @ rho @ ga.conj().T
            b = gb @ rho @ gb.conj().T
            assert np.max(np.abs(a - b)) < 1e-11


class TestOracleWtd:
    def test_extraction_from_vacuum_is_impossible(self, sv_spec, sv_oracle):
        vac = sv_oracle.vacuum_density()
        ch = channels(sv_spec)
        with pytest.raises(ValueError, match="impossible"):
            sv_oracle.wtd(1.0, ch["L-"], ch["1-"], vac)

    def test_double_injection_at_zero_delay_vanishes(self, sv_spec, sv_oracle):
        vac = sv_oracle.vacuum_density()
        ch = channels(sv_spec)
        assert sv_oracle.wtd(0.0, ch["1+"], ch["1+"], vac) == pytest.approx(0.0, abs=1e-13)

    def test_reference_table_is_finite_and_positive(self, sv_spec, sv_oracle):
        ch = channels(sv_spec)
        rho = sv_oracle.steady_state()
        for ql in ("1+", "L-"):
            for kl in CHANNEL_ORDER:
                val = sv_oracle.wtd(1.0, ch[kl], ch[ql], rho)
                assert np.isfinite(val) and val >= -1e-13

    def test_normalization_of_oracle_densities(self, sv_spec, sv_oracle):
        # Independent confirmation that total escape probability is 1.
        ch = channels(sv_spec)
        rho = sv_oracle.steady_state()
        for ql in ("1+", "L-"):
            total = 0.0
            for kl in ("1+", "L-"):
                total += quad(
                    lambda t, kl=kl: sv_oracle.wtd(t, ch[kl], ch[ql], rho),
                    0.0,
                    400.0,
                    limit=400,
                )[0]
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_verify_chain_wtd_matches_sector_expm(self):
        # The verify_L5 benchmark chain: oracle.wtd (2^L sandwich) against
        # tr(J_k e^{L0 t} J_q rho) / tr(J_q rho) on the C(2L, L) sector.
        oracle = FockOracle(tight_binding_spec(5))
        parts = oracle.parts
        diagonal = parts.ket == parts.bra
        states = (oracle.steady_state(), oracle.vacuum_density())
        for t in (0.4, 6.0, 75.0):
            evolve = sla.expm(parts.no_click * t)
            for rho in states:
                vec = rho[parts.ket, parts.bra]
                for ql in CHANNEL_ORDER:
                    jumped = parts.jumps[ql] @ vec
                    denom = np.sum(jumped[diagonal])
                    if abs(denom) <= 1e-12:
                        continue
                    after = evolve @ jumped
                    for kl in CHANNEL_ORDER:
                        ref = (np.sum((parts.jumps[kl] @ after)[diagonal]) / denom).real
                        val = oracle.wtd(t, kl, ql, rho)
                        assert abs(val - ref) <= 1e-12 * max(abs(val), abs(ref), 1.0)


class TestOracleSteadyState:
    def test_equilibrium_product_state(self, oracle_cache):
        spec = ChainSpec(
            h=build_tight_binding(2, 1.0, 1.0), gamma1=0.3, gammaL=0.4, f1=0.6, fL=0.6
        )
        oracle = oracle_cache(spec)
        rho = oracle.steady_state()
        assert np.max(np.abs(oracle.covariance(rho) - 0.6 * np.eye(2))) < 1e-10

    def test_positivity_and_trace(self, sv_oracle):
        rho = sv_oracle.steady_state()
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_covariance_against_lyapunov(self, oracle_cache):
        spec = generic_spec(3)
        oracle = oracle_cache(spec)
        ref = steady_state(spec).C
        assert np.max(np.abs(oracle.covariance(oracle.steady_state()) - ref)) < 1e-8


class TestGaussianDensity:
    def test_half_filling_is_maximally_mixed(self, sv_oracle):
        rho = sv_oracle.gaussian_density(0.5 * np.eye(2))
        assert np.max(np.abs(rho - np.eye(4) / 4.0)) < 1e-12

    def test_vacuum_projector(self, sv_oracle):
        rho = sv_oracle.gaussian_density(np.zeros((2, 2)))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho - expected)) < 1e-13

    def test_covariance_roundtrip(self, sv_oracle):
        rng = np.random.default_rng(0)
        for _ in range(5):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            m = 0.5 * (m + m.conj().T)
            occ, u = np.linalg.eigh(m)
            occ = 1.0 / (1.0 + np.exp(occ))
            cov = (u * occ) @ u.conj().T
            rho = sv_oracle.gaussian_density(cov)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(sv_oracle.covariance(rho) - cov)) < 1e-10

    def test_partition_function_consistency(self, sv_oracle):
        # tr e^{-M_many} equals the closed form 1/det(1-C), and the Gaussian
        # density of C is e^{-M_many} / Z.
        rng = np.random.default_rng(1)
        m = rng.standard_normal((2, 2))
        m = 0.5 * (m + m.T)
        gibbs = sla.expm(quadratic_form_operator(-m, sv_oracle.c_ops))
        eps, u = np.linalg.eigh(m)
        occ = 1.0 / (1.0 + np.exp(eps))
        z_closed = 1.0 / np.prod(1.0 - occ)
        assert np.trace(gibbs).real == pytest.approx(z_closed, rel=1e-12)
        rho = sv_oracle.gaussian_density((u * occ) @ u.T)
        assert np.max(np.abs(rho - gibbs / z_closed)) < 1e-12

    def test_rejects_invalid_covariance(self, sv_oracle):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            sv_oracle.gaussian_density(2.0 * np.eye(2))


_occupation = st_.one_of(st_.sampled_from([0.0, 1.0]), st_.floats(0.05, 0.95))


class TestAgainstFullSpace:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        L=st_.integers(2, 4),
        seed=st_.integers(0, 2**32 - 1),
        gammas=st_.tuples(st_.floats(0.05, 2.0), st_.floats(0.05, 2.0)),
        fs=st_.tuples(_occupation, _occupation),
        t=st_.floats(0.0, 20.0),
    )
    def test_sector_restriction_of_full_space(self, L, seed, gammas, fs, t):
        rng = np.random.default_rng(seed)
        spec = ChainSpec(
            h=random_hermitian(rng, L), gamma1=gammas[0], gammaL=gammas[1], f1=fs[0], fL=fs[1]
        )
        oracle = FockOracle(spec)
        parts = oracle.parts
        full, no_click, jumps = full_liouvillian(spec)
        dim = 2**L
        sector = parts.ket * dim + parts.bra  # row-major position in vec(rho)
        rest = np.setdiff1d(np.arange(dim * dim), sector)
        pairs = [(full, parts.full), (no_click, parts.no_click)]
        pairs += [(jumps[label], parts.jumps[label]) for label in CHANNEL_ORDER]
        for big, small in pairs:
            assert not np.any(big[np.ix_(sector, rest)])
            assert not np.any(big[np.ix_(rest, sector)])
            assert np.array_equal(big[np.ix_(sector, sector)], small)

        rho_ss = oracle.steady_state()
        assert np.max(np.abs(rho_ss - full_steady_state(full, dim))) <= 1e-12
        evolve = sla.expm(no_click * t)
        for rho in (rho_ss, oracle.vacuum_density()):
            for ql in CHANNEL_ORDER:
                weight = np.trace((jumps[ql] @ rho.reshape(-1)).reshape(dim, dim)).real
                if weight <= 1e-12:
                    continue
                for kl in CHANNEL_ORDER:
                    a = oracle.wtd(t, kl, ql, rho)
                    b = full_wtd(evolve, jumps, kl, ql, rho)
                    assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)


class TestLargeOracle:
    def test_six_site_oracle_equivalence(self):
        spec = generic_spec(6)
        sp = derive_single_particle(spec)
        ch = channels(spec)
        oracle = FockOracle(spec)
        assert oracle.parts.no_click.shape == (924, 924)
        st = steady_state(spec)
        rho_ss = oracle.steady_state()
        assert np.max(np.abs(oracle.covariance(rho_ss) - st.C)) < 1e-8
        times = np.random.default_rng(6).uniform(0.0, 20.0 / min(spec.gamma1, spec.gammaL), 5)
        for state, rho in ((st, rho_ss), (vacuum_state(6), oracle.vacuum_density())):
            for ql in CHANNEL_ORDER:
                if state.kind == "vacuum" and ql.endswith("-"):
                    continue
                for kl in CHANNEL_ORDER:
                    for t in times:
                        a = wtd_density(float(t), ch[kl], ch[ql], state, sp)
                        b = oracle.wtd(float(t), ch[kl], ch[ql], rho)
                        assert abs(a - b) <= max(1e-8 * max(abs(a), abs(b)), 1e-12)
