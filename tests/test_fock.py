import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st_
from scipy.integrate import quad

import fermiwait.fock
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

    @pytest.mark.parametrize(
        "name, value, named",
        [
            ("_LOWER", np.array([[0.0, 2.0], [0.0, 0.0]]), "{c_0, c_0^dag}"),
            ("_PAULI_Z", np.eye(2), "{c_0, c_1^dag}"),
        ],
        ids=["doubled-lowering", "no-string"],
    )
    def test_a_broken_operator_names_the_first_failing_pair(self, monkeypatch, name, value, named):
        # A doubled lowering matrix breaks {c_i, c_i^dag} = 1 first; without
        # the Jordan-Wigner string the first failure is across sites.
        monkeypatch.setattr(fermiwait.fock, name, value)
        with pytest.raises(AssertionError) as err:
            build_fermions(3)
        assert str(err.value) == f"anticommutator {named} violated"


MiB = 2**20


def traced_oracle(spec):
    """(oracle, its steady state, bytes held after construction, peak bytes up to then)."""
    FockOracle(tight_binding_spec(2)).steady_state()  # imports and caches, outside the trace
    tracemalloc.start()
    try:
        oracle = FockOracle(spec)
        held = tracemalloc.get_traced_memory()[0]
        rho = oracle.steady_state()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return oracle, rho, held, peak


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
        assert sv_oracle.propagator.path == "eig" and other.propagator.path == "expm"
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

    def test_table_at_a_stack_of_times_equals_each_time_alone(self, oracle_cache):
        oracle = oracle_cache(generic_spec(3))
        times = np.array([0.0, 0.7, 3.1, 25.0])
        for rho in (oracle.steady_state(), oracle.vacuum_density()):
            table = oracle.wtd_matrix(times, rho)
            assert table.shape == (4, 4, 4)
            for m, t in enumerate(times):
                assert np.array_equal(table[m], oracle.wtd_matrix([t], rho)[0], equal_nan=True)

    def test_wtd_is_one_entry_of_the_table_and_impossible_columns_are_nan(self, oracle_cache):
        oracle = oracle_cache(generic_spec(3))
        vac = oracle.vacuum_density()
        table = oracle.wtd_matrix([1.3], vac)[0]
        for qb, ql in enumerate(CHANNEL_ORDER):
            # From the vacuum only an injection can click.
            assert np.isnan(table[:, qb]).all() == ql.endswith("-")
            for ka, kl in enumerate(CHANNEL_ORDER):
                if ql.endswith("-"):
                    with pytest.raises(ValueError, match="impossible"):
                        oracle.wtd(1.3, kl, ql, vac)
                else:
                    assert oracle.wtd(1.3, kl, ql, vac) == table[ka, qb]

    def test_reference_table_is_finite_and_positive(self, sv_oracle):
        table = sv_oracle.wtd_matrix([1.0], sv_oracle.steady_state())[0]
        for ql in ("1+", "L-"):
            for kl in CHANNEL_ORDER:
                val = table[CHANNEL_ORDER.index(kl), CHANNEL_ORDER.index(ql)]
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
        times = (0.4, 6.0, 75.0)
        tables = [oracle.wtd_matrix(times, rho) for rho in states]
        for m, t in enumerate(times):
            evolve = sla.expm(parts.no_click * t)
            for rho, table in zip(states, tables):
                vec = rho[parts.ket, parts.bra]
                for qb, ql in enumerate(CHANNEL_ORDER):
                    jumped = parts.jumps[ql] @ vec
                    denom = np.sum(jumped[diagonal])
                    if abs(denom) <= 1e-12:
                        continue
                    after = evolve @ jumped
                    for ka, kl in enumerate(CHANNEL_ORDER):
                        ref = (np.sum((parts.jumps[kl] @ after)[diagonal]) / denom).real
                        val = table[m, ka, qb]
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

    @pytest.mark.parametrize("make_spec", [generic_spec, tight_binding_spec])
    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_lu_null_vector_matches_svd(self, oracle_cache, make_spec, L):
        oracle = oracle_cache(make_spec(L))
        vh = np.linalg.svd(oracle.parts.full)[2]
        want = np.zeros((oracle.dim, oracle.dim), dtype=complex)
        want[oracle.parts.ket, oracle.parts.bra] = vh[-1].conj()
        want = 0.5 * (want + want.conj().T)
        want /= np.trace(want).real
        assert np.max(np.abs(oracle.steady_state() - want)) <= 1e-12

    def test_degenerate_null_space_is_rejected(self):
        # Without baths every function of the conserved particle number and
        # energy is a fixed point.
        spec = ChainSpec(h=build_tight_binding(3, 1.0, 1.0), gamma1=0.0, gammaL=0.0, f1=0.5, fL=0.5)
        with pytest.raises(ValueError, match="degenerate null space"):
            FockOracle(spec).steady_state()


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
            table = oracle.wtd_matrix([t], rho)[0]
            for qb, ql in enumerate(CHANNEL_ORDER):
                weight = np.trace((jumps[ql] @ rho.reshape(-1)).reshape(dim, dim)).real
                if weight <= 1e-12:
                    continue
                for ka, kl in enumerate(CHANNEL_ORDER):
                    a = table[ka, qb]
                    b = full_wtd(evolve, jumps, kl, ql, rho)
                    assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)


class TestOracleMemory:
    def test_five_site_oracle_holds_one_sector_operator(self):
        # The sector generator is 252^2 complex entries, 0.97 MiB; the no-click
        # part and the four jumps, five more of that size, are built on read.
        oracle, _, held, peak = traced_oracle(tight_binding_spec(5))
        assert held <= 1.5 * MiB
        assert peak <= 6 * MiB
        # Neither no_click, nor jumps, nor an index array is held before a read.
        assert sorted(vars(oracle.parts)) == ["c_ops", "full", "h_eff", "jump_ops", "rates"]
        assert oracle.parts.no_click is oracle.parts.no_click
        assert oracle.parts.jumps is oracle.parts.jumps


class TestLargeOracle:
    def test_six_site_oracle_equivalence(self):
        spec = generic_spec(6)
        sp = derive_single_particle(spec)
        ch = channels(spec)
        oracle, rho_ss, held, _ = traced_oracle(spec)
        assert held <= 30 * MiB  # the 924^2 sector generator is 13 MiB
        assert oracle.parts.no_click.shape == (924, 924)
        st = steady_state(spec)
        assert np.max(np.abs(oracle.covariance(rho_ss) - st.C)) < 1e-8
        times = np.random.default_rng(6).uniform(0.0, 20.0 / min(spec.gamma1, spec.gammaL), 5)
        for state, rho in ((st, rho_ss), (vacuum_state(6), oracle.vacuum_density())):
            table = oracle.wtd_matrix(times, rho)
            for qb, ql in enumerate(CHANNEL_ORDER):
                if state.kind == "vacuum" and ql.endswith("-"):
                    continue
                for ka, kl in enumerate(CHANNEL_ORDER):
                    for m, t in enumerate(times):
                        a = wtd_density(float(t), ch[kl], ch[ql], state, sp)
                        b = table[m, ka, qb]
                        assert abs(a - b) <= max(1e-8 * max(abs(a), abs(b)), 1e-12)
