import inspect
import random
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st_

import fermiwait.model
from fermiwait import stats, wtd
from fermiwait.linalg import (
    LinalgError,
    Propagator,
    lyapunov_solve,
    secular_eig,
    secular_lyapunov_solve,
)
from fermiwait.model import (
    CHANNEL_ORDER,
    ChainSpec,
    GaussianState,
    SingleParticleSet,
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

    def test_keeps_the_hermitian_part(self):
        # h Hermitian to 1e-13 only: eigh reads one triangle, W and Q read all
        # of h, so the spec keeps (h + h^dag) / 2 and both describe it.
        rng = np.random.default_rng(3)
        h0 = random_hermitian(rng, 6)
        h = h0 + 1e-13 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        assert 0 < np.linalg.norm(h - h.conj().T) <= 1e-12 * np.linalg.norm(h)
        spec = ChainSpec(h=h, gamma1=0.3, gammaL=0.7, f1=0.9, fL=0.2)
        assert np.array_equal(spec.h, spec.h.conj().T)
        assert np.array_equal(spec.h, 0.5 * (h + h.conj().T))
        sp = derive_single_particle(spec)
        e, u = sp.h_eig
        assert np.max(np.abs((u * e) @ u.conj().T - spec.h)) < 1e-14
        assert np.array_equal(sp.W - 1j * spec.h, np.diag([0.15, 0, 0, 0, 0, 0.35]))
        prop = sp.propagator
        assert prop.path == "given"
        assert np.max(np.abs(prop.matrix(2.0) - Propagator(-sp.Q).matrix(2.0))) < 1e-13
        c = sp.steady_state().C
        assert np.max(np.abs(c - lyapunov_solve(sp.W, sp.F))) < 1e-13

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


class TestRecordEquality:
    """Records that hold arrays compare and hash by identity; the others by value."""

    def test_specs_sets_and_states_compare_and_hash_by_identity(self):
        spec, twin = tight_binding_spec(3), tight_binding_spec(3)
        sp, sp_twin = derive_single_particle(spec), derive_single_particle(twin)
        pairs = [(spec, twin), (sp, sp_twin), (sp.steady_state(), sp_twin.steady_state())]
        for a, b in pairs:
            assert a == a and a != b  # the generated __eq__ raised on the arrays
            assert {a: "a", b: "b"}[a] == "a"  # the generated __hash__ raised

    def test_channels_compare_by_value(self):
        ch, twin = channels(tight_binding_spec(3)), channels(tight_binding_spec(3))
        assert ch is not twin and ch == twin
        assert {ch["1+"]: 1}[twin["1+"]] == 1

    @pytest.mark.parametrize(
        "cls",
        [
            ChainSpec,
            SingleParticleSet,
            GaussianState,
            stats.QuadratureResult,
            stats.ChannelStats,
            wtd._Blocks,
            wtd._Eigenbasis,
        ],
        ids=lambda cls: cls.__name__,
    )
    def test_every_record_with_an_array_field_uses_identity(self, cls):
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__


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

    def test_stores_the_spec_its_channels_and_h_eig_only(self):
        # W, F, Q and gamma_total follow from the spec: none is stored, and
        # the set holds no L x L array of its own once its steady state and
        # propagator are built.
        spec = generic_spec(5)
        sp = derive_single_particle(spec)
        sp.steady_state()
        sp.propagator
        assert set(vars(sp)) == {"spec", "channels", "h_eig", "propagator"}
        assert sp.spec is spec and sp.channels == channels(spec)
        assert not any(isinstance(v, np.ndarray) for v in vars(sp).values())
        for name in ("W", "F", "Q", "gamma_total"):
            assert isinstance(inspect.getattr_static(SingleParticleSet, name), property)
        assert sp.W is not sp.W and np.array_equal(sp.W, sp.W)


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
        assert sp.memo(b, build("none")) is sp.memo(b, build("none"))
        assert builds == ["a", "b"]

    def test_oldest_entry_is_dropped(self, sv_spec):
        sp = derive_single_particle(sv_spec)
        a, b = vacuum_state(2), vacuum_state(2)
        assert sp.memo(a, lambda: "a") == "a"
        assert sp.memo(b, lambda: "b") == "b"
        assert sp.memo(a, lambda: "a again") == "a again"
        assert sp.memo(a, lambda: "never") == "a again"

    def test_threads_never_mix_up_states(self, sv_spec):
        # Threads evaluating densities on one set share its memo; more threads
        # than cores, a short switch interval and constant replacement.
        sp = derive_single_particle(sv_spec)
        states = [vacuum_state(2) for _ in range(4)]
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


_filling = st_.one_of(st_.sampled_from([0.0, 0.5, 1.0]), st_.floats(0.0, 1.0))


def _secular_spec(kind, L, seed, gammas, fs):
    rng = np.random.default_rng(seed)
    if kind == "nearest":
        h = build_tight_binding(L, rng.uniform(-2.0, 2.0), rng.uniform(0.2, 2.0))
        h += np.diag(rng.uniform(-1.0, 1.0, L))
    else:
        m = rng.standard_normal((L, L))
        if kind == "dense complex":
            m = m + 1j * rng.standard_normal((L, L))
        h = 0.5 * (m + m.conj().T)
    return ChainSpec(h=h, gamma1=gammas[0], gammaL=gammas[1], f1=fs[0], fL=fs[1])


class TestSecularPath:
    """The setup from eigh(h) against LAPACK's eig of Q and Schur solve of W C + C W^dag = F."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        kind=st_.sampled_from(["nearest", "dense real", "dense complex"]),
        L=st_.integers(2, 40),
        seed=st_.integers(0, 2**32 - 1),
        gammas=st_.tuples(st_.floats(0.05, 4.0), st_.floats(0.05, 4.0)),
        fs=st_.tuples(_filling, _filling),
    )
    def test_matches_the_lapack_path(self, kind, L, seed, gammas, fs):
        spec = _secular_spec(kind, L, seed, gammas, fs)
        sp = derive_single_particle(spec)
        e, u = sp.h_eig
        g1, gL = gammas
        for g, delta in ((sp.Q, (g1 * (0.5 - fs[0]), gL * (0.5 - fs[1]))), (sp.W, (g1 / 2, gL / 2))):
            try:
                lam, _ = secular_eig(e, u[[0, -1]], delta)
            except LinalgError as exc:
                # Only a dark mode or a repeated value of e, which a
                # nearest-neighbour chain has only where delta vanishes.
                assert re.search("dark mode|repeated eigenvalue", str(exc))
                assert kind != "nearest" or not any(delta), exc
                continue
            ref = np.linalg.eigvals(g)
            scale = np.max(np.abs(ref))
            dev = max(np.abs(lam[:, None] - ref).min(axis=1).max(), np.abs(ref[:, None] - lam).min(axis=1).max())
            assert dev <= 1e-12 * scale
        # Eigenvalue roundoff enters as e^{(w + dw) t}: 1.1e-12 relative at
        # t = 50 at most over these examples.
        ours, lapack = sp.propagator, Propagator(-sp.Q)
        for t in (0.5, 5.0, 50.0):
            want = lapack.matrix(t)
            assert np.max(np.abs(ours.matrix(t) - want)) <= 1e-13 * max(1.0, t) * np.max(np.abs(want))
        try:
            c = sp.steady_state().C
        except LinalgError as exc:
            with pytest.raises(LinalgError) as lapack_exc:
                lyapunov_solve(sp.W, sp.F)
            assert str(lapack_exc.value) == str(exc)
            return
        # The Schur solve's forward error reaches about L eps ||F|| / (2 min
        # Re lam(W)) where a mode barely decays (test_linalg.py); the secular
        # path then keeps more digits (1e-14 against an mpmath reference
        # where the Schur solve was off by 1.6e-2).
        slowest = float(np.linalg.eigvals(sp.W).real.min())
        tol = 16 * L * np.finfo(float).eps * np.max(np.abs(sp.F)) / (2.0 * slowest)
        assert np.max(np.abs(c - lyapunov_solve(sp.W, sp.F))) <= tol

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        kind=st_.sampled_from(["nearest", "dense real", "dense complex"]),
        L=st_.integers(2, 12),
        seed=st_.integers(0, 2**32 - 1),
        gammas=st_.tuples(st_.floats(0.05, 4.0), st_.floats(0.05, 4.0)),
        fs=st_.tuples(_filling, _filling),
    )
    def test_secular_solves_read_the_dense_bath_diagonals(self, kind, L, seed, gammas, fs):
        # delta and phi come from the bath rates, not from the dense W, Q and
        # F; they must still be bitwise the real diagonal entries there.
        sp = derive_single_particle(_secular_spec(kind, L, seed, gammas, fs))
        seen = {}

        def recording(name, solve):
            def wrapped(e, r, *diagonals):
                seen[name] = [np.asarray(d, dtype=float).tobytes() for d in diagonals]
                return solve(e, r, *diagonals)

            return wrapped

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fermiwait.model, "secular_eig", recording("Q", secular_eig))
            patch.setattr(fermiwait.model, "secular_lyapunov_solve", recording("W, F", secular_lyapunov_solve))
            sp.propagator
            try:
                sp.steady_state()
            except LinalgError:
                pass
        bath = [0, -1]
        dense = [np.ascontiguousarray(g.diagonal()[bath].real).tobytes() for g in (sp.Q, sp.W, sp.F)]
        assert seen == {"Q": dense[:1], "W, F": dense[1:]}

    def test_poisoned_secular_pairs_take_the_schur_solve(self, monkeypatch):
        # A zero null vector in secular_eig's bordered solve normalizes to a
        # NaN column.  The pair-sum check must refuse it, so the steady state
        # is the Schur solve's; a NaN that passed both checks gave a NaN C,
        # refused by GaussianState as a config error.
        def poisoned(e, r, delta):
            lam, y = secular_eig(e, r, delta)
            y[:, 2] = np.nan
            return lam, y

        sp = derive_single_particle(generic_spec(6))
        monkeypatch.setattr(fermiwait.linalg, "secular_eig", poisoned)
        with np.errstate(invalid="ignore"):  # a NaN reaching C's division warns there first
            c = sp.steady_state().C
        assert np.array_equal(c, lyapunov_solve(sp.W, sp.F))

    def test_degenerate_spectrum_takes_the_lapack_path(self, monkeypatch):
        # Two identical decoupled chains: every value of h twice.  Chain A
        # sees only bath 1 and chain B only bath L, so C = diag(f1 1, fL 1).
        h = np.zeros((8, 8), dtype=complex)
        h[:4, :4] = h[4:, 4:] = build_tight_binding(4, 1.0, 1.0)
        sp = derive_single_particle(ChainSpec(h=h, gamma1=0.3, gammaL=0.2, f1=0.9, fL=0.1))
        assert sp.propagator.path == "eig"
        calls = []
        monkeypatch.setattr(
            fermiwait.model, "lyapunov_solve", lambda w, f: calls.append(w) or lyapunov_solve(w, f)
        )
        c = sp.steady_state().C
        assert len(calls) == 1
        assert np.max(np.abs(c - np.diag([0.9] * 4 + [0.1] * 4))) < 1e-12

    def test_weakly_disordered_equilibrium_chain_is_exact(self, monkeypatch):
        # On-site disorder of width 0.2 at L = 200: the slowest mode decays
        # at 1.5e-12, and the Schur solve is off by 9.4e-6 here on one BLAS
        # thread (8.2e-5 on two).
        rng = np.random.default_rng(3)
        h = build_tight_binding(200, 1.0, 1.0) + np.diag(rng.uniform(-0.1, 0.1, 200))
        sp = derive_single_particle(ChainSpec(h=h, gamma1=0.5, gammaL=0.5, f1=0.3, fL=0.3))
        monkeypatch.setattr(fermiwait.model, "lyapunov_solve", None)  # the fallback is not reached
        c = sp.steady_state().C
        assert np.max(np.abs(c - 0.3 * np.eye(200))) <= 1e-11

    def test_decay_below_the_pair_floor_is_refused_by_name(self):
        # The same family at seed 0 has a mode decaying at 3.8e-15, below the
        # pair-sum floor 1e-14 max(1, max |lam|) of both paths.
        rng = np.random.default_rng(0)
        h = build_tight_binding(200, 1.0, 1.0) + np.diag(rng.uniform(-0.1, 0.1, 200))
        spec = ChainSpec(h=h, gamma1=0.5, gammaL=0.5, f1=0.3, fL=0.3)
        with pytest.raises(LinalgError, match="pair"):
            steady_state(spec)
