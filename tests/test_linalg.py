import numpy as np
import pytest
import scipy.linalg as sla

from fermiwait import linalg
from fermiwait.fock import FockOracle
from fermiwait.linalg import (
    PROPAGATOR_COND_MAX,
    LinalgError,
    Propagator,
    SingularMatrixError,
    expm,
    lu_logdet,
    lyapunov_solve,
    solve_factored,
)
from fermiwait.model import ChainSpec, build_tight_binding, derive_single_particle, steady_state


def brute_force_det(a):
    """Cofactor expansion along the first row; independent of LU."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * brute_force_det(minor)
    return total


def random_complex(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


class TestExpm:
    def test_zero_matrix_gives_identity(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_diagonal_case(self):
        a, b = 0.7 - 0.2j, -1.3 + 0.5j
        out = expm(np.diag([a, b]))
        assert np.allclose(out, np.diag([np.exp(a), np.exp(b)]), rtol=1e-14)

    def test_inverse_property(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            a = random_complex(rng, 4)
            a *= 5.0 / np.linalg.norm(a)
            prod = expm(a) @ expm(-a)
            assert np.max(np.abs(prod - np.eye(4))) < 1e-10

    def test_adjoint_commutes_with_exponential(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = random_complex(rng, 5)
            dev = np.max(np.abs(expm(a.conj().T) - expm(a).conj().T))
            assert dev < 1e-12 * np.max(np.abs(expm(a)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            expm(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        a = np.eye(2)
        a[0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            expm(a)


class TestPropagator:
    def test_matrix_matches_expm_at_large_size(self):
        # The benchmark chain: L = 200 tight binding, full left and empty right bath.
        spec = ChainSpec(h=build_tight_binding(200, 1.0, 1.0), gamma1=0.1, gammaL=0.1, f1=1.0, fL=0.0)
        sp = derive_single_particle(spec)
        prop = sp.propagator
        assert prop.uses_eig
        assert sp.propagator is prop  # built once per single-particle set
        # Eigenvalue roundoff enters as e^{(w + dw) t}, so the deviation grows
        # linearly in t: 5.6e-13 at t = 400, 1.1e-12 at the horizon t = 800.
        for t in (0.5, 7.0, 100.0, 400.0, 800.0):
            dev = np.max(np.abs(prop.matrix(t) - sla.expm(-sp.Q * t)))
            assert dev <= 1e-12 * max(1.0, t / 400.0)

    def test_apply_matches_matrix(self):
        rng = np.random.default_rng(11)
        g = random_complex(rng, 6) - 3.0 * np.eye(6)
        prop = Propagator(g)
        vec = random_complex(rng, 6)[:, :2]
        for t in (0.0, 0.4, 3.0):
            assert np.max(np.abs(prop.apply(t, vec) - prop.matrix(t) @ vec)) < 1e-13
            assert np.max(np.abs(prop.apply(t, vec[:, 0]) - prop.matrix(t) @ vec[:, 0])) < 1e-13

    def test_zero_time_is_exact_identity(self):
        rng = np.random.default_rng(12)
        prop = Propagator(random_complex(rng, 4))
        assert np.array_equal(prop.matrix(0.0), np.eye(4))

    def test_exceptional_point_falls_back_to_expm(self):
        # A 2 x 2 Jordan block: eig returns nearly parallel eigenvectors.
        g = np.array([[-1.0, 1.0], [0.0, -1.0]], dtype=complex)
        v = np.linalg.eig(g)[1]
        assert np.linalg.norm(v, 1) * np.linalg.norm(np.linalg.inv(v), 1) > PROPAGATOR_COND_MAX
        prop = Propagator(g)
        assert not prop.uses_eig
        for t in (0.5, 2.0):
            want = np.exp(-t) * np.array([[1.0, t], [0.0, 1.0]])
            assert np.max(np.abs(prop.matrix(t) - want)) < 1e-14

    def test_forced_fallback_agrees(self, monkeypatch):
        rng = np.random.default_rng(13)
        g = random_complex(rng, 5) - 3.0 * np.eye(5)
        auto = Propagator(g)
        monkeypatch.setattr(linalg, "PROPAGATOR_COND_MAX", 1.0)
        forced = Propagator(g)
        assert auto.uses_eig and not forced.uses_eig
        assert np.max(np.abs(auto.matrix(1.3) - forced.matrix(1.3))) < 1e-12


class TestLuLogdet:
    def test_identity(self):
        _, ld = lu_logdet(np.eye(4))
        assert ld.log_abs == pytest.approx(0.0, abs=1e-14)
        assert ld.phase == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        _, ld = lu_logdet(np.diag([2.0, 3.0]))
        assert ld.log_abs == pytest.approx(np.log(6.0), rel=1e-14)
        assert ld.phase == pytest.approx(1.0, abs=1e-14)

    def test_against_cofactor_expansion(self):
        rng = np.random.default_rng(3)
        for _ in range(4):
            a = random_complex(rng, 8)
            _, ld = lu_logdet(a)
            ref = brute_force_det(a)
            assert abs(ld.value - ref) < 1e-10 * abs(ref)

    def test_phase_is_unit_modulus(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            _, ld = lu_logdet(random_complex(rng, 6))
            assert abs(abs(ld.phase) - 1.0) < 1e-12

    def test_singular_matrix_reports_pivot(self):
        a = np.zeros((3, 3), dtype=complex)
        a[0, 0] = 1.0
        with pytest.raises(SingularMatrixError):
            lu_logdet(a)


class TestSolve:
    def test_identity_system(self):
        rng = np.random.default_rng(5)
        b = random_complex(rng, 3)
        assert np.allclose(solve_factored(lu_logdet(np.eye(3))[0], b), b, atol=1e-14)

    def test_diagonal_system(self):
        x = solve_factored(lu_logdet(np.diag([2.0, 4.0]))[0], np.eye(2))
        assert np.allclose(x, np.diag([0.5, 0.25]), atol=1e-14)

    def test_residual_for_random_systems(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            a = random_complex(rng, 7) + 3.0 * np.eye(7)
            b = random_complex(rng, 7)
            x = solve_factored(lu_logdet(a)[0], b)
            res = np.linalg.norm(a @ x - b)
            assert res <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(x)

    def test_factored_roundtrip_gives_identity(self):
        rng = np.random.default_rng(7)
        a = random_complex(rng, 6) + 2.0 * np.eye(6)
        factors, _ = lu_logdet(a)
        assert np.max(np.abs(solve_factored(factors, a) - np.eye(6))) < 1e-10


class TestLyapunov:
    def test_equilibrium_is_uniform(self):
        # W = ih + diag(g)/2 with F = g*f at both ends: C = f * I solves it.
        h = np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex)
        g, f = 0.4, 0.3
        w = 1j * h + 0.5 * np.diag([g, g])
        fmat = np.diag([g * f, g * f]).astype(complex)
        c = lyapunov_solve(w, fmat)
        assert np.max(np.abs(c - f * np.eye(2))) < 1e-12

    def test_residual_for_random_valid_inputs(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            n = 6
            m = random_complex(rng, n)
            w = 1j * 0.5 * (m + m.conj().T) + np.diag(rng.uniform(0.1, 1.0, n))
            b = random_complex(rng, n)
            f = b @ b.conj().T
            c = lyapunov_solve(w, f)
            res = np.linalg.norm(w @ c + c @ w.conj().T - f)
            assert res <= 1e-10 * np.linalg.norm(f)

    def test_output_is_hermitian(self):
        rng = np.random.default_rng(11)
        n = 5
        w = random_complex(rng, n) + 2.0 * np.eye(n)
        b = random_complex(rng, n)
        f = b @ b.conj().T
        c = lyapunov_solve(w, f)
        assert np.linalg.norm(c - c.conj().T) <= 1e-12 * np.linalg.norm(c)

    def test_vanishing_pair_sum_is_rejected(self):
        w = np.diag([1j, 1.0])  # 1j + conj(1j) = 0
        with pytest.raises(LinalgError, match="pair"):
            lyapunov_solve(w, np.eye(2, dtype=complex))

    def test_near_defective_uses_fallback(self):
        # Jordan-like block: the eigenvector matrix is nearly singular
        # (condition ~ 1e6), which the Schur form never forms; the residual
        # must still be tight.
        eps = 1e-13
        w = np.array([[1.0, 1.0], [eps, 1.0]], dtype=complex)
        assert np.linalg.cond(np.linalg.eig(w)[1]) > 1e6
        f = np.array([[2.0, 0.3], [0.3, 1.0]], dtype=complex)
        c = lyapunov_solve(w, f)
        res = np.linalg.norm(w @ c + c @ w.conj().T - f)
        assert res <= 1e-10 * np.linalg.norm(f)

    def test_exceptional_point_of_w_matches_oracle(self):
        # Two sites with |gamma1 - gammaL| = 4J: W is a 2 x 2 Jordan block
        # (eigenvector condition ~ 1e8).
        spec = ChainSpec(
            h=build_tight_binding(2, 0.0, 1.0), gamma1=4.1, gammaL=0.1, f1=0.8, fL=0.3
        )
        w = derive_single_particle(spec).W
        assert np.linalg.cond(np.linalg.eig(w)[1]) > 1e7
        oracle = FockOracle(spec)
        want = oracle.covariance(oracle.steady_state())
        assert np.max(np.abs(steady_state(spec).C - want)) < 1e-12

    def test_dark_mode_is_rejected(self):
        # (0, 1, -1, 0) is an eigenvector of h with energy 0.3 and no weight
        # on either bath site, so it never decays: W has the eigenvalue 0.3i.
        h = np.array(
            [[0, 1, 1, 0], [1, 0.3, 0, 1], [1, 0, 0.3, 1], [0, 1, 1, 0]], dtype=complex
        )
        spec = ChainSpec(h=h, gamma1=0.5, gammaL=0.5, f1=1.0, fL=0.0)
        with pytest.raises(LinalgError, match="pair"):
            steady_state(spec)

    def test_pair_below_trsyl_floor_is_rejected(self):
        # Pair sum 1e-13 passes the diagonal check but is below trsyl's
        # eps * max|T| = 2e-12, where it would perturb T.
        w = np.array([[5e-14 + 1j, 1e4], [0.0, 1.0]], dtype=complex)
        with pytest.raises(LinalgError, match="pair sum"):
            lyapunov_solve(w, np.eye(2, dtype=complex))

    def test_equilibrium_chain_is_exact_at_large_size(self):
        # Equal bath occupations f: C = f * 1 for any h.  The slowest modes
        # decay at ~2e-7, which sets the forward error: 2.9e-11 here.
        spec = ChainSpec(
            h=build_tight_binding(200, 1.0, 1.0), gamma1=0.1, gammaL=0.1, f1=0.3, fL=0.3
        )
        c = steady_state(spec).C
        assert np.max(np.abs(c - 0.3 * np.eye(200))) < 1e-10
