import ast
import inspect
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import lapack

from fermiwait import linalg
from fermiwait.fock import FockOracle
from fermiwait.linalg import (
    PROPAGATOR_COND_MAX,
    LinalgError,
    LogDet,
    Propagator,
    NotPositiveDefiniteError,
    checked_slogdet,
    cholesky_half_solve,
    expm,
    lyapunov_solve,
    secular_eig,
    secular_lyapunov_solve,
)
from fermiwait.model import ChainSpec, build_tight_binding, derive_single_particle, steady_state

from conftest import random_hermitian


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

    @staticmethod
    def generators(rng, norms, n):
        """i H - D with H Hermitian, 0 <= D <= 1 diagonal: one matrix per 1-norm."""
        h = np.array([random_complex(rng, n) for _ in norms])
        h = 1j * (h + h.conj().transpose(0, 2, 1))
        h *= (np.asarray(norms) / np.abs(h).sum(axis=-2).max(axis=-1))[:, None, None]
        damp = np.minimum(norms, 1.0)[:, None] * rng.uniform(0.0, 1.0, (len(norms), n))
        return h - damp[:, :, None] * np.eye(n)

    def test_matches_scipy_from_small_to_large_norms(self):
        # Both are scaling and squaring, and each squaring doubles the
        # rounding error of the phases: both land about 1e-16 * ||a||_1 from
        # a 40-digit reference, so above ||a||_1 = 400 the bound grows with
        # the norm (worst of 40 seeds at ||a||_1 = 1e3: 1.6e-13).
        rng = np.random.default_rng(21)
        norms = np.logspace(-3, 3, 13)
        for n in (1, 2, 3, 4):
            a = self.generators(rng, norms, n)
            stacked = expm(a)
            for i, norm in enumerate(norms):
                want = sla.expm(a[i])
                bound = max(1e-13, 2.5e-16 * norm) * np.max(np.abs(want))
                assert np.max(np.abs(stacked[i] - want)) <= bound

    def test_stack_equals_calls_per_matrix(self):
        # Each matrix keeps its own scaling, so a stack whose norms span six
        # decades gives every matrix bitwise what it gets alone.
        rng = np.random.default_rng(23)
        a = self.generators(rng, np.logspace(-3, 3, 13), 3)
        stacked = expm(a)
        assert all(np.array_equal(stacked[i], expm(a[i])) for i in range(a.shape[0]))

    def test_stack_shape_is_kept(self):
        rng = np.random.default_rng(22)
        a = random_complex(rng, 3).reshape(1, 3, 3) * np.ones((2, 4, 1, 1))
        assert expm(a).shape == (2, 4, 3, 3)

    def test_overflow_is_a_linalg_error(self):
        with pytest.raises(LinalgError, match="overflow"):
            expm(800.0 * np.eye(2))
        with pytest.raises(LinalgError, match="overflow"):
            expm(np.stack([np.zeros((2, 2)), 800.0 * np.eye(2)]))


def hpd_stack(rng, n, size):
    """A stack of n well-conditioned Hermitian positive definite matrices."""
    m = np.array([random_complex(rng, size) for _ in range(n)])
    return m @ m.conj().transpose(0, 2, 1) + size * np.eye(size)


@pytest.mark.usefixtures("one_blas_thread")
class TestLapackBindings:
    """Each binding to numpy's OpenBLAS against scipy's f2py wrapper of the same routine."""

    SIZES = (1, 2, 5, 17, 64)
    #: Sizes that cholesky_half_solve serves with ztrtrs and zpocon.
    LOOP_SIZES = (9, 17, 64, 200)

    @staticmethod
    def upper_factor(a: np.ndarray) -> np.ndarray:
        """scipy's zpotrf of a's lower triangle, read as the upper one of a^T = conj(a)."""
        factor, info = lapack.zpotrf(a.T, lower=0)
        assert info == 0
        return factor

    def test_ztrtrs_matches_scipy_bitwise(self):
        rng = np.random.default_rng(30)
        for size in self.LOOP_SIZES:
            a = hpd_stack(rng, 3, size)
            b = np.array([random_complex(rng, size)[:, : min(size, 8)] for _ in range(3)])
            x, log_det, _ = cholesky_half_solve(a, b)
            assert x.flags.c_contiguous
            for i in range(3):
                factor = self.upper_factor(a[i])
                want, info = lapack.ztrtrs(factor, b[i], lower=0, trans=1)
                assert info == 0
                assert np.array_equal(x[i], want)
                assert log_det[i] == 2.0 * np.sum(np.log(np.diagonal(factor).real))
                assert abs(log_det[i] - np.linalg.slogdet(a[i])[1]) <= 1e-12 * max(1.0, abs(log_det[i]))

    def test_zpocon_matches_scipy_bitwise(self):
        rng = np.random.default_rng(31)
        for size in self.LOOP_SIZES:
            a = hpd_stack(rng, 3, size)
            _, _, cond = cholesky_half_solve(a, np.zeros((3, size, 1)))
            for i in range(3):
                anorm = float(np.abs(a[i]).sum(axis=0).max())
                rcond, info = lapack.zpocon(self.upper_factor(a[i]), anorm, uplo="U")
                assert info == 0
                assert cond[i] == 1.0 / rcond

    def test_only_routines_numpy_lacks_are_bound(self):
        # numpy's gufuncs cover LU, solve, inverse, determinant and Cholesky;
        # a routine is bound here only where numpy has none, or, for zpotrf,
        # where the bound ztrtrs and zpocon take its factor in place.
        calls = ast.walk(ast.parse(inspect.getsource(linalg)))
        bound = {
            node.args[0].value
            for node in calls
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_lapack"
        }
        assert bound == {"zgees", "ztrsyl3", "zpotrf", "ztrtrs", "zpocon"}

    def test_schur_and_trsyl_match_scipy_bitwise(self):
        # scipy wraps no ztrsyl3.  While T is one block (n <= 24) ztrsyl3
        # solves with ztrsyl itself, so the solve is bitwise scipy's ztrsyl
        # there; at n = 64 the blocked solve agrees to roundoff.
        rng = np.random.default_rng(33)
        for size in self.SIZES:
            w = random_complex(rng, size) + (size + 1.0) * np.eye(size)
            b = random_complex(rng, size)
            f = b @ b.conj().T
            t, u = sla.schur(w, output="complex")
            assert all(np.array_equal(x, y) for x, y in zip(linalg._schur(w), (t, u)))
            y, scale, info = lapack.ztrsyl(t, t, u.conj().T @ f @ u, tranb="C")
            assert info == 0
            want = u @ (y / scale) @ u.conj().T
            want = 0.5 * (want + want.conj().T)
            got = lyapunov_solve(w, f)
            if size <= 24:
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_stacked_calls_equal_calls_per_time(self):
        rng = np.random.default_rng(34)
        for size in (2, 5, 8, 9, 40):  # both sides of BATCHED_SOLVE_MAX_SITES
            a = hpd_stack(rng, 6, size)
            b = np.array([random_complex(rng, size)[:, :2] for _ in range(6)])
            stacked = cholesky_half_solve(a, b)
            for i in range(6):
                one = cholesky_half_solve(a[i : i + 1], b[i : i + 1])
                for got, want in zip(one, stacked):
                    assert np.array_equal(got[0], want[i])

    def test_stack_shapes_are_checked(self):
        a = hpd_stack(np.random.default_rng(35), 2, 3)
        with pytest.raises(ValueError, match="stack"):
            cholesky_half_solve(a[0], np.zeros((3, 2)))
        with pytest.raises(ValueError, match="stack"):
            cholesky_half_solve(a, np.zeros((2, 4, 2)))

    @staticmethod
    def import_error(patch: str) -> str:
        """The ImportError message of importing fermiwait.linalg after ``patch``, in a fresh interpreter."""
        code = textwrap.dedent(patch) + textwrap.dedent("""
            try:
                import fermiwait.linalg
            except ImportError as exc:
                print(exc)
        """)
        src = os.path.dirname(os.path.dirname(linalg.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True, timeout=60,
        )
        return out.stdout

    def test_missing_symbol_is_a_named_import_error(self):
        message = self.import_error("""
            import ctypes
            lookup = ctypes.CDLL.__getattr__
            def hide(self, name):
                if name == "scipy_ztrtrs_64_":
                    raise AttributeError(name)
                return lookup(self, name)
            ctypes.CDLL.__getattr__ = hide
        """)
        assert "scipy_ztrtrs_64_" in message
        assert linalg.OPENBLAS_PATH in message

    def test_missing_library_is_a_named_import_error(self):
        message = self.import_error("""
            import glob
            glob.glob = lambda pattern: []
        """)
        assert "numpy.libs" in message and "libscipy_openblas64_" in message


@pytest.mark.usefixtures("one_blas_thread")
class TestBatchedSolve:
    """Up to BATCHED_SOLVE_MAX_SITES rows, cholesky_half_solve calls no LAPACK routine per time."""

    SIZES = (1, 2, 5, 8)

    def test_matches_the_lapack_routines(self):
        rng = np.random.default_rng(39)
        for size in self.SIZES:
            a = hpd_stack(rng, 3, size)
            b = np.array([random_complex(rng, size)[:, : min(size, 8)] for _ in range(3)])
            x, log_det, cond = cholesky_half_solve(a, b)
            assert x.flags.c_contiguous
            factor = np.linalg.cholesky(a)
            for i in range(3):
                want, info = lapack.ztrtrs(factor[i].T, b[i], lower=0, trans=1)
                assert info == 0
                assert np.max(np.abs(x[i] - want)) <= 1e-13 * np.max(np.abs(want))
                want_log_det = np.linalg.slogdet(a[i])[1]
                assert abs(log_det[i] - want_log_det) <= 1e-12 * max(1.0, abs(want_log_det))
                anorm = float(np.abs(a[i]).sum(axis=0).max())
                rcond, info = lapack.zpocon(factor[i].T, anorm, uplo="U")
                assert info == 0
                # zpocon estimates the condition number from below.
                assert cond[i] >= (1.0 - 1e-12) / rcond
                exact = np.linalg.norm(a[i], 1) * np.linalg.norm(np.linalg.inv(a[i]), 1)
                assert abs(cond[i] - exact) <= 1e-10 * exact

    @pytest.mark.parametrize("size, calls", [(8, 0), (9, 5)])
    def test_the_path_is_chosen_from_the_size(self, monkeypatch, size, calls):
        counts = {"zpotrf": 0, "ztrtrs": 0, "zpocon": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        for name in counts:
            monkeypatch.setattr(linalg, f"_{name}", counted(name, getattr(linalg, f"_{name}")))
        a = hpd_stack(np.random.default_rng(40), 5, size)
        cholesky_half_solve(a, np.zeros((5, size, 2)))
        assert counts == {"zpotrf": calls, "ztrtrs": calls, "zpocon": calls}


class TestCholeskyRefusal:
    """A stack with one matrix that is not positive definite is refused as a whole."""

    SIZE = 4  # at most BATCHED_SOLVE_MAX_SITES: the batched path

    def test_indefinite_member_is_refused(self):
        n = self.SIZE
        a = hpd_stack(np.random.default_rng(36), 3, n)
        a[1] -= 2.0 * np.linalg.eigvalsh(a[1])[-1] * np.eye(n)  # every eigenvalue negative
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_half_solve(a, np.zeros((3, n, 2)))

    def test_nan_member_is_refused(self):
        # numpy's Cholesky returns NaN factors without raising, so only the
        # finite-log-det check refuses this stack.
        a = hpd_stack(np.random.default_rng(37), 3, self.SIZE)
        a[2, 1, 1] = np.nan
        with pytest.raises(NotPositiveDefiniteError, match="log det"):
            cholesky_half_solve(a, np.zeros((3, self.SIZE, 2)))

    def test_nan_in_the_unread_triangle_reads_as_infinite_condition(self):
        # The factorization reads the lower triangles only; the NaN 1-norm
        # gives a NaN condition, which must not pass for a well-conditioned one.
        a = hpd_stack(np.random.default_rng(38), 2, self.SIZE)
        a[1, 0, 3] = np.nan
        _, _, cond = cholesky_half_solve(a, np.zeros((2, self.SIZE, 1)))
        assert np.isfinite(cond[0]) and cond[1] == np.inf


class TestCholeskyRefusalAboveBatchedSizes(TestCholeskyRefusal):
    """The same refusals where ztrtrs and zpocon serve the stack."""

    SIZE = 12


class TestCheckedSlogdet:
    """One refusal policy for the determinant of one matrix and of a stack."""

    def test_a_stack_is_refused_for_any_singular_or_non_finite_member(self):
        a = np.stack([np.eye(2), np.diag([1.0, 0.0]), 2.0 * np.eye(2)]).astype(complex)
        with pytest.raises(LinalgError, match="A is exactly singular"):
            checked_slogdet(a, "A")
        a[1, 1, 1] = np.inf
        with pytest.raises(LinalgError, match="A has non-finite entries"):
            checked_slogdet(a, "A")
        sign, log_abs = checked_slogdet(a[[0, 2]], "A")
        np.testing.assert_array_equal(sign, [1.0, 1.0])
        np.testing.assert_allclose(log_abs, [0.0, 2.0 * np.log(2.0)], rtol=1e-15)

    def test_logdet_of_one_matrix_is_a_hashable_scalar_record(self):
        a = random_complex(np.random.default_rng(41), 4)
        d, twin = LogDet.of(a, "A"), LogDet.of(a.copy(), "A")
        assert type(d.log_abs) is float and type(d.phase) is complex
        assert d == twin and {d: 1}[twin] == 1
        assert d.value == pytest.approx(np.linalg.det(a), rel=1e-12)
        with pytest.raises(LinalgError, match="A is exactly singular"):
            LogDet.of(np.zeros((2, 2)), "A")


class TestPropagator:
    def test_matrix_matches_expm_at_large_size(self):
        # The benchmark chain: L = 200 tight binding, full left and empty right bath.
        spec = ChainSpec(h=build_tight_binding(200, 1.0, 1.0), gamma1=0.1, gammaL=0.1, f1=1.0, fL=0.0)
        sp = derive_single_particle(spec)
        prop = sp.propagator
        assert prop.path == "given"
        assert sp.propagator is prop  # built once per single-particle set
        # Eigenvalue roundoff enters as e^{(w + dw) t}, so the deviation grows
        # linearly in t: 4.9e-14 at t = 400, 8.9e-14 at the horizon t = 800
        # (LAPACK's eig gave 5.6e-13 and 1.1e-12).
        for t in (0.5, 7.0, 100.0, 400.0, 800.0):
            dev = np.max(np.abs(prop.matrix(t) - sla.expm(-sp.Q * t)))
            assert dev <= 1e-13 * max(1.0, t / 400.0)

    def test_given_pairs_that_fail_the_check_fall_back_to_eig(self):
        rng = np.random.default_rng(14)
        g = random_complex(rng, 5) - 3.0 * np.eye(5)
        w, v = np.linalg.eig(g)
        assert Propagator(g, eig=(w, v)).path == "given"
        for wrong in ((w + 1e-6, v), (w, v + 1e-6 * random_complex(rng, 5))):
            prop = Propagator(g, eig=wrong)
            assert prop.path == "eig"
            assert np.max(np.abs(prop.matrix(1.3) - sla.expm(g * 1.3))) < 1e-12

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
        assert prop.path == "expm"
        assert Propagator(g, eig=(np.linalg.eig(g)[0], v)).path == "expm"  # given, then eig, then expm
        for t in (0.5, 2.0):
            want = np.exp(-t) * np.array([[1.0, t], [0.0, 1.0]])
            assert np.max(np.abs(prop.matrix(t) - want)) < 1e-14

    def test_keeps_its_generator_only_on_the_expm_path(self):
        # The expm path is the one later reader of g; the others keep only
        # (w, V, V^-1), so the caller's generator can be freed.
        rng = np.random.default_rng(15)
        g = random_complex(rng, 5) - 3.0 * np.eye(5)
        jordan = np.array([[-1.0, 1.0], [0.0, -1.0]], dtype=complex)
        for gen, eig, path in ((g, np.linalg.eig(g), "given"), (g, None, "eig"), (jordan, None, "expm")):
            prop = Propagator(gen, eig=eig)
            assert prop.path == path
            kept = [v for v in vars(prop).values() if isinstance(v, np.ndarray) and np.array_equal(v, gen)]
            assert len(kept) == (path == "expm")
            assert np.array_equal(prop.matrix(0.0), np.eye(gen.shape[0]))
        assert np.array_equal(prop.matrix(1.5), expm(jordan * 1.5))

    def test_forced_fallback_agrees(self, monkeypatch):
        rng = np.random.default_rng(13)
        g = random_complex(rng, 5) - 3.0 * np.eye(5)
        auto = Propagator(g)
        monkeypatch.setattr(linalg, "PROPAGATOR_COND_MAX", 1.0)
        forced = Propagator(g)
        assert auto.path == "eig" and forced.path == "expm"
        assert np.max(np.abs(auto.matrix(1.3) - forced.matrix(1.3))) < 1e-12


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

    def test_nan_pair_sum_is_refused(self):
        with pytest.raises(LinalgError, match="pair"):
            linalg._check_pair_sums(np.array([0.5 + 1j, np.nan, 2.0]))

    def test_nan_residual_is_refused(self):
        with pytest.raises(LinalgError, match="residual nan"):
            linalg._check_residual(np.nan, 1.0)

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

    def test_random_large_spec_matches_scipy(self):
        # A random Hermitian h on 200 sites with random baths, against
        # scipy's Bartels-Stewart solve.  Both have a forward error up to
        # about n eps ||F|| / (2 min Re lam(W)), the slowest decay rate.
        rng = np.random.default_rng(36)
        L = 200
        m = random_complex(rng, L)
        g1, gL = rng.uniform(0.1, 1.0, 2)
        f1, fL = rng.uniform(0.0, 1.0, 2)
        spec = ChainSpec(h=0.5 * (m + m.conj().T), gamma1=g1, gammaL=gL, f1=f1, fL=fL)
        sp = derive_single_particle(spec)
        want = sla.solve_continuous_lyapunov(sp.W, sp.F)
        slowest = float(np.linalg.eigvals(sp.W).real.min())
        tol = L * np.finfo(float).eps * np.max(np.abs(sp.F)) / (2.0 * slowest)
        assert np.max(np.abs(steady_state(spec).C - want)) <= tol

    @pytest.mark.parametrize("L", [200, 400, 800])
    def test_equilibrium_chain_is_exact_at_large_size(self, L):
        # Equal bath occupations f: C = f * 1 for any h.  The slowest modes
        # decay at ~2e-7; the Schur solve's forward error grows with their
        # inverse (1.5e-11, 6.0e-11 and 2.1e-10 at these sizes), the secular
        # path's does not (5e-16 at each).
        spec = ChainSpec(
            h=build_tight_binding(L, 1.0, 1.0), gamma1=0.1, gammaL=0.1, f1=0.3, fL=0.3
        )
        c = steady_state(spec).C
        assert np.max(np.abs(c - 0.3 * np.eye(L))) < 1e-13


def _boundary_problem(h, delta):
    """(e, R, delta) of i h + diag(delta at the two end sites) in the eigenbasis of h."""
    e, u = np.linalg.eigh(h)
    return e, u[[0, -1]], np.asarray(delta, dtype=float)


def _dense(e, r, delta):
    return np.diag(1j * e) + (r.conj().T * delta) @ r


class TestSecularEig:
    def test_eigenpairs_match_lapack(self):
        rng = np.random.default_rng(40)
        for L, delta in ((2, (0.3, 1.1)), (7, (-0.4, 0.2)), (40, (0.05, -2.0))):
            e, r, delta = _boundary_problem(random_hermitian(rng, L), delta)
            a = _dense(e, r, delta)
            lam, y = secular_eig(e, r, delta)
            scale = np.max(np.abs(a))
            assert np.allclose(np.linalg.norm(y, axis=0), 1.0, rtol=0.0, atol=1e-14)
            assert np.max(np.abs(a @ y - y * lam)) <= 1e-14 * L * scale
            ref = np.linalg.eigvals(a)
            assert np.max(np.abs(lam[:, None] - ref).min(axis=1)) <= 1e-14 * L * scale
            assert np.max(np.abs(ref[:, None] - lam).min(axis=1)) <= 1e-14 * L * scale

    def test_root_on_its_own_pole_keeps_its_vector(self):
        # Mirror symmetry and delta_1 = -delta_L leave the middle mode of an
        # odd chain, with equal weight on both ends, exactly on its pole.
        e, r, delta = _boundary_problem(build_tight_binding(5, 1.0, 1.0), (-0.05, 0.05))
        lam, y = secular_eig(e, r, delta)
        assert np.min(np.abs(lam - 1j * e)) < 1e-15
        a = _dense(e, r, delta)
        assert np.max(np.abs(a @ y - y * lam)) <= 1e-15

    def test_weakly_coupled_decay_rates_are_relatively_accurate(self):
        # On the L = 200 benchmark chain the band-edge modes decay at ~1e-7,
        # far below the roundoff of lam itself (~4e-16): the Rayleigh quotient
        # sum_b delta_b |(R y)_b|^2 agrees with Re lam to 1e-12 relative.
        e, r, delta = _boundary_problem(build_tight_binding(200, 1.0, 1.0), (0.05, 0.05))
        lam, y = secular_eig(e, r, delta)
        rate = delta @ np.abs(r @ y) ** 2
        assert lam.real.min() < 1e-6
        assert np.max(np.abs(lam.real - rate) / rate) < 1e-12

    def test_repeated_value_is_refused(self):
        h = np.zeros((8, 8))
        h[:4, :4] = h[4:, 4:] = build_tight_binding(4, 1.0, 1.0).real
        with pytest.raises(LinalgError, match="repeated eigenvalue"):
            secular_eig(*_boundary_problem(h, (0.1, 0.1)))

    def test_dark_mode_is_refused(self):
        h = np.array([[0, 1, 1, 0], [1, 0.3, 0, 1], [1, 0, 0.3, 1], [0, 1, 1, 0]], dtype=complex)
        with pytest.raises(LinalgError, match="dark mode"):
            secular_eig(*_boundary_problem(h, (0.5, 0.5)))
        # With delta = 0 every mode is dark.
        with pytest.raises(LinalgError, match="dark mode"):
            secular_eig(*_boundary_problem(build_tight_binding(3, 1.0, 1.0), (0.0, 0.0)))

    def test_no_convergence_is_refused(self, monkeypatch):
        monkeypatch.setattr(linalg, "SECULAR_MAX_SWEEPS", 1)
        with pytest.raises(LinalgError, match="unconverged after 1 sweeps"):
            secular_eig(*_boundary_problem(build_tight_binding(6, 1.0, 1.0), (0.1, 0.3)))

    def test_lyapunov_solve_matches_the_schur_solve(self):
        rng = np.random.default_rng(41)
        e, r, delta = _boundary_problem(random_hermitian(rng, 12), (0.4, 0.9))
        phi = np.array([0.3, 0.1])
        c = secular_lyapunov_solve(e, r, delta, phi)
        want = lyapunov_solve(_dense(e, r, delta), (r.conj().T * phi) @ r)
        assert np.max(np.abs(c - want)) < 1e-13

    def test_singular_eigenvectors_are_a_named_error(self, monkeypatch):
        e, r, delta = _boundary_problem(build_tight_binding(3, 1.0, 1.0), (0.2, 0.3))
        # numpy's own error would escape the model's fallback, which catches
        # LinalgError only.  (Two equal columns leave a tiny pivot instead,
        # and the residual check refuses them.)
        lam, y = secular_eig(e, r, delta)
        y[0] = 0.0
        monkeypatch.setattr(linalg, "secular_eig", lambda *args: (lam, y))
        with pytest.raises(LinalgError, match="singular"):
            secular_lyapunov_solve(e, r, delta, (0.1, 0.0))

    def test_pair_sum_refusal_is_the_schur_solves(self):
        # Decay rates of ~1e-17 are below the pair-sum floor of lyapunov_solve.
        e, r, delta = _boundary_problem(build_tight_binding(4, 1.0, 1.0), (1e-16, 1e-16))
        with pytest.raises(LinalgError, match="pair"):
            secular_lyapunov_solve(e, r, delta, (1e-16, 0.0))
