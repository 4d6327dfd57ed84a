import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st_

import fermiwait.tracedet
from fermiwait.linalg import LinalgError
from fermiwait.tracedet import (
    QuadraticFormChain,
    TWO_INSERT_KINDS,
    bss_trace,
    conjugation_residual,
    trace_one_insert,
    trace_one_insert_alpha_route,
    trace_two_insert_chain,
)
from fermiwait.fock import (
    VerificationEntry,
    _fock_two_insert,
    build_fermions,
    quadratic_form_operator,
    verify_tracedet,
)


def random_coeff(rng, L):
    return (rng.uniform(-1, 1, (L, L)) + 1j * rng.uniform(-1, 1, (L, L))) / np.sqrt(2)


class TestBareTrace:
    def test_zero_forms_count_all_states(self):
        for L in (2, 3, 4):
            chain = QuadraticFormChain([np.zeros((L, L))] * 3)
            assert bss_trace(chain).value == pytest.approx(2.0**L, rel=1e-12)

    def test_single_diagonal_form_factorizes_over_modes(self):
        a = np.array([0.3, -1.2, 0.8])
        chain = QuadraticFormChain([np.diag(a)])
        expected = np.prod(1.0 + np.exp(a))
        assert bss_trace(chain).value == pytest.approx(expected, rel=1e-12)

    def test_order_matters_for_noncommuting_forms(self):
        rng = np.random.default_rng(0)
        x, y = random_coeff(rng, 2), random_coeff(rng, 2)
        fwd = bss_trace(QuadraticFormChain([x, y, x @ y - y @ x])).value
        rev = bss_trace(QuadraticFormChain([x @ y - y @ x, y, x])).value
        assert abs(fwd - rev) > 1e-6

    def test_one_chain_gives_a_value_record_and_a_stack_an_array(self):
        rng = np.random.default_rng(5)
        coeffs = [np.stack([random_coeff(rng, 3) for _ in range(4)]) for _ in range(2)]
        one = bss_trace(QuadraticFormChain([x[2] for x in coeffs]))
        twin = bss_trace(QuadraticFormChain([x[2] for x in coeffs]))
        assert type(one.log_abs) is float and type(one.phase) is complex
        assert one == twin and {one: 1}[twin] == 1
        stacked = bss_trace(QuadraticFormChain(coeffs))
        assert stacked.shape == (4,) and stacked.dtype == complex
        assert stacked[2] == pytest.approx(one.value, rel=1e-13)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            QuadraticFormChain([])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal dimension"):
            QuadraticFormChain([np.zeros((2, 2)), np.zeros((3, 3))])

    def test_against_extended_precision_determinant(self):
        rng = np.random.default_rng(3)
        with mpmath.workdps(30):
            for _ in range(4):
                chain = QuadraticFormChain([random_coeff(rng, 8) for _ in range(3)])
                one_plus = np.eye(8) + chain.product()
                want = complex(mpmath.det(mpmath.matrix(one_plus.tolist())))
                assert abs(bss_trace(chain).value - want) < 1e-10 * abs(want)
                assert abs(abs(bss_trace(chain).phase) - 1.0) < 1e-12

    def test_exactly_singular_one_plus_product_is_a_named_error(self, monkeypatch):
        # e^X = diag(-1, 2) exactly, so 1 + P has an exact zero pivot.
        exps = np.array([np.diag([-1.0, 2.0]), np.diag([-1.0, 0.5])], dtype=complex)
        monkeypatch.setattr(fermiwait.tracedet, "expm", lambda a: exps)
        chain = QuadraticFormChain([np.zeros((2, 2))])
        with pytest.raises(LinalgError, match=r"1 \+ P is exactly singular"):
            bss_trace(chain)
        with pytest.raises(LinalgError, match=r"1 \+ P is exactly singular"):
            chain.kernel()
        with pytest.raises(LinalgError, match=r"1 \+ e\^\{alpha n_i\} P is exactly singular"):
            trace_one_insert_alpha_route(1, chain, 1.0)


class TestOneInsertion:
    def test_zero_chain_diagonal_counts_occupied_states(self):
        for L in (2, 3):
            chain = QuadraticFormChain([np.zeros((L, L))] * 3)
            assert trace_one_insert(0, 0, chain) == pytest.approx(
                2.0 ** (L - 1), rel=1e-12
            )

    def test_zero_chain_off_diagonal_vanishes(self):
        chain = QuadraticFormChain([np.zeros((3, 3))] * 3)
        assert abs(trace_one_insert(0, 2, chain)) < 1e-12

    def test_against_fock_trace_with_four_factors(self):
        rng = np.random.default_rng(1)
        L = 3
        c_ops = build_fermions(L)
        coeffs = [random_coeff(rng, L) for _ in range(4)]
        many = [sla.expm(quadratic_form_operator(x, c_ops)) for x in coeffs]
        chain = QuadraticFormChain(coeffs)
        for i, ip in [(0, 0), (1, 2), (2, 0)]:
            lhs = np.trace(c_ops[i].conj().T @ c_ops[ip] @ np.linalg.multi_dot(many))
            rhs = trace_one_insert(i, ip, chain)
            assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    def test_index_range_checked(self):
        chain = QuadraticFormChain([np.zeros((2, 2))])
        with pytest.raises(IndexError):
            trace_one_insert(0, 2, chain)


class TestTwoInsertion:
    def test_zero_chain_adjacent_counts_doubly_occupied(self):
        for L in (2, 3):
            z = np.zeros((L, L))
            val = trace_two_insert_chain(
                "adjacent", (0, 0, L - 1, L - 1), QuadraticFormChain([z, z, z])
            )
            assert val == pytest.approx(2.0 ** (L - 2), rel=1e-12)

    @pytest.mark.parametrize("kind", TWO_INSERT_KINDS)
    def test_against_fock_trace(self, kind):
        rng = np.random.default_rng(2)
        for L in (2, 3):
            c_ops = build_fermions(L)
            for _ in range(6):
                coeffs = [random_coeff(rng, L) for _ in range(3)]
                many = [sla.expm(quadratic_form_operator(x, c_ops)) for x in coeffs]
                idx = tuple(rng.integers(0, L, size=4))
                lhs = _fock_two_insert(kind, idx, many, c_ops)
                rhs = trace_two_insert_chain(kind, idx, QuadraticFormChain(coeffs))
                assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1e-10)

    def test_split_reduces_to_adjacent_when_form_is_absorbed(self):
        # With the outer forms trivial, commuting the annihilator through
        # the middle form maps the split pattern onto the adjacent one.
        rng = np.random.default_rng(3)
        L = 3
        y = random_coeff(rng, L)
        z = np.zeros((L, L))
        ey_inv = sla.expm(-y)
        for idx in [(0, 0, 1, 1), (0, 1, 2, 0), (2, 2, 0, 1)]:
            i, ip, j, jp = idx
            split = trace_two_insert_chain("split_mp", idx, QuadraticFormChain([z, y, z]))
            absorbed = sum(
                ey_inv[b, j]
                * trace_two_insert_chain("adjacent", (i, ip, b, jp), QuadraticFormChain([y, z, z]))
                for b in range(L)
            )
            assert abs(split - absorbed) < 1e-10 * max(abs(split), 1.0)

    def test_needs_three_factors(self):
        chain = QuadraticFormChain([np.zeros((2, 2))] * 2)
        with pytest.raises(ValueError, match="three factors"):
            trace_two_insert_chain("adjacent", (0, 0, 1, 1), chain)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            trace_two_insert_chain(
                "diagonal", (0, 0, 0, 0), QuadraticFormChain([np.zeros((2, 2))] * 3)
            )


class TestSupportingIdentities:
    def test_conjugation_identity(self):
        rng = np.random.default_rng(5)
        for L in (2, 3, 4):
            chain = QuadraticFormChain([random_coeff(rng, L) for _ in range(3)])
            assert conjugation_residual(chain) < 1e-10

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
    def test_alpha_route_is_alpha_independent(self, alpha):
        rng = np.random.default_rng(6)
        chain = QuadraticFormChain([random_coeff(rng, 3) for _ in range(3)])
        for i in range(3):
            base = trace_one_insert(i, i, chain)
            via = trace_one_insert_alpha_route(i, chain, alpha)
            assert abs(base - via) <= 1e-9 * max(abs(base), 1e-10)

    def test_full_verification_report_passes(self):
        report = verify_tracedet(seed=123, draws=5, sizes=(2,))
        assert report.passed
        names = {e.name for e in report.entries}
        assert "two_insertion_split_mm" in names
        assert "sylvester_lemma" in names
        text = report.to_text()
        assert "pass" in text and "FAIL" not in text

    def test_nan_trace_formula_fails_the_report(self, monkeypatch):
        monkeypatch.setattr(fermiwait.tracedet, "trace_one_insert", lambda i, j, chain: np.nan)
        report = verify_tracedet(seed=123, draws=5, sizes=(2,))
        assert not report.passed
        failed = {e.name for e in report.entries if not e.passed}
        assert "one_insertion" in failed


    @pytest.mark.parametrize("kind", TWO_INSERT_KINDS)
    def test_one_bad_member_of_a_stack_fails_its_entry(self, monkeypatch, kind):
        real = fermiwait.tracedet.trace_two_insert_chain

        def one_member_off(k, indices, chain):
            out = real(k, indices, chain)
            if k == kind:
                out = out.copy()
                out[3] *= 1.0 + 1e-6
            return out

        monkeypatch.setattr(fermiwait.tracedet, "trace_two_insert_chain", one_member_off)
        report = verify_tracedet(seed=123, draws=5, sizes=(2,))
        assert [e.name for e in report.entries if not e.passed] == [f"two_insertion_{kind}"]

    @pytest.mark.parametrize("kwargs", [{"draws": 0}, {"sizes": ()}])
    def test_a_report_that_checked_nothing_fails(self, kwargs):
        report = verify_tracedet(seed=123, **kwargs)
        assert report.entries and all(e.draws == 0 for e in report.entries)
        assert not any(e.passed for e in report.entries)
        assert not report.passed
        assert "FAIL" in report.to_text()


class TestStacks:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        L=st_.integers(2, 4), n=st_.integers(1, 5), seed=st_.integers(0, 2**32 - 1)
    )
    def test_stacked_formulas_equal_each_member_alone(self, L, n, seed):
        rng = np.random.default_rng(seed)
        coeffs = [np.stack([random_coeff(rng, L) for _ in range(n)]) for _ in range(3)]
        idx = rng.integers(0, L, size=(4, n))
        stack = QuadraticFormChain(coeffs)
        formulas = [
            lambda c, ix: bss_trace(c) if c.stacked else bss_trace(c).value,
            lambda c, ix: trace_one_insert(ix[0], ix[1], c),
            *(lambda c, ix, k=kind: trace_two_insert_chain(k, ix, c) for kind in TWO_INSERT_KINDS),
            lambda c, ix: trace_one_insert_alpha_route(ix[2], c, 1.0),
            lambda c, ix: conjugation_residual(c),
            lambda c, ix: c.kernel(),
            lambda c, ix: c.prefix(2).product(),
        ]
        alone = [QuadraticFormChain([x[m] for x in coeffs]) for m in range(n)]
        for formula in formulas:
            got = formula(stack, tuple(idx))
            want = np.array([formula(alone[m], tuple(int(i) for i in idx[:, m])) for m in range(n)])
            assert got.shape == want.shape and want.shape[0] == n
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_a_scalar_index_applies_to_every_member(self):
        rng = np.random.default_rng(8)
        stack = QuadraticFormChain([np.stack([random_coeff(rng, 3) for _ in range(4)])] * 3)
        assert np.array_equal(trace_one_insert(2, 0, stack), trace_one_insert([2] * 4, [0] * 4, stack))

    def test_index_arrays_are_range_checked(self):
        stack = QuadraticFormChain([np.zeros((2, 3, 3))] * 3)
        with pytest.raises(IndexError, match="mode index 3"):
            trace_two_insert_chain("adjacent", ([0, 0], [1, 1], [2, 3], [0, 0]), stack)

    def test_factors_of_unequal_stack_length_rejected(self):
        with pytest.raises(ValueError, match="stack length"):
            QuadraticFormChain([np.zeros((2, 3, 3)), np.zeros((3, 3, 3))])


class TestChainSharing:
    def test_prefixes_and_cached_kernel_match_fresh_chains_bitwise(self):
        rng = np.random.default_rng(7)
        for L in (2, 3):
            coeffs = [random_coeff(rng, L) for _ in range(4)]
            chain = QuadraticFormChain(coeffs)
            for n in (1, 2, 3, 4):
                assert bss_trace(chain.prefix(n)) == bss_trace(QuadraticFormChain(coeffs[:n]))
            idx = (L - 1, 0, 1, L - 1)
            formulas = [
                bss_trace,
                lambda c: trace_one_insert(0, L - 1, c),
                *(lambda c, k=kind: trace_two_insert_chain(k, idx, c) for kind in TWO_INSERT_KINDS),
                conjugation_residual,
                lambda c: trace_one_insert_alpha_route(1, c, 1.0),
            ]
            shared = chain.prefix(3)
            for _ in range(2):  # the second pass reads the cached D and T
                for formula in formulas:
                    assert formula(shared) == formula(QuadraticFormChain(coeffs[:3]))

    def test_prefix_length_checked(self):
        chain = QuadraticFormChain([np.zeros((2, 2))] * 2)
        with pytest.raises(ValueError, match="prefix length"):
            chain.prefix(3)


class TestVerificationEntry:
    def test_record_keeps_the_largest_deviation_and_any_nan(self):
        entry = VerificationEntry("identity", 1e-9)
        for dev in (1e-12, 3e-10, 2e-11):
            entry.record(dev)
        assert (entry.draws, entry.max_deviation, entry.passed) == (3, 3e-10, True)
        for dev in (np.nan, 1e-11, 5.0):
            entry.record(dev)
        assert entry.draws == 6
        assert np.isnan(entry.max_deviation)
        assert not entry.passed

    def test_record_counts_each_element_of_an_array(self):
        entry = VerificationEntry("identity", 1e-9)
        assert not entry.passed  # no draw yet
        entry.record(np.array([1e-12, 3e-10, 2e-11]))
        entry.record(np.zeros((2, 2)))
        assert (entry.draws, entry.max_deviation, entry.passed) == (7, 3e-10, True)
        entry.record(np.array([1e-11, np.nan, 5.0]))
        entry.record(1e-12)
        assert entry.draws == 11
        assert np.isnan(entry.max_deviation)
        assert not entry.passed
