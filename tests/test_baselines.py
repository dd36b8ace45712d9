import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcs.baselines import (
    RankDeficiencyError,
    _column_norms,
    biht,
    hard_threshold,
    iht_steps,
    nbiht,
    omp,
    omp_steps,
    sign_quantize,
)
from randcs.numerics import DimensionMismatchError, GaussianSource, sample_gaussian_matrix
from randcs.sensing import generate_binary_signal


def _threshold_oracle(x, s):
    """Full-sort reference: s largest magnitudes, ties to the lowest index."""
    order = sorted(range(len(x)), key=lambda i: (-abs(x[i]), i))
    keep = set(order[:s])
    return np.array([x[i] if i in keep else 0.0 for i in range(len(x))])


class TestHardThreshold:
    def test_keeps_largest_magnitudes(self):
        x = np.array([0.5, -3.0, 1.0, 2.0, -0.1])
        assert np.array_equal(hard_threshold(x, 2), [0.0, -3.0, 0.0, 2.0, 0.0])

    def test_ties_break_to_lowest_index(self):
        x = np.array([1.0, -1.0, 1.0, 1.0])
        assert np.array_equal(hard_threshold(x, 2), [1.0, -1.0, 0.0, 0.0])

    def test_budget_of_zero_and_full(self):
        x = np.array([2.0, -1.0])
        assert np.array_equal(hard_threshold(x, 0), [0.0, 0.0])
        assert np.array_equal(hard_threshold(x, 2), x)
        assert np.array_equal(hard_threshold(x, 5), x)

    def test_against_sort_oracle_random(self):
        rng = np.random.Generator(np.random.Philox(key=44))
        for _ in range(1000):
            size = int(rng.integers(1, 30))
            # quantized values force magnitude ties
            x = np.round(rng.standard_normal(size), 1)
            s = int(rng.integers(0, size + 1))
            assert np.array_equal(hard_threshold(x, s), _threshold_oracle(x, s))

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=25),
        st.integers(0, 25),
    )
    @settings(max_examples=200)
    def test_matches_oracle_property(self, values, s):
        x = np.asarray(values)
        assert np.array_equal(hard_threshold(x, s), _threshold_oracle(x, s))


class TestSignQuantize:
    def test_positive_negative(self):
        A = np.eye(2)
        z = np.array([0.5, -0.2])
        assert np.array_equal(sign_quantize(A, z), [1.0, -1.0])

    def test_zero_maps_to_minus_one(self):
        A = np.zeros((3, 2))
        assert np.array_equal(sign_quantize(A, np.ones(2)), [-1.0, -1.0, -1.0])

    def test_positive_scale_invariance(self):
        A = sample_gaussian_matrix(GaussianSource(5), 10, 6, 1.0)
        z = generate_binary_signal(GaussianSource(5), 6, 2)
        doubled = np.asarray(2.0 * z, dtype=float)
        assert np.array_equal(sign_quantize(A, z), sign_quantize(A, doubled))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            sign_quantize(np.eye(2), np.ones(3))

    def test_integer_matrix(self):
        A = np.array([[1, 0], [0, -1], [2, -1]])
        assert np.array_equal(sign_quantize(A, np.array([1.0, 2.0])), [1.0, -1.0, -1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        # the bad matrix entry sits off the signal's support, where the
        # support sum would never read it
        A = np.ones((3, 4))
        z = np.array([1.0, 0.0, 0.0, 0.0])
        bad_A = A.copy()
        bad_A[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            sign_quantize(bad_A, z)
        bad_z = z.copy()
        bad_z[3] = bad
        with pytest.raises(ValueError, match="finite"):
            sign_quantize(A, bad_z)

    def test_finite_matrix_with_overflowing_sum_accepted(self):
        # off the support, entries of +-1e308 overflow the sum the finiteness
        # check takes first; the matrix is finite, so its signs still come out
        A = np.ones((3, 4))
        A[:, 1:] = 1e308
        A[1, 2] = -1e308
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(A.sum())
        assert np.array_equal(sign_quantize(A, np.array([1.0, 0.0, 0.0, 0.0])), [1.0, 1.0, 1.0])


class TestOmp:
    @pytest.mark.parametrize("k, n", [(1438, 700), (1000, 257), (3, 2)])
    def test_column_norms_equal_linalg_norm(self, k, n):
        # block-wise norms are bit-identical, on the column-major sampled
        # layout and on a row-major copy
        A = sample_gaussian_matrix(GaussianSource(n), k, n, 1.0 / k)
        assert A.flags.f_contiguous
        for M in (A, np.ascontiguousarray(A)):
            assert np.array_equal(_column_norms(M), np.linalg.norm(M, axis=0))

    def test_identity_recovers_exactly(self):
        n = 8
        z = np.zeros(n)
        z[[1, 4, 6]] = [2.0, -1.0, 0.5]
        got = omp(np.eye(n), z.copy(), 3)
        assert got.support == {1, 4, 6}
        assert np.allclose(got.values, z, rtol=0, atol=1e-12)

    def test_zero_measurement_gives_empty_result(self):
        A = sample_gaussian_matrix(GaussianSource(6), 10, 20, 0.1)
        got = omp(A, np.zeros(10), 5)
        assert got.support == frozenset()
        assert np.array_equal(got.values, np.zeros(20))

    def test_residual_tolerance_stops_early(self):
        A = np.eye(6)
        b = np.zeros(6)
        b[2] = 1.0
        got = omp(A, b, 4)
        assert got.support == {2}

    def test_budget_larger_than_rank_rejected(self):
        with pytest.raises(ValueError):
            omp(np.eye(4), np.ones(4), 5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            omp(np.eye(4), np.ones(3), 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_measurement_rejected(self, bad):
        # a NaN used to come back as the support {0, 1, 2, 3} without an error
        A = sample_gaussian_matrix(GaussianSource(6), 10, 20, 0.1)
        b = A[:, :2].sum(axis=1)
        b[4] = bad
        with pytest.raises(ValueError, match="finite"):
            omp(A, b, 4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_matrix_rejected(self, bad):
        A = sample_gaussian_matrix(GaussianSource(6), 10, 20, 0.1)
        b = A[:, :2].sum(axis=1)
        A[3, 7] = bad
        with pytest.raises(ValueError, match="finite"):
            omp(A, b, 4)

    def test_duplicate_columns_raise_rank_deficiency(self):
        col = np.arange(1.0, 6.0)
        A = np.column_stack([col, 2 * col, np.ones(5)])
        with pytest.raises(RankDeficiencyError):
            omp(A, col + np.ones(5), 3)

    def test_state_invariants_per_iteration(self):
        # residual stays orthogonal to selected columns, matches the
        # explicit least-squares residual, and shrinks monotonically; the
        # coefficients are the least-squares fit
        rng = np.random.Generator(np.random.Philox(key=61))
        A = rng.standard_normal((40, 60))
        b = rng.standard_normal(40)
        norm_b = np.linalg.norm(b)
        prev = norm_b
        for state in omp_steps(A, b, 12):
            sel = list(state.selected)
            fitted = A[:, sel] @ state.coefficients
            assert np.allclose(state.residual, b - fitted, rtol=1e-8, atol=1e-8)
            lstsq = np.linalg.lstsq(A[:, sel], b, rcond=None)[0]
            assert np.allclose(state.coefficients, lstsq, rtol=1e-10, atol=1e-12)
            for j in sel:
                corr = abs(A[:, j] @ state.residual)
                assert corr <= 1e-8 * np.linalg.norm(A[:, j]) * norm_b
            nr = np.linalg.norm(state.residual)
            assert nr <= prev + 1e-12
            prev = nr
        assert len(sel) == 12
        assert len(set(sel)) == 12

    def test_gaussian_exact_support_recovery_rate(self):
        # noiseless Gaussian sensing at benchmark scale recovers the exact
        # support in at least 95 of 100 seeded instances
        n, s = 2000, 20
        k = math.ceil(2 * s * math.log(n))
        wins = 0
        for seed in range(100):
            src = GaussianSource(7700 + seed)
            A = sample_gaussian_matrix(src.stream(1), k, n, 1.0 / k)
            z = generate_binary_signal(src.stream(0), n, s)
            b = A @ z
            got = omp(A, b, s)
            wins += got.support == frozenset(np.flatnonzero(z))
        assert wins >= 95


class TestBihtFamily:
    def _instance(self, seed=80, k=60, n=40, s=4):
        src = GaussianSource(seed)
        A = sample_gaussian_matrix(src.stream(1), k, n, 1.0 / k)
        z = generate_binary_signal(src.stream(0), n, s)
        return A, z, sign_quantize(A, z)

    def test_budget_respected_every_iteration(self):
        A, z, signs = self._instance()
        for state in iht_steps(A, signs, 4, max_iters=30):
            assert np.count_nonzero(state) <= 4

    def test_consistent_signs_are_a_fixed_point(self):
        # if the current iterate already explains every sign, the
        # correction term vanishes and the iterate never moves
        A, z, signs = self._instance()
        k = A.shape[0]
        x = hard_threshold(z.astype(float), 4)
        consistent = np.where(A @ x > 0, 1.0, -1.0)
        stepped = hard_threshold(x + (1.0 / k) * (A.T @ (consistent - np.where(A @ x > 0, 1.0, -1.0))), 4)
        assert np.array_equal(stepped, x)

    def test_all_negative_signs_keep_zero_iterate(self):
        # sign(A 0) is all minus one, so all-minus-one measurements are
        # consistent with the zero start and nothing ever updates
        A, _, _ = self._instance()
        got = biht(A, -np.ones(A.shape[0]), 4, max_iters=20)
        assert got.support == frozenset()
        assert np.array_equal(got.values, np.zeros(A.shape[1]))

    def test_full_budget_disables_thresholding(self):
        A, z, signs = self._instance()
        k, n = A.shape
        first = next(iter(iht_steps(A, signs, n, max_iters=1)))
        raw = (1.0 / k) * (A.T @ (signs + 1.0))
        assert np.allclose(first, raw, rtol=1e-12, atol=0)

    def test_zero_iterations_rejected(self):
        A, _, signs = self._instance()
        with pytest.raises(ValueError):
            biht(A, signs, 4, max_iters=0)

    @pytest.mark.parametrize("solver", [biht, nbiht])
    def test_non_finite_step_rejected(self, solver):
        # a NaN step would otherwise empty the support without an error
        A, _, signs = self._instance()
        with pytest.raises(ValueError, match="finite"):
            solver(A, signs, 4, step=math.nan)

    @pytest.mark.parametrize("solver", [biht, nbiht])
    @pytest.mark.parametrize("step", [0.0, -0.0, -1.0])
    def test_non_positive_step_rejected(self, solver, step):
        # a zero step keeps the iterate at zero and used to empty the support
        A, _, signs = self._instance()
        with pytest.raises(ValueError, match="positive"):
            solver(A, signs, 4, step=step)

    @pytest.mark.parametrize("solver", [biht, nbiht])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_matrix_rejected(self, solver, bad):
        # off the support a NaN column would change the dense signs but
        # not the support product, so a non-finite matrix is refused
        A, z, signs = self._instance()
        A = A.copy()
        A[5, min(set(range(A.shape[1])) - frozenset(np.flatnonzero(z)))] = bad
        with pytest.raises(ValueError, match="finite"):
            solver(A, signs, 4)

    @pytest.mark.parametrize("solver", [biht, nbiht])
    def test_finite_matrix_with_overflowing_sum_accepted(self, solver):
        # one off-support column of 1e308 overflows the sum the finiteness
        # check takes first; the matrix is finite, so the solver runs
        A, z, signs = self._instance()
        A = A.copy()
        A[:, min(set(range(A.shape[1])) - frozenset(np.flatnonzero(z)))] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(A.sum())
        with np.errstate(all="ignore"):
            result = solver(A, signs, 4, max_iters=3)
        assert len(result.support) <= 4

    @pytest.mark.parametrize("solver", [biht, nbiht])
    def test_non_finite_signs_rejected(self, solver):
        A, _, signs = self._instance()
        signs = signs.copy()
        signs[0] = math.nan
        with pytest.raises(ValueError, match="finite"):
            solver(A, signs, 4)

    def test_nbiht_iterates_have_unit_norm(self):
        A, z, signs = self._instance()
        for state in iht_steps(A, signs, 4, max_iters=30, normalize=True):
            norm = np.linalg.norm(state)
            assert norm == 0.0 or abs(norm - 1.0) < 1e-12

    def test_nbiht_zero_signs_degenerate(self):
        A, _, _ = self._instance()
        got = nbiht(A, -np.ones(A.shape[0]), 4, max_iters=20)
        assert got.support == frozenset()

    def test_one_bit_methods_find_signal_support_often(self):
        # both variants should land near the true support at an easy size,
        # with comparable accuracy (they differ only by rescaling)
        from randcs.harness import jaccard

        rb, rn = [], []
        for seed in range(10):
            A, z, signs = self._instance(seed=300 + seed, k=200, n=60, s=3)
            rb.append(jaccard(biht(A, signs, 3).support, frozenset(np.flatnonzero(z))))
            rn.append(jaccard(nbiht(A, signs, 3).support, frozenset(np.flatnonzero(z))))
        assert np.mean(rb) > 0.6
        assert abs(np.mean(rb) - np.mean(rn)) < 0.25


def _dense_iht_steps(A, signs, s_budget, max_iters, step, normalize):
    """The update with the dense sign product every iteration: the reference."""
    k = A.shape[0]
    x = np.zeros(A.shape[1])
    for it in range(1, max_iters + 1):
        mismatch = signs - np.where(A @ x > 0, 1.0, -1.0)
        x = hard_threshold(x + (step / k) * (A.T @ mismatch), s_budget)
        if normalize:
            norm = np.linalg.norm(x)
            if norm > 0:
                x = x / norm
        yield it, x


def _counting_view(A):
    """A view of A that logs the left operand of each matrix product.

    A product with A itself is logged as "A" or "A.T", one with a copy of
    some of its columns by that copy's shape.
    """
    log = []

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                left = inputs[0]
                if not np.shares_memory(left, A):
                    log.append(left.shape)
                else:
                    log.append("A" if left.shape == A.shape else "A.T")
            inputs = tuple(np.asarray(v) for v in inputs)
            if "out" in kwargs:
                kwargs["out"] = tuple(np.asarray(v) for v in kwargs["out"])
            return getattr(ufunc, method)(*inputs, **kwargs)

    return A.view(Counting), log


class TestIhtSupportProduct:
    """The support-column signs and the fixed-point exit leave every iterate as it was."""

    _instance = TestBihtFamily._instance

    def _assert_matches_dense(self, A, signs, s_budget, max_iters=100, step=1.0, normalize=False):
        got = list(iht_steps(A, signs, s_budget, max_iters, step, normalize))
        want = list(_dense_iht_steps(np.asarray(A), signs, s_budget, max_iters, step, normalize))
        assert len(got) == len(want)
        for st, (_, x) in zip(got, want):
            assert np.asarray(st).tobytes() == x.tobytes()

    @pytest.mark.parametrize("normalize", [False, True])
    def test_iterates_equal_dense_loop(self, normalize):
        n, s = 1000, 10
        k = math.ceil(2 * s * math.log(n))
        for seed in range(500, 510):
            src = GaussianSource(seed)
            A = sample_gaussian_matrix(src.stream(1), k, n, 1.0 / k)
            signs = sign_quantize(A, generate_binary_signal(src.stream(0), n, s))
            self._assert_matches_dense(A, signs, s, normalize=normalize)

    def test_uncertified_signs_fall_back_to_dense(self):
        # columns 0 and 1 agree on the top rows and are opposite on the
        # bottom ones, and the signs make the first step give both the same
        # value, so A x is exactly zero on the bottom rows: no row-wise
        # bound can certify a zero, and the dense product decides
        k, n = 8, 16
        A = 0.01 * sample_gaussian_matrix(GaussianSource(90), k, n, 1.0)
        A[:, 0] = [1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0]
        A[:, 1] = [1.0, 2.0, 3.0, 4.0, -1.0, -2.0, -3.0, -4.0]
        signs = np.array([1.0] * 4 + [-1.0] * 4)
        self._assert_matches_dense(A, signs, 2, max_iters=10)
        view, log = _counting_view(A)
        states = list(iht_steps(view, signs, 2, max_iters=10))
        assert np.flatnonzero(states[0]).tolist() == [0, 1]
        # step 1 starts from zero (no sign product); step 2 tries the two
        # support columns, falls back, and reaches the fixed point
        assert log == ["A.T", (k, 2), "A", "A.T"]

    @pytest.mark.parametrize("normalize", [False, True])
    def test_fixed_point_stops_the_products(self, normalize):
        src = GaussianSource(88)
        k, n, s = 200, 60, 3
        A = sample_gaussian_matrix(src.stream(1), k, n, 1.0 / k)
        signs = sign_quantize(A, generate_binary_signal(src.stream(0), n, s))
        self._assert_matches_dense(A, signs, s, max_iters=60, normalize=normalize)
        view, log = _counting_view(A)
        states = list(iht_steps(view, signs, s, max_iters=60, normalize=normalize))
        steps = log.count("A.T")
        assert steps < 40
        assert "A" not in log
        assert len(states) == 60
        assert np.array_equal(states[steps - 1], states[steps - 2])
        assert all(st is states[steps - 1] for st in states[steps:])

    def test_all_negative_signs_cost_one_product(self):
        A, _, _ = self._instance()
        view, log = _counting_view(A)
        states = list(iht_steps(view, -np.ones(A.shape[0]), 4, max_iters=20))
        assert len(states) == 20
        assert log == ["A.T"]

    def test_full_budget_keeps_dense_product(self):
        A, _, signs = self._instance()
        n = A.shape[1]
        self._assert_matches_dense(A, signs, n, max_iters=20)
        view, log = _counting_view(A)
        list(iht_steps(view, signs, n, max_iters=20))
        assert set(log) == {"A", "A.T"}
