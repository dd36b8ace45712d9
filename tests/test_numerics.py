import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcs.numerics import (
    DimensionMismatchError,
    GaussianSource,
    _finite,
    _integer,
    derive_seed,
    median,
    sample_gaussian_matrix,
)

# Pinned output of the seeded source (numpy Philox + ziggurat).  If this
# ever changes, reproducibility of every CSV in the wild is broken, so the
# failure should be loud.
GOLDEN_SEED7_STREAM0 = [-1.7496944402112695, 0.5745441092559128, 0.6142833637530732]
GOLDEN_SEED7_STREAM1 = [-0.04739161673254484, -1.192916693828728, 0.40070996668332465]


class TestGaussianSource:
    def test_golden_values(self):
        got = GaussianSource(7).stream(0).generator().standard_normal(3)
        assert got.tolist() == GOLDEN_SEED7_STREAM0
        got = GaussianSource(7).stream(1).generator().standard_normal(3)
        assert got.tolist() == GOLDEN_SEED7_STREAM1

    def test_identical_identity_replays_identically(self):
        a = GaussianSource(123, 5).generator().standard_normal(100)
        b = GaussianSource(123, 5).generator().standard_normal(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = GaussianSource(123).stream(1).generator().standard_normal(100)
        b = GaussianSource(123).stream(2).generator().standard_normal(100)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, -1, 2**64 - 1])
    @pytest.mark.parametrize("stream", [0, 1, 2**64 - 1])
    def test_keyed_philox_matches_state_keying(self, seed, stream):
        # oracle: a Philox whose key is installed through the state interface,
        # from the identity words reduced to 64 bits
        bg = np.random.Philox(seed=0)
        state = bg.state
        state["state"]["key"] = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
        bg.state = state
        expected = np.random.Generator(bg).standard_normal(1000)
        got = GaussianSource(seed, stream).generator().standard_normal(1000)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_live_generators_on_one_thread_keep_their_streams(self):
        # drawn alternately, each generator continues its own stream
        first = GaussianSource(31, 1).generator()
        second = GaussianSource(31, 2).generator()
        draws = {1: [], 2: []}
        for _ in range(3):
            draws[1].append(first.standard_normal(5))
            draws[2].append(second.standard_normal(5))
        for stream, parts in draws.items():
            key = np.array([31, stream], dtype=np.uint64)
            expected = np.random.Generator(np.random.Philox(key=key)).standard_normal(15)
            assert np.array_equal(np.concatenate(parts), expected)

    def test_streams_on_threads_equal_serial_streams(self):
        def draw(stream):
            # each generator is dropped before the next is opened, as the program does
            sources = [GaussianSource(41, stream + 10 * i) for i in range(50)]
            return [source.generator().standard_normal(200) for source in sources]

        serial = [draw(t) for t in range(4)]
        threaded = [None] * 4
        start = threading.Barrier(4)

        def work(t):
            start.wait()
            threaded[t] = draw(t)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for got, expected in zip(threaded, serial):
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    def test_philox_built_once_per_thread(self, monkeypatch):
        built = []
        real = np.random.Philox

        def counting_philox(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        GaussianSource(5).generator().standard_normal(3)
        built.clear()
        for stream in range(100):
            GaussianSource(5).stream(stream).generator().standard_normal(3)
        assert built == []
        # a generator still alive holds the thread's Philox, so the next is new
        held = GaussianSource(5).generator()
        GaussianSource(5).stream(1).generator()
        assert built == [1]
        del held

    def test_negative_seed_normalized(self):
        assert GaussianSource(-1).master_seed == 2**64 - 1

    @pytest.mark.parametrize("identity, name", [((1.5,), "master_seed"), ((1, 2.5), "stream_index"),
                                                ((7.0,), "master_seed"), (("7",), "master_seed")])
    def test_non_integral_identity_rejected(self, identity, name):
        # a float seed raised TypeError; every integer rule now raises ValueError
        with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
            GaussianSource(*identity)

    def test_stream_independence_moments(self):
        # pooled samples across many streams behave like one iid sample
        vals = np.concatenate(
            [GaussianSource(9).stream(i).generator().standard_normal(1000) for i in range(100)]
        )
        assert abs(vals.mean()) < 4 / math.sqrt(vals.size)
        assert abs(vals.var() - 1.0) < 0.05


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 1, 2, 3) == derive_seed(42, 1, 2, 3)

    def test_sensitive_to_every_word(self):
        base = derive_seed(42, 1, 2, 3)
        assert derive_seed(43, 1, 2, 3) != base
        assert derive_seed(42, 1, 2, 4) != base
        assert derive_seed(42, 1, 2) != base

    def test_string_words(self):
        assert derive_seed(42, "rand") != derive_seed(42, "omp")

    def test_range(self):
        assert 0 <= derive_seed(0) < 2**64

    @pytest.mark.parametrize("word", [2.9, 2.0, np.float64(2.0)], ids=repr)
    def test_non_integral_word_rejected(self, word):
        # int(w) used to truncate: derive_seed(1, 2.9) == derive_seed(1, 2)
        with pytest.raises(ValueError, match=r"^seed word must be an integer"):
            derive_seed(1, word)

    def test_integer_words_of_any_type_agree(self):
        assert derive_seed(1, np.int64(2)) == derive_seed(1, 2)
        assert derive_seed(1, np.uint64(2**64 - 1)) == derive_seed(1, -1)

    def test_non_integral_master_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^master_seed must be an integer, got 1\.5"):
            derive_seed(1.5, 2)


class TestArgumentRules:
    """``_integer`` with its bounds and ``_finite``, the two rules every input is checked by."""

    @pytest.mark.parametrize("value, lo, hi, message", [
        (0, 1, None, "need n >= 1, got n=0"),
        (np.int64(-5), 0, None, "need n >= 0, got n=-5"),
        (-1, 0, 4, "need 0 <= n <= 4, got n=-1"),
        (5, 0, 4, "need 0 <= n <= 4, got n=5"),
    ], ids=repr)
    def test_out_of_bounds_rejected(self, value, lo, hi, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            _integer(value, "n", lo, hi)

    @pytest.mark.parametrize("value", [0, 2, np.uint8(4)], ids=repr)
    def test_bounds_are_inclusive(self, value):
        got = _integer(value, "n", 0, 4)
        assert got == value and type(got) is int

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 5), (2, 3, 4)], ids=repr)
    def test_non_finite_entry_rejected(self, shape, bad):
        values = np.ones(shape)
        values.flat[len(values.flat) // 2] = bad
        with pytest.raises(ValueError, match=r"^signal has a non-finite entry$"):
            _finite(values, "signal")

    @pytest.mark.parametrize("values", [
        np.zeros(0), np.ones((3, 4)), np.arange(6).reshape(2, 3), np.full(4, 1e308),
        np.array([1e308, 1e308, -1e308]), np.ones((4, 8))[:, ::3],
    ], ids=["empty", "ones", "integers", "overflowing sum", "overflowing partial sum", "strided"])
    def test_finite_values_accepted(self, values):
        # a sum that overflows is no sign of a non-finite entry
        assert _finite(values, "signal") is None


class TestSampleGaussianMatrix:
    def test_shape_and_dtype(self):
        A = sample_gaussian_matrix(GaussianSource(7), 3, 5, 1.0)
        assert A.shape == (3, 5)
        assert A.dtype == np.float64

    def test_single_entry_repeatable(self):
        one = sample_gaussian_matrix(GaussianSource(7), 1, 1, 1.0)
        two = sample_gaussian_matrix(GaussianSource(7), 1, 1, 1.0)
        assert one.shape == (1, 1)
        assert one[0, 0] == two[0, 0]

    def test_leading_columns_are_a_stream_prefix(self):
        src = GaussianSource(11).stream(4)
        wide = sample_gaussian_matrix(src, 20, 30, 0.25)
        narrow = sample_gaussian_matrix(src, 20, 7, 0.25)
        assert np.array_equal(wide[:, :7], narrow)

    def test_sample_mean_within_standard_error(self):
        # mean of 10^4 iid N(0, 1/200) entries: 4 standard errors
        A = sample_gaussian_matrix(GaussianSource(7), 200, 50, 1 / 200)
        bound = 4 / math.sqrt(200 * 50 * 200)
        assert abs(A.mean()) < bound

    def test_sample_variance_within_5_percent(self):
        A = sample_gaussian_matrix(GaussianSource(7), 200, 50, 1 / 200)
        assert abs(A.var() - 1 / 200) < 0.05 / 200

    @pytest.mark.parametrize("k,n", [(0, 5), (5, 0), (0, 0)])
    def test_zero_dimension_rejected(self, k, n):
        with pytest.raises(ValueError):
            sample_gaussian_matrix(GaussianSource(7), k, n, 1.0)

    @pytest.mark.parametrize("var", [0.0, -1.0])
    def test_bad_variance_rejected(self, var):
        with pytest.raises(ValueError):
            sample_gaussian_matrix(GaussianSource(7), 2, 2, var)

    @pytest.mark.parametrize("var", [math.nan, math.inf, -math.inf], ids=repr)
    def test_non_finite_variance_rejected(self, var):
        # a NaN variance passed `variance <= 0` and gave an all-NaN matrix, inf one of +-inf
        with pytest.raises(ValueError, match=r"^entry variance must be finite and positive"):
            sample_gaussian_matrix(GaussianSource(7), 2, 2, var)

    @pytest.mark.parametrize("k, n, message", [
        (3.0, 4, r"k must be an integer, got 3\.0"),
        (3, 4.0, r"n must be an integer, got 4\.0"),
    ], ids=["k=3.0", "n=4.0"])
    def test_non_integral_shape_rejected(self, k, n, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sample_gaussian_matrix(GaussianSource(7), k, n, 1.0)

    def test_numpy_integer_shape_agrees(self):
        plain = sample_gaussian_matrix(GaussianSource(7), 3, 4, 1.0).tobytes()
        for k, n in ((np.int32(3), np.uint64(4)), (np.uint64(3), np.int32(4))):
            assert sample_gaussian_matrix(GaussianSource(7), k, n, 1.0).tobytes() == plain


class TestMedian:
    def test_singleton(self):
        assert median([42]) == 42.0

    def test_odd(self):
        assert median([3, 1, 2]) == 2.0

    def test_even_is_mean_of_middle_pair(self):
        assert median([4, 1, 3, 2]) == 2.5

    def test_axis_matches_columnwise(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        V = rng.standard_normal((9, 12))
        byaxis = median(V)
        for j in range(12):
            assert byaxis[j] == median(V[:, j])

    @pytest.mark.parametrize("rounds", range(1, 13))
    def test_axis_matches_numpy_median(self, rounds):
        rng = np.random.Generator(np.random.Philox(key=rounds))
        ties = rng.integers(0, 3, (rounds, 300)).astype(float)
        for V in (rng.standard_normal((rounds, 300)), ties):
            assert np.array_equal(median(V), np.median(V, axis=0))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    def test_matches_full_sort_oracle(self, values):
        swept = sorted(values)
        mid = len(swept) // 2
        oracle = swept[mid] if len(swept) % 2 else 0.5 * (swept[mid - 1] + swept[mid])
        assert median(values) == oracle

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariant_and_bounded(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        m = median(values)
        assert m == median(shuffled)
        assert min(values) <= m <= max(values)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
    def test_negation_antisymmetry(self, values):
        assert median([-v for v in values]) == -median(values)


def test_gaussian_sampler_large_sample_moments():
    # >= 1e5 samples at a non-unit variance: mean within 4 sigma/sqrt(N),
    # variance within 5 percent
    var = 0.37
    x = sample_gaussian_matrix(GaussianSource(21), 400, 300, var)
    N = x.size
    assert N >= 10**5
    assert abs(x.mean()) < 4 * math.sqrt(var / N)
    assert abs(x.var() - var) < 0.05 * var
