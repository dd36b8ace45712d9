import math
import time

import numpy as np
import pytest

import randcs.recovery as recovery
from randcs.numerics import DimensionMismatchError, GaussianSource, sample_gaussian_matrix
from randcs.recovery import (
    back_project,
    determine_support,
    estimate_noise_floor,
    recover_basic,
    recover_suppressed,
)
from randcs.sensing import (
    MeasurementEnsemble,
    RecoveryConfig,
    SensingEnsemble,
    build_ensemble,
    dump_ensemble,
    generate_binary_signal,
    load_ensemble,
    measure,
)


def identity_ensemble(n, r0=1, seed=0):
    """Hand-built ensemble whose matrices are all the n-by-n identity."""
    return SensingEnsemble(
        n=n, k=n, r0=r0, master_seed=seed, matrices=tuple(np.eye(n) for _ in range(2 * r0))
    )


def _mismatched(stored, measured, used):
    """Measurements of a 4-sparse z taken with (n, k, r0) = ``measured``, and an ensemble of ``used``."""

    def ensemble(n, k, r0):
        seeded = build_ensemble(RecoveryConfig(n=n, s=4, k=k, r0=r0, master_seed=6))
        if not stored:
            return seeded
        return SensingEnsemble(n=n, k=k, r0=r0, master_seed=6, matrices=tuple(seeded.matrices))

    z = generate_binary_signal(6, measured[0], 4)
    return ensemble(*used), measure(ensemble(*measured), z, 0.1, "experiment", 6)


# (n, k, r0) measured with, and used to recover
_MISMATCHES = {
    # r0=4 measurements through an r0=2 ensemble gave 24 coordinates for a 4-sparse z
    "rounds": ((200, 24, 4), (200, 24, 2)),
    # n=200 measurements through an n=300 ensemble gave (2, 300) back-projections
    "dimension": ((200, 24, 2), (300, 24, 2)),
    # a k mismatch surfaced only as numpy's core-dimension error
    "count": ((200, 24, 2), (200, 30, 2)),
}


def prefix_signal(n, s, magnitude=1.0, seed=None):
    """A signal supported on the leading block; signs random when seeded.

    The sensing matrices have exchangeable columns, so recovery statistics
    do not depend on where the support sits.
    """
    values = np.zeros(n)
    if seed is None:
        signs = np.where(np.arange(s) % 2 == 0, 1.0, -1.0)
    else:
        signs = np.where(GaussianSource(seed).stream(0).generator().random(s) < 0.5, -1.0, 1.0)
    values[:s] = magnitude * signs
    return np.asarray(values, dtype=float)


def prefix_measurements(config, z, seed):
    """Measurement vectors computed from the leading-column blocks only.

    For a signal supported on its first s coordinates, b[r] = A[r] @ z
    touches only the first s columns of A[r], and column-major sampling
    makes those columns a stream prefix.  Values agree with the
    full-matrix product to floating-point roundoff; the distribution is
    identical.  Noise replays measure()'s exact stream layout.
    """
    n, k, r0, sw = config.n, config.k, config.r0, config.sigma_w
    s = np.count_nonzero(z)
    zs = z[:s]
    noise_sd = sw if config.noise_mode == "theory" else sw / math.sqrt(k)
    source = GaussianSource(seed)
    vectors = np.empty((2 * r0, k))
    for r in range(2 * r0):
        block = sample_gaussian_matrix(source.stream(r + 1), k, s, 1.0 / k)
        b = block @ zs
        if noise_sd > 0:
            b = b + noise_sd * source.stream(2 * r0 + r + 1).generator().standard_normal(k)
        vectors[r] = b
    return MeasurementEnsemble(vectors=vectors, n=n, k=k, r0=r0, master_seed=seed)


class TestBackProject:
    def test_identity_matrices_return_signal(self):
        ens = identity_ensemble(4, r0=2)
        z = np.asarray([1.0, 0.0, -2.0, 0.5], dtype=float)
        meas = measure(ens, z, 0.0, "theory", 0)
        proj = back_project(ens, meas, range(4))
        for row in proj:
            assert np.array_equal(row, z)

    def test_lazy_blocks_match_eager(self):
        # rounds 1..7 straddle the r0 = 4 back-projections measure() kept,
        # so they take one pass over the seeded ensemble, which must match
        # the same matrices held in memory and the products measure() kept
        cfg = RecoveryConfig(n=30, s=3, k=12, r0=4, master_seed=8)
        seeded = build_ensemble(cfg)
        held = SensingEnsemble(
            n=30, k=12, r0=4, master_seed=8, matrices=tuple(seeded.matrices[r] for r in range(8))
        )
        z = generate_binary_signal(GaussianSource(8), cfg.n, cfg.s)
        meas = measure(seeded, z, 0.1, "experiment", 8)
        rounds = range(1, 8)
        streamed = back_project(seeded, meas, rounds)
        assert np.array_equal(streamed, back_project(held, meas, rounds))
        assert np.array_equal(streamed[:3], back_project(seeded, meas, range(1, 4)))

    @pytest.mark.parametrize("stored", [False, True])
    @pytest.mark.parametrize("case", sorted(_MISMATCHES))
    def test_measurements_of_another_ensemble_rejected(self, case, stored):
        ens, meas = _mismatched(stored, *_MISMATCHES[case])
        recoveries = (
            lambda: back_project(ens, meas, range(2)),
            lambda: recover_basic(ens, meas),
            lambda: recover_suppressed(ens, meas),
            lambda: determine_support(ens, meas),
        )
        for recover in recoveries:
            with pytest.raises(DimensionMismatchError, match="do not fit"):
                recover()

    def test_empty_range_rejected(self):
        ens = identity_ensemble(3)
        meas = measure(ens, np.zeros(3), 0.0, "theory", 0)
        with pytest.raises(ValueError):
            back_project(ens, meas, range(0))

    def test_out_of_range_rejected(self):
        ens = identity_ensemble(3, r0=1)
        meas = measure(ens, np.zeros(3), 0.0, "theory", 0)
        with pytest.raises(ValueError):
            back_project(ens, meas, range(0, 3))
        with pytest.raises(ValueError):
            back_project(ens, meas, range(1, -2, -1))

    def test_unbiased_with_uncorrelated_coordinates(self):
        # mean of v across 1e4 independent rounds near z, covariance of
        # sampled coordinate pairs near 0; the per-coordinate bands are
        # widened to 4.75 standard errors because all 50 coordinates (and
        # 20 pairs) are checked jointly
        n, s, k, sw, rounds = 50, 5, 200, 0.1, 10_000
        z = prefix_signal(n, s)
        cfg = RecoveryConfig(n=n, s=s, k=k, r0=rounds // 2, sigma_w=sw,
                             noise_mode="theory", master_seed=31)
        ens = build_ensemble(cfg)
        meas = measure(ens, z, sw, "theory", 31)
        V = back_project(ens, meas, range(rounds))
        theta2 = z**2 / k + 5.0 / k + sw**2
        assert np.all(np.abs(V.mean(axis=0) - z) < 4.75 * np.sqrt(theta2 / rounds))
        assert np.all(np.abs(V.var(axis=0) - theta2) < 0.10 * theta2)
        rng = np.random.Generator(np.random.Philox(key=8))
        for _ in range(20):
            i, j = rng.choice(n, 2, replace=False)
            prod = V[:, i] * V[:, j]
            cov = prod.mean() - V[:, i].mean() * V[:, j].mean()
            se = prod.std() / math.sqrt(rounds)
            assert abs(cov) < 4.75 * se


@pytest.mark.parametrize("rounds", [[0, -5, 1], (0, 1), [0, 99, 1], [3, 4, 5]], ids=repr)
def test_rounds_other_than_a_range_rejected(rounds):
    # only a range is bounded by its ends: [0, -5, 1] was read as rounds (0, 1), the tuple
    # (0, 1) gave back_project a 0-d array and the noise floor an einsum error, and
    # [0, 99, 1] raised IndexError
    ens = build_ensemble(RecoveryConfig(n=16, s=2, k=8, r0=3, master_seed=4))
    meas = measure(ens, generate_binary_signal(4, 16, 2), 0.1, "experiment", 4)
    message = r"^rounds must be a nonempty range within the 6 rounds, got "
    with pytest.raises(ValueError, match=message):
        back_project(ens, meas, rounds)
    with pytest.raises(ValueError, match=message):
        estimate_noise_floor(meas, rounds, 8)
    assert estimate_noise_floor(meas, range(3, 6), 8).sigma2 > 0


class TestRecoverBasic:
    def test_single_round_is_back_projection(self):
        cfg = RecoveryConfig(n=12, s=2, k=6, r0=1, master_seed=4)
        ens = build_ensemble(cfg)
        z = generate_binary_signal(GaussianSource(4), 12, 2)
        meas = measure(ens, z, 0.1, "theory", 4)
        got = recover_basic(ens, meas)
        expected = back_project(ens, meas, range(1))[0]
        assert np.array_equal(got.values, expected)

    @pytest.mark.parametrize("r0", [1, 3, 4])
    def test_values_own_their_data(self, r0):
        # the median is copied out of the (r0, n) sort, not a view that holds it
        ens = build_ensemble(RecoveryConfig(n=30, s=2, k=12, r0=r0, master_seed=8))
        meas = measure(ens, generate_binary_signal(8, 30, 2), 0.1, "experiment", 8)
        got = recover_basic(ens, meas)
        assert got.values.base is None
        assert got.values.shape == (30,)

    def test_zero_signal_noiseless_recovers_zero(self):
        cfg = RecoveryConfig(n=12, s=1, k=6, r0=3, master_seed=4)
        ens = build_ensemble(cfg)
        meas = measure(ens, np.zeros(12), 0.0, "theory", 4)
        got = recover_basic(ens, meas)
        assert np.array_equal(got.values, np.zeros(12))
        assert got.support == frozenset()

    def test_takes_no_noise_floor(self, monkeypatch):
        # the median of the first half reads no threshold, so none is taken
        cfg = RecoveryConfig(n=30, s=2, k=12, r0=3, master_seed=8)
        ens = build_ensemble(cfg)
        meas = measure(ens, generate_binary_signal(8, 30, 2), 0.1, "experiment", 8)

        def no_floor(*args):
            raise AssertionError("the noise floor was taken")

        monkeypatch.setattr(recovery, "_noise_floor", no_floor)
        got = recover_basic(ens, meas)
        expected = np.median(back_project(ens, meas, range(3)), axis=0)
        assert got.values.tobytes() == expected.tobytes()

    def test_round_permutation_invariance(self):
        cfg = RecoveryConfig(n=10, s=2, k=8, r0=5, master_seed=21)
        ens = build_ensemble(cfg)
        z = generate_binary_signal(GaussianSource(21), 10, 2)
        meas = measure(ens, z, 0.1, "experiment", 21)
        base = recover_basic(ens, meas)
        perm = [3, 0, 4, 1, 2]
        shuffled_ens = SensingEnsemble(
            n=10, k=8, r0=5, master_seed=21,
            matrices=tuple(ens.matrices[p] for p in perm)
            + tuple(ens.matrices[r] for r in range(5, 10)),
        )
        shuffled_meas = MeasurementEnsemble(
            vectors=np.vstack([meas.vectors[perm], meas.vectors[5:]]),
            n=10, k=8, r0=5, master_seed=21,
        )
        assert np.array_equal(recover_basic(shuffled_ens, shuffled_meas).values, base.values)

    def test_noiseless_scaling_equivariance(self):
        cfg = RecoveryConfig(n=10, s=3, k=8, r0=3, master_seed=2)
        ens = build_ensemble(cfg)
        z = np.array([0, 1.0, 0, -2.0, 0, 0, 0.5, 0, 0, 0])
        one = recover_basic(ens, measure(ens, z, 0.0, "theory", 2))
        scaled = recover_basic(ens, measure(ens, 7.0 * z, 0.0, "theory", 2))
        assert np.allclose(scaled.values, 7.0 * one.values, rtol=1e-12, atol=0)

    def test_small_coordinate_error_event(self):
        # k around 200 s ln n and tens of rounds: every coordinate lands
        # within 2 sigma_w of the truth in nearly every run
        n, s, sw, r0, runs = 64, 2, 0.1, 40, 30
        k = math.ceil(200 * s * math.log(n))
        z = prefix_signal(n, s)
        hits = 0
        for run in range(runs):
            seed = 4200 + run
            cfg = RecoveryConfig(n=n, s=s, k=k, r0=r0, sigma_w=sw,
                                 noise_mode="theory", master_seed=seed)
            ens = build_ensemble(cfg)
            meas = prefix_measurements(cfg, z, seed)
            got = recover_basic(ens, meas)
            hits += bool(np.max(np.abs(got.values - z)) < 2 * sw)
        assert hits >= 28


class TestEstimateNoiseFloor:
    def test_identical_rounds_give_exact_energy(self):
        b = np.array([1.0, 2.0, 2.0])
        vectors = np.tile(b, (6, 1))
        meas = MeasurementEnsemble(vectors=vectors, n=3, k=3, r0=3, master_seed=0)
        floor = estimate_noise_floor(meas, range(3, 6), k=3)
        assert floor.sigma2 == 9.0
        assert floor.threshold == 2.0 * math.sqrt(9.0 / 3)
        assert estimate_noise_floor(meas, range(2, -1, -1), k=3) == floor

    def test_zero_measurements_give_zero_floor(self):
        meas = MeasurementEnsemble(vectors=np.zeros((4, 3)), n=3, k=3, r0=2, master_seed=0)
        floor = estimate_noise_floor(meas, range(2, 4), k=3)
        assert floor.sigma2 == 0.0
        assert floor.threshold == 0.0

    def test_empty_range_rejected(self):
        meas = MeasurementEnsemble(vectors=np.zeros((4, 3)), n=3, k=3, r0=2, master_seed=0)
        with pytest.raises(ValueError):
            estimate_noise_floor(meas, range(2, 2), k=3)

    def test_k_of_other_measurements_rejected(self):
        # k = 1 against k = 305 measurements scaled the threshold by sqrt(305)
        vectors = np.random.default_rng(5).standard_normal((16, 305))
        meas = MeasurementEnsemble(vectors=vectors, n=2000, k=305, r0=8, master_seed=0)
        with pytest.raises(DimensionMismatchError, match="does not fit"):
            estimate_noise_floor(meas, range(8, 16), 1)
        assert estimate_noise_floor(meas, range(8, 16), 305).threshold > 0

    @pytest.mark.parametrize("k, message", [
        (9.0, r"k must be an integer, got 9\.0"),
        (9.5, r"k must be an integer, got 9\.5"),
    ], ids=["9.0", "9.5"])
    def test_non_integral_k_rejected(self, k, message):
        vectors = np.random.default_rng(5).standard_normal((4, 9))
        meas = MeasurementEnsemble(vectors=vectors, n=40, k=9, r0=2, master_seed=0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            estimate_noise_floor(meas, range(2, 4), k)

    def test_numpy_integer_k_agrees(self):
        vectors = np.random.default_rng(5).standard_normal((4, 9))
        meas = MeasurementEnsemble(vectors=vectors, n=40, k=9, r0=2, master_seed=0)
        floors = [estimate_noise_floor(meas, range(2, 4), k) for k in (9, np.int32(9), np.uint64(9))]
        assert len({np.array([f.sigma2, f.threshold]).tobytes() for f in floors}) == 1

    def test_concentration_of_median_energy(self):
        # median of 200 round energies stays inside the +/- sqrt(6/k)
        # relative band around ||z||^2 + k sigma_w^2 at the advertised rate
        n, s, k, sw, r0, runs = 50, 5, 100, 0.1, 200, 2000
        z = prefix_signal(n, s)
        expected = 5.0 + k * sw**2
        lo, hi = (1 - math.sqrt(6 / k)) * expected, (1 + math.sqrt(6 / k)) * expected
        inside = 0
        for run in range(runs):
            seed = 9000 + run
            cfg = RecoveryConfig(n=n, s=s, k=k, r0=r0, sigma_w=sw,
                                 noise_mode="theory", master_seed=seed)
            meas = prefix_measurements(cfg, z, seed)
            floor = estimate_noise_floor(meas, range(0, 2 * r0), k)
            inside += bool(lo < floor.sigma2 < hi)
        assert inside / runs >= 1 - 2 * math.exp(-r0 / 72)


class TestRecoverSuppressed:
    def test_zero_signal_noiseless(self):
        cfg = RecoveryConfig(n=12, s=1, k=6, r0=3, master_seed=4)
        ens = build_ensemble(cfg)
        meas = measure(ens, np.zeros(12), 0.0, "theory", 4)
        got = recover_suppressed(ens, meas)
        assert got.support == frozenset()
        assert np.array_equal(got.values, np.zeros(12))

    def test_zero_threshold_matches_basic(self):
        # all-zero measurements give threshold 0, so nothing is suppressed
        cfg = RecoveryConfig(n=12, s=1, k=6, r0=3, master_seed=4)
        ens = build_ensemble(cfg)
        meas = measure(ens, np.zeros(12), 0.0, "theory", 4)
        assert np.array_equal(
            recover_suppressed(ens, meas).values, recover_basic(ens, meas).values
        )

    def test_support_shrinks_relative_to_basic(self):
        for seed in range(5):
            cfg = RecoveryConfig(n=40, s=3, k=30, r0=4, sigma_w=0.1,
                                 noise_mode="experiment", master_seed=seed)
            ens = build_ensemble(cfg)
            z = generate_binary_signal(GaussianSource(seed), 40, 3)
            meas = measure(ens, z, 0.1, "experiment", seed)
            assert recover_suppressed(ens, meas).support <= recover_basic(ens, meas).support

    def test_negative_coordinates_survive_suppression(self):
        # suppression compares magnitudes, so a negative signal must come
        # back with its support intact
        n, s, sw = 32, 2, 0.1
        k = math.ceil(200 * s * math.log(n))
        z = np.asarray(np.concatenate([[-1.5, -1.5], np.zeros(n - 2)]), dtype=float)
        cfg = RecoveryConfig(n=n, s=s, k=k, r0=15, sigma_w=sw,
                             noise_mode="theory", master_seed=77)
        ens = build_ensemble(cfg)
        meas = measure(ens, z, sw, "theory", 77)
        got = recover_suppressed(ens, meas)
        assert got.support == frozenset(np.flatnonzero(z))
        assert np.all(got.values[:2] < 0)


class TestDetermineSupport:
    def test_identity_fixture_recovers_support_exactly(self):
        # with identity sensing, v equals z and the threshold is
        # 2 sqrt(s / n), which sits below 1 whenever n > 4 s
        n = 16
        values = np.zeros(n)
        values[[0, 5, 11]] = 1.0
        z = np.asarray(values, dtype=float)
        ens = identity_ensemble(n, r0=2)
        meas = measure(ens, z, 0.0, "theory", 0)
        assert determine_support(ens, meas) == frozenset(np.flatnonzero(z))

    def test_zero_measurements_give_empty_support(self):
        ens = identity_ensemble(5, r0=2)
        meas = measure(ens, np.zeros(5), 0.0, "theory", 0)
        assert determine_support(ens, meas) == frozenset()

    def test_noiseless_scale_invariance(self):
        cfg = RecoveryConfig(n=30, s=3, k=40, r0=4, master_seed=10)
        ens = build_ensemble(cfg)
        z = np.zeros(30)
        z[[4, 11, 25]] = [1.0, -2.0, 0.5]
        base = determine_support(ens, measure(ens, z, 0.0, "theory", 10))
        for c in (3.0, -2.0, 0.1):
            scaled = determine_support(ens, measure(ens, c * z, 0.0, "theory", 10))
            assert scaled == base

    def test_counting_consistent_with_median(self):
        # odd round count: a median magnitude at or above the threshold
        # forces the count rule to fire for that coordinate
        for seed in range(10):
            cfg = RecoveryConfig(n=25, s=3, k=20, r0=5, sigma_w=0.2,
                                 noise_mode="experiment", master_seed=seed)
            ens = build_ensemble(cfg)
            z = generate_binary_signal(GaussianSource(seed), 25, 3)
            meas = measure(ens, z, 0.2, "experiment", seed)
            r0, k = cfg.r0, cfg.k
            V = back_project(ens, meas, range(r0))
            floor = estimate_noise_floor(meas, range(r0, 2 * r0), k)
            medians = np.median(V, axis=0)
            counts = (np.abs(V) >= floor.threshold).sum(axis=0)
            support = determine_support(ens, meas)
            for i in range(25):
                if abs(medians[i]) >= floor.threshold:
                    assert counts[i] >= math.ceil(r0 / 2)
                    assert i in support

    def test_benchmark_scale_accuracy(self):
        # small benchmark-style cell: mean support accuracy at least 0.95
        n, s, sw, runs = 500, 5, 0.1, 30
        accs = []
        for run in range(runs):
            seed = 6600 + run
            cfg = RecoveryConfig(n=n, s=s, sigma_w=sw, noise_mode="experiment",
                                 master_seed=seed)
            ens = build_ensemble(cfg)
            z = generate_binary_signal(GaussianSource(seed).stream(0), n, s)
            meas = measure(ens, z, sw, "experiment", seed)
            got = determine_support(ens, meas)
            union = got | frozenset(np.flatnonzero(z))
            accs.append(len(got & frozenset(np.flatnonzero(z))) / len(union))
        assert float(np.mean(accs)) >= 0.95


@pytest.mark.parametrize("c, subnormal", [(1e-161, True), (1e-162, False)])
def test_underflowing_threshold_clears_no_coordinate(c, subnormal):
    # ||b||**2 of z = c e_17 underflows: at 1e-161 to a subnormal sigma2 whose
    # threshold is 0.0, at 1e-162 to sigma2 = 0.0; a zero threshold must clear
    # no coordinate, not every one
    ens = build_ensemble(RecoveryConfig(n=2000, s=1, k=305, r0=8, master_seed=7))
    z = np.zeros(2000)
    z[17] = c
    meas = measure(ens, z, 0.0, "experiment", 7)
    floor = estimate_noise_floor(meas, range(8, 16), 305)
    assert floor.threshold == 0.0 and (floor.sigma2 > 0.0) == subnormal
    assert determine_support(ens, meas) == frozenset()
    got = recover_suppressed(ens, meas)
    assert got.support == frozenset()
    assert np.array_equal(got.values, np.zeros(2000))
    assert np.count_nonzero(recover_basic(ens, meas).values) == 2000


def _oracle(ens, meas):
    """Medians, suppressed medians and vote support in plain numpy, from the same v."""
    r0 = ens.r0
    v = back_project(ens, meas, range(r0))
    tail = meas.vectors[r0:]
    threshold = 2.0 * math.sqrt(float(np.median(np.einsum("rk,rk->r", tail, tail))) / ens.k)
    medians = np.median(v, axis=0)
    suppressed = np.where(np.abs(medians) < threshold, 0.0, medians)
    votes = (np.abs(v) >= threshold).sum(axis=0)
    return medians, suppressed, frozenset(np.flatnonzero(votes >= math.ceil(r0 / 2)).tolist())


def _assert_matches_oracle(ens, meas):
    medians, suppressed, support = _oracle(ens, meas)
    basic, got = recover_basic(ens, meas), recover_suppressed(ens, meas)
    assert basic.values.tobytes() == medians.tobytes()
    assert basic.support == frozenset(np.flatnonzero(medians).tolist())
    assert got.values.tobytes() == suppressed.tobytes()
    assert got.support == frozenset(np.flatnonzero(suppressed).tolist())
    assert determine_support(ens, meas) == support
    return suppressed, support


class TestOracle:
    @pytest.mark.parametrize("r0", [3, 4])
    def test_every_ensemble_form(self, r0, tmp_path):
        # kept and unkept back-projections of a seeded, an RCS2-stored and a
        # hand-built ensemble; signals span the threshold, so suppression and
        # votes both keep and clear coordinates
        n, k = 80, 24
        seeded = build_ensemble(RecoveryConfig(n=n, s=6, k=k, r0=r0, master_seed=r0))
        dump_ensemble(seeded, tmp_path / "ens.bin")
        forms = (
            seeded,
            load_ensemble(tmp_path / "ens.bin"),
            SensingEnsemble(n=n, k=k, r0=r0, master_seed=r0, matrices=tuple(seeded.matrices)),
        )
        rng = np.random.default_rng(r0)
        kept = cleared = 0
        for trial in range(4):
            z = np.zeros(n)
            z[rng.choice(n, 6, replace=False)] = rng.uniform(-2.0, 2.0, 6)
            for ens in forms:
                meas = measure(ens, z, 0.1, "experiment", trial)
                unkept = MeasurementEnsemble(
                    vectors=meas.vectors, n=n, k=k, r0=r0, master_seed=trial
                )
                for m in (meas, unkept):
                    suppressed, support = _assert_matches_oracle(ens, m)
                    kept += np.count_nonzero(suppressed) + len(support)
                    cleared += np.count_nonzero(suppressed == 0) + n - len(support)
        assert kept > 0 and cleared > 0

    @pytest.mark.parametrize("r0", [4, 5])
    def test_ties_at_the_threshold_and_the_vote_cut(self, r0):
        # identity sensing: v[r] = b[r], and second-half rows of squared norm
        # 16 = k give the threshold 2 * sqrt(16 / 16) = 2.0 exactly
        n = 16
        cut = math.ceil(r0 / 2)
        vectors = np.zeros((2 * r0, n))
        vectors[r0:, 0] = 4.0
        vectors[:r0, 0] = 2.0  # at the threshold: kept and voted
        vectors[:r0, 1] = -2.0  # magnitude at the threshold
        vectors[:r0, 2] = np.nextafter(2.0, 0.0)  # just below: cleared
        vectors[:cut, 3] = 3.0  # exactly ceil(r0 / 2) votes
        vectors[: cut - 1, 4] = 3.0  # one vote short
        ens = identity_ensemble(n, r0=r0)
        meas = MeasurementEnsemble(vectors=vectors, n=n, k=n, r0=r0, master_seed=0)
        assert estimate_noise_floor(meas, range(r0, 2 * r0), n).threshold == 2.0
        suppressed, support = _assert_matches_oracle(ens, meas)
        assert support == {0, 1, 3}
        # coordinate 3's median is 3.0 for odd r0, (3 + 0) / 2 for even r0
        assert set(np.flatnonzero(suppressed).tolist()) == ({0, 1, 3} if r0 % 2 else {0, 1})


def _floor_rows(r0, k=16, entry=4.0):
    """(r0, k) second-half rows of squared norm entry**2: entry 4.0 at k = 16 gives threshold 2.0."""
    rows = np.zeros((r0, k))
    rows[:, 0] = entry
    return rows


class TestRule:
    """``recovery._rule`` on hand-made arrays, with no ensemble."""

    # (v, basic medians, suppressed medians, vote mask) at threshold 2.0
    CASES = {
        3: ([[3, -4, 2, 0.5, 9], [5, 0, -2, 0.5, -9], [1, -1, 1.5, 2.5, 0]],
            [3, -1, 1.5, 0.5, 0], [3, 0, 0, 0, 0], [True, False, True, False, True]),
        4: ([[3, -4, 2, 0.5, 9], [5, 0, -2, 0.5, -9], [1, -1, 1.5, 2.5, 0], [0, -6, 3, 0.5, 9]],
            [2, -2.5, 1.75, 0.5, 4.5], [2, -2.5, 0, 0, 4.5], [True, True, True, False, True]),
    }

    @pytest.mark.parametrize("r0", [3, 4])
    def test_known_median_and_vote(self, r0):
        v, medians, suppressed, votes = (np.array(x, dtype=float) for x in self.CASES[r0])
        floor = _floor_rows(r0)
        assert recovery._noise_floor(floor, 16).threshold == 2.0
        assert recovery._rule(v, floor, 16, "basic").tobytes() == medians.tobytes()
        assert recovery._rule(v, floor, 16, "suppressed").tobytes() == suppressed.tobytes()
        assert np.array_equal(recovery._rule(v, floor, 16, "support"), votes.astype(bool))

    @pytest.mark.parametrize("r0", [4, 5])
    def test_ties_at_the_threshold_and_the_vote_cut(self, r0):
        cut = math.ceil(r0 / 2)
        v = np.zeros((r0, 5))
        v[:, 0] = 2.0  # at the threshold: kept and voted
        v[:, 1] = -2.0  # magnitude at the threshold, sign kept
        v[:, 2] = np.nextafter(2.0, 0.0)  # just below: cleared, no vote
        v[:cut, 3] = 3.0  # exactly ceil(r0 / 2) votes
        v[: cut - 1, 4] = 3.0  # one vote short
        floor = _floor_rows(r0)
        assert recovery._rule(v, floor, 16, "support").tolist() == [True, True, False, True, False]
        suppressed = recovery._rule(v, floor, 16, "suppressed")
        assert suppressed[:3].tolist() == [2.0, -2.0, 0.0]

    @pytest.mark.parametrize("r0", [3, 4])
    @pytest.mark.parametrize("entry", [0.0, 1e-162])  # all zero, or a squared norm that underflows
    def test_zero_threshold(self, r0, entry):
        v, medians, *_ = (np.array(x, dtype=float) for x in self.CASES[r0])
        floor = _floor_rows(r0, entry=entry)
        assert recovery._noise_floor(floor, 16).threshold == 0.0
        assert not np.any(recovery._rule(v, floor, 16, "support"))
        assert recovery._rule(v, floor, 16, "suppressed").tobytes() == np.zeros(5).tobytes()
        assert recovery._rule(v, floor, 16, "basic").tobytes() == medians.tobytes()

    @pytest.mark.parametrize("r0", [3, 4])
    def test_basic_reads_no_floor(self, r0):
        # rows and a k that would raise if the noise floor read them
        v, medians, *_ = (np.array(x, dtype=float) for x in self.CASES[r0])
        with pytest.raises(ValueError):
            recovery._rule(v, None, 0, "suppressed")
        assert recovery._rule(v, None, 0, "basic").tobytes() == medians.tobytes()


class TestThresholdClassification:
    def test_misclassification_rate_below_bound(self):
        # with min |z_i| comfortably above 6 sigma/sqrt(k) and many rounds,
        # the per-coordinate misclassification rate of the magnitude
        # threshold stays under 2 exp(-r0/540) plus sampling slack
        n, s, k, sw, r0, runs = 30, 3, 700, 0.1, 540, 25
        z = prefix_signal(n, s)
        bound = 2 * math.exp(-r0 / 540)
        mistakes = 0
        for run in range(runs):
            seed = 12_000 + run
            cfg = RecoveryConfig(n=n, s=s, k=k, r0=r0, sigma_w=sw,
                                 noise_mode="theory", master_seed=seed)
            ens = build_ensemble(cfg)
            meas = prefix_measurements(cfg, z, seed)
            floor = estimate_noise_floor(meas, range(r0, 2 * r0), k)
            zhat = recover_basic(ens, meas).values
            on = np.abs(zhat[:s]) <= floor.threshold
            off = np.abs(zhat[s:]) >= floor.threshold
            mistakes += int(on.sum() + off.sum())
        total = runs * n
        rate = mistakes / total
        slack = 4 * math.sqrt(bound * (1 - bound) / total)
        assert rate <= bound + slack


def test_recovery_work_scales_linearly_in_dimension():
    # fixed k and r0: doubling n at most triples the recovery wall time;
    # timings are interleaved and medianed to ride out scheduler noise
    k, r0, sw = 300, 24, 0.1
    problems = {}
    for n in (2000, 4000):
        s = n // 100
        cfg = RecoveryConfig(n=n, s=s, k=k, r0=r0, sigma_w=sw,
                             noise_mode="experiment", master_seed=55)
        ens = build_ensemble(cfg)
        z = generate_binary_signal(GaussianSource(55).stream(0), n, s)
        meas = measure(ens, z, sw, "experiment", 55)
        problems[n] = (ens, meas)
        recover_suppressed(ens, meas)  # warm up
        recover_suppressed(ens, meas)
    samples = {2000: [], 4000: []}
    for _ in range(9):
        for n, (ens, meas) in problems.items():
            t0 = time.perf_counter()
            recover_suppressed(ens, meas)
            samples[n].append(time.perf_counter() - t0)
    assert float(np.median(samples[4000])) <= 3 * float(np.median(samples[2000]))
