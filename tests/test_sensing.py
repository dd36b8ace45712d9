import math
import os
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import randcs.sensing as sensing
from randcs.numerics import GaussianSource, sample_gaussian_matrix
from randcs.recovery import back_project, recover_suppressed
from randcs.sensing import (
    LazyMatrices,
    MeasurementEnsemble,
    RecoveryConfig,
    SensingEnsemble,
    Signal,
    build_ensemble,
    default_measurement_count,
    default_round_count,
    dump_ensemble,
    dump_measurements,
    generate_binary_signal,
    load_ensemble,
    load_measurements,
    measure,
    theory_round_count,
)


class TestSignal:
    def test_from_values_extracts_support(self):
        sig = Signal.from_values([0.0, 2.5, 0.0, -1.0])
        assert sig.support == {1, 3}
        assert sig.sparsity == 2
        assert sig.dim == 4

    def test_inconsistent_support_rejected(self):
        with pytest.raises(ValueError):
            Signal(values=np.array([1.0, 0.0]), support=frozenset({0, 1}), sparsity=2)


class TestGenerateBinarySignal:
    def test_full_sparsity_forces_all_ones(self):
        sig = generate_binary_signal(GaussianSource(3), 5, 5)
        assert np.array_equal(sig.values, np.ones(5))

    def test_values_are_binary_with_exact_sparsity(self):
        sig = generate_binary_signal(GaussianSource(3), 100, 17)
        assert set(np.unique(sig.values)) <= {0.0, 1.0}
        assert sig.sparsity == 17
        assert sig.values.sum() == 17

    def test_large_instance_sparsity_exact(self):
        sig = generate_binary_signal(GaussianSource(3), 8000, 640)
        assert sig.sparsity == 640

    @pytest.mark.parametrize("s", [0, 6])
    def test_invalid_sparsity_rejected(self, s):
        with pytest.raises(ValueError):
            generate_binary_signal(GaussianSource(3), 5, s)

    def test_single_one_uniform_over_indices(self):
        # n=5, s=1 over 1e4 seeds: each index frequency 0.2 +/- 0.02
        counts = np.zeros(5)
        for seed in range(10_000):
            sig = generate_binary_signal(seed, 5, 1)
            counts[next(iter(sig.support))] += 1
        freqs = counts / 10_000
        assert np.all(np.abs(freqs - 0.2) < 0.02)

    def test_int_seed_equals_signal_stream(self):
        a = generate_binary_signal(7, 50, 5)
        b = generate_binary_signal(GaussianSource(7).stream(0), 50, 5)
        assert a.support == b.support


class TestRecoveryConfig:
    def test_benchmark_cell_defaults(self):
        cfg = RecoveryConfig(n=2000, s=20)
        assert cfg.k == 305 == default_measurement_count(2000, 20)
        assert cfg.r0 == 8 == default_round_count(2000)

    def test_theory_round_count(self):
        assert theory_round_count(2000) == math.ceil(1080 * math.log(2000))

    def test_noise_variance_by_mode(self):
        theory = RecoveryConfig(n=100, s=2, k=50, sigma_w=0.3, noise_mode="theory")
        assert theory.noise_variance == pytest.approx(0.09)
        exp = RecoveryConfig(n=100, s=2, k=50, sigma_w=0.3, noise_mode="experiment")
        assert exp.noise_variance == pytest.approx(0.09 / 50)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=10, s=0),
            dict(n=10, s=11),
            dict(n=10, s=2, k=0),
            dict(n=10, s=2, r0=0),
            dict(n=10, s=2, sigma_w=-0.1),
            dict(n=10, s=2, noise_mode="bogus"),
            dict(n=10, s=2, sigma_w=math.nan),
            dict(n=10, s=2, sigma_w=math.inf),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RecoveryConfig(**kwargs)


class TestBuildEnsemble:
    def test_shapes(self):
        cfg = RecoveryConfig(n=4, s=1, k=2, r0=1, master_seed=5)
        ens = build_ensemble(cfg)
        assert len(ens.matrices) == 2
        assert all(m.shape == (2, 4) for m in ens.matrices)

    def test_deterministic_bit_identical(self):
        cfg = RecoveryConfig(n=16, s=2, k=8, r0=3, master_seed=99)
        a, b = build_ensemble(cfg), build_ensemble(cfg)
        assert all(np.array_equal(x, y) for x, y in zip(a.matrices, b.matrices))

    def test_matrix_reproducible_from_seed_and_round(self):
        # each matrix is the draw from stream r + 1 of the master seed
        cfg = RecoveryConfig(n=16, s=2, k=8, r0=3, master_seed=99)
        ens = build_ensemble(cfg)
        view = LazyMatrices(99, 6, 8, 16)
        for r in range(6):
            assert np.array_equal(ens.matrices[r], view[r])
            expected = sample_gaussian_matrix(GaussianSource(99).stream(r + 1), 8, 16, 1 / 8)
            assert np.array_equal(ens.matrices[r], expected)

    def test_lazy_matches_eager(self, tmp_path):
        # the matrices a pass samples on the pool (written out by
        # dump_ensemble) are the ones matrices[r] regenerates on access
        cfg = RecoveryConfig(n=16, s=2, k=8, r0=3, master_seed=99)
        ens = build_ensemble(cfg)
        assert len(ens.matrices) == 6
        streamed = _dumped(ens, tmp_path).matrices
        assert all(np.array_equal(streamed[r], ens.matrices[r]) for r in range(6))

    def test_lazy_index_errors(self):
        view = LazyMatrices(1, 4, 2, 3)
        with pytest.raises(IndexError):
            view[4]
        assert np.array_equal(view[-1], view[3])

    def test_regenerate_into_bit_identical(self):
        # more rounds than sampling threads, so every thread reuses its
        # buffer: each round is still the draw from its own stream
        cfg = RecoveryConfig(n=16, s=2, k=8, r0=3, master_seed=99)
        ens = build_ensemble(cfg)
        meas = measure(ens, generate_binary_signal(99, 16, 2), 0.1, "experiment", 99)
        got = back_project(ens, _unkept(meas), range(6))
        for r in range(6):
            A = sample_gaussian_matrix(GaussianSource(99).stream(r + 1), 8, 16, 1 / 8)
            assert np.array_equal(got[r], A.T @ meas.vectors[r])

    def test_regenerate_into_validates(self):
        view = LazyMatrices(99, 6, 8, 16)
        with pytest.raises(IndexError):
            view[6]
        ens = build_ensemble(RecoveryConfig(n=16, s=2, k=8, r0=3, master_seed=99))
        with pytest.raises(ValueError):
            measure(ens, np.zeros(8), 0.1, "experiment", 99)

    def test_concurrent_builds_share_one_pool(self, monkeypatch):
        # more callers than cores, rapid thread switching, first use racing
        # the pool's creation: one pool of cpu_count threads, same values
        cfg = RecoveryConfig(n=40, s=2, k=24, r0=4, master_seed=31)
        ens = build_ensemble(cfg)
        z = generate_binary_signal(31, 40, 2)
        alone = measure(ens, z, 0.1, "experiment", 31)
        created = []
        real_executor = sensing.ThreadPoolExecutor

        def counting_executor(**kwargs):
            created.append((real_executor(**kwargs), kwargs))
            return created[-1][0]

        monkeypatch.setattr(sensing, "ThreadPoolExecutor", counting_executor)
        monkeypatch.setattr(sensing, "_sampling_pool", None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as callers:
                runs = list(
                    callers.map(
                        lambda _: measure(ens, z, 0.1, "experiment", 31), range(8), timeout=60
                    )
                )
        finally:
            sys.setswitchinterval(interval)
            for pool, _ in created:
                pool.shutdown()
        assert len(created) == 1
        assert created[0][1]["max_workers"] == os.cpu_count()
        for meas in runs:
            assert np.array_equal(meas.vectors, alone.vectors)
            assert np.array_equal(
                back_project(ens, meas, range(4)),
                back_project(ens, alone, range(4)),
            )

    def test_regenerate_many_bit_identical(self):
        # rounds requested out of order land in the order requested
        cfg = RecoveryConfig(n=16, s=2, k=8, r0=3, master_seed=99)
        ens = build_ensemble(cfg)
        meas = _unkept(measure(ens, generate_binary_signal(99, 16, 2), 0.1, "experiment", 99))
        rounds = range(5, -1, -2)
        got = back_project(ens, meas, rounds)
        expected = [ens.matrices[r].T @ meas.vectors[r] for r in rounds]
        assert [np.array_equal(g, e) for g, e in zip(got, expected)] == [True] * 3

    def test_regenerate_many_validates(self):
        ens = build_ensemble(RecoveryConfig(n=16, s=2, k=8, r0=3, master_seed=99))
        meas = measure(ens, np.zeros(16), 0.1, "experiment", 99)
        with pytest.raises(ValueError):
            back_project(ens, meas, range(0))
        with pytest.raises(ValueError):
            back_project(ens, meas, range(0, 7))
        with pytest.raises(IndexError):
            ens.matrices[-7]

    def test_pooled_entry_variance(self):
        # all matrices at k=200 pooled: variance within 5 percent of 1/200
        cfg = RecoveryConfig(n=100, s=2, k=200, r0=4, master_seed=7)
        ens = build_ensemble(cfg)
        pooled = np.concatenate([m.ravel() for m in ens.matrices])
        assert abs(pooled.var() - 1 / 200) < 0.05 / 200

    def test_wrong_matrix_count_rejected(self):
        with pytest.raises(ValueError):
            SensingEnsemble(n=4, k=2, r0=2, master_seed=0, matrices=(np.zeros((2, 4)),))


class TestMeasure:
    def test_zero_signal_zero_noise_gives_zero(self):
        cfg = RecoveryConfig(n=6, s=1, k=4, r0=2, master_seed=1)
        ens = build_ensemble(cfg)
        meas = measure(ens, np.zeros(6), 0.0, "theory", 1)
        assert np.array_equal(meas.vectors, np.zeros((4, 4)))

    def test_noiseless_equals_exact_product(self):
        cfg = RecoveryConfig(n=6, s=2, k=4, r0=2, master_seed=1)
        ens = build_ensemble(cfg)
        z = generate_binary_signal(GaussianSource(1), 6, 2)
        meas = measure(ens, z, 0.0, "theory", 1)
        for r in range(4):
            assert np.array_equal(meas.vectors[r], ens.matrices[r] @ z.values)

    def test_noiseless_is_linear_in_signal(self):
        cfg = RecoveryConfig(n=6, s=2, k=4, r0=2, master_seed=1)
        ens = build_ensemble(cfg)
        z = np.array([0.0, 1.5, 0.0, -2.0, 0.0, 3.0])
        one = measure(ens, z, 0.0, "experiment", 1)
        three = measure(ens, 3.0 * z, 0.0, "experiment", 1)
        assert np.allclose(three.vectors, 3.0 * one.vectors, rtol=1e-12, atol=0)

    def test_theory_mode_noise_variance(self):
        # z = 0, k = 100: pooled coordinates have variance sigma_w^2 within 5%
        cfg = RecoveryConfig(n=5, s=1, k=100, r0=600, master_seed=3)
        ens = build_ensemble(cfg)
        meas = measure(ens, np.zeros(5), 0.4, "theory", 3)
        pooled = meas.vectors.ravel()
        assert pooled.size >= 10**5
        assert abs(pooled.var() - 0.16) < 0.05 * 0.16

    def test_experiment_mode_noise_variance(self):
        cfg = RecoveryConfig(n=5, s=1, k=100, r0=600, master_seed=3)
        ens = build_ensemble(cfg)
        meas = measure(ens, np.zeros(5), 0.4, "experiment", 3)
        target = 0.16 / 100
        assert abs(meas.vectors.var() - target) < 0.05 * target

    def test_dimension_mismatch(self):
        cfg = RecoveryConfig(n=6, s=1, k=4, r0=2, master_seed=1)
        ens = build_ensemble(cfg)
        with pytest.raises(ValueError):
            measure(ens, np.zeros(7), 0.0, "theory", 1)

    def test_bad_mode_rejected(self):
        cfg = RecoveryConfig(n=6, s=1, k=4, r0=2, master_seed=1)
        ens = build_ensemble(cfg)
        with pytest.raises(ValueError):
            measure(ens, np.zeros(6), 0.1, "half-theory", 1)

    @pytest.mark.parametrize("sigma_w", [-0.1, math.nan, math.inf])
    def test_bad_noise_level_rejected(self, sigma_w):
        # a NaN level would otherwise add no noise at all (nan > 0 is false)
        cfg = RecoveryConfig(n=6, s=1, k=4, r0=2, master_seed=1)
        ens = build_ensemble(cfg)
        with pytest.raises(ValueError):
            measure(ens, np.zeros(6), sigma_w, "theory", 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_signal_rejected(self, bad):
        cfg = RecoveryConfig(n=6, s=1, k=4, r0=2, master_seed=1)
        ens = build_ensemble(cfg)
        z = np.zeros(6)
        z[3] = bad
        with pytest.raises(ValueError, match="finite"):
            measure(ens, z, 0.1, "experiment", 1)


def _dumped(ens, directory):
    """The ensemble written to an RCS1 file by dump_ensemble and read back."""
    path = directory / "ens.bin"
    dump_ensemble(ens, path)
    return load_ensemble(path)


def _unkept(meas):
    """The same measurements without the back-projections measure() kept."""
    return MeasurementEnsemble(
        vectors=meas.vectors, n=meas.n, k=meas.k, r0=meas.r0, master_seed=meas.master_seed
    )


def _blas_threads():
    blas = sensing._openblas_threads()
    if blas is None:
        pytest.skip("numpy bundles no OpenBLAS whose thread count can be set")
    return blas[0]()


class TestPass:
    """One pass over the rounds: measure, back-project and dump share it."""

    def test_seeded_and_stored_ensembles(self, tmp_path):
        # each storage form against its own rounds replayed with the same
        # numpy calls, bit for bit; the two forms reach the same support
        # but not always the same last bit, since a stored matrix is
        # row-major and a sampled one column-major, and BLAS sums the two
        # layouts in different orders
        cfg = RecoveryConfig(n=40, s=3, k=24, r0=4, master_seed=61)
        seeded = build_ensemble(cfg)
        stored = _dumped(seeded, tmp_path)
        z = generate_binary_signal(61, 40, 3)
        results = []
        for ens in (seeded, stored):
            meas = measure(ens, z, 0.1, "experiment", 61)
            projected = back_project(ens, meas, range(8))
            for r in range(8):
                A = sample_gaussian_matrix(GaussianSource(61).stream(r + 1), 24, 40, 1 / 24)
                assert np.array_equal(ens.matrices[r], A)
                A = ens.matrices[r]
                noise = GaussianSource(61).stream(8 + r + 1).generator().standard_normal(24)
                assert np.array_equal(meas.vectors[r], A @ z.values + 0.1 / math.sqrt(24) * noise)
                assert np.array_equal(projected[r], A.T @ meas.vectors[r])
            kept = back_project(ens, meas, range(4))
            assert np.array_equal(kept, projected[:4])
            values = recover_suppressed(ens, meas).values
            assert np.array_equal(values, recover_suppressed(ens, _unkept(meas)).values)
            results.append((meas.vectors, projected, values))
        for a, b in zip(*results):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-15)
        assert np.array_equal(results[0][2] != 0, results[1][2] != 0)

    def test_blas_threads_held_at_one_and_restored(self, monkeypatch):
        before = _blas_threads()
        get = sensing._openblas_threads()[0]
        cfg = RecoveryConfig(n=40, s=2, k=24, r0=4, master_seed=5)
        ens = build_ensemble(cfg)
        z = generate_binary_signal(5, 40, 2)
        seen = []
        real_sampled = sensing._sampled

        def recording_sampled(matrices, r):
            seen.append(get())
            return real_sampled(matrices, r)

        monkeypatch.setattr(sensing, "_sampled", recording_sampled)
        measure(ens, z, 0.1, "experiment", 5)
        assert seen == [1] * 8
        assert get() == before

        def failing_sampled(matrices, r):
            if r == 2:
                raise RuntimeError("synthetic sampling failure")
            return real_sampled(matrices, r)

        monkeypatch.setattr(sensing, "_sampled", failing_sampled)
        with pytest.raises(RuntimeError, match="synthetic"):
            measure(ens, z, 0.1, "experiment", 5)
        assert get() == before

        monkeypatch.setattr(sensing, "_sampled", real_sampled)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as callers:
                runs = list(
                    callers.map(
                        lambda _: measure(ens, z, 0.1, "experiment", 5), range(4), timeout=60
                    )
                )
        finally:
            sys.setswitchinterval(interval)
        assert len(runs) == 4
        assert get() == before

    def test_peak_memory_independent_of_round_count(self, monkeypatch):
        # one sampling thread, its buffer already allocated: the peak of a
        # trial's sensing grows with the rounds by far less than a matrix
        n, k = 300, 100
        pool = ThreadPoolExecutor(max_workers=1)
        monkeypatch.setattr(sensing, "_sampling_pool", pool)
        z = generate_binary_signal(3, n, 3)

        def peak(r0):
            tracemalloc.start()
            try:
                ens = build_ensemble(RecoveryConfig(n=n, s=3, k=k, r0=r0, master_seed=3))
                measure(ens, z, 0.1, "experiment", 3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        try:
            peak(2)
            small, large = peak(2), peak(12)
        finally:
            pool.shutdown()
        assert abs(large - small) < 8 * n * k

    def test_non_finite_signal_rejected_before_sampling(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("a matrix was sampled")

        monkeypatch.setattr(sensing, "_sampled", no_sampling)
        monkeypatch.setattr(sensing, "sample_gaussian_matrix", no_sampling)
        ens = build_ensemble(RecoveryConfig(n=6, s=1, k=4, r0=2, master_seed=1))
        for bad in (math.nan, math.inf):
            z = np.zeros(6)
            z[3] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="finite"):
                    measure(ens, z, 0.1, "experiment", 1)


def _fixed_test_signal(n=50, s=5):
    # deterministic +/-1 entries on the leading block
    values = np.zeros(n)
    values[:s] = np.where(np.arange(s) % 2 == 0, 1.0, -1.0)
    return Signal.from_values(values)


class TestMeasurementEnergyMoments:
    """Monte-Carlo checks of the squared-norm law E||b||^2 = ||z||^2 + k sigma_w^2."""

    def test_mean_energy(self):
        # 1e4 independent rounds through the real pipeline, theory mode
        z = _fixed_test_signal()
        k, rounds, sw = 100, 10_000, 0.1
        cfg = RecoveryConfig(n=50, s=5, k=k, r0=rounds // 2, sigma_w=sw,
                             noise_mode="theory", master_seed=13)
        ens = build_ensemble(cfg)
        meas = measure(ens, z, sw, "theory", 13)
        energies = np.einsum("rk,rk->r", meas.vectors, meas.vectors)
        expected = 5.0 + k * sw**2
        variance = (2 / k) * expected**2
        assert abs(energies.mean() - expected) < 4 * math.sqrt(variance / rounds)

    def test_energy_variance(self):
        # 1e5 rounds at k=100: sample variance within 10 percent
        z = _fixed_test_signal()
        k, rounds, sw = 100, 100_000, 0.1
        cfg = RecoveryConfig(n=50, s=5, k=k, r0=rounds // 2, sigma_w=sw,
                             noise_mode="theory", master_seed=17)
        ens = build_ensemble(cfg)
        meas = measure(ens, z, sw, "theory", 17)
        energies = np.einsum("rk,rk->r", meas.vectors, meas.vectors)
        target = (2 / k) * (5.0 + k * sw**2) ** 2
        assert abs(energies.var() - target) < 0.10 * target


class TestFixtureFormat:
    def _ensemble(self):
        cfg = RecoveryConfig(n=8, s=2, k=5, r0=2, master_seed=77)
        return cfg, build_ensemble(cfg)

    def test_ensemble_round_trip(self, tmp_path):
        _, ens = self._ensemble()
        path = tmp_path / "ens.bin"
        dump_ensemble(ens, path)
        back = load_ensemble(path)
        assert (back.n, back.k, back.r0, back.master_seed) == (8, 5, 2, 77)
        assert all(np.array_equal(a, b) for a, b in zip(back.matrices, ens.matrices))

    def test_measurements_round_trip(self, tmp_path):
        cfg, ens = self._ensemble()
        z = generate_binary_signal(GaussianSource(77), 8, 2)
        meas = measure(ens, z, 0.1, "experiment", 77)
        path = tmp_path / "meas.bin"
        dump_measurements(meas, path)
        back = load_measurements(path)
        assert np.array_equal(back.vectors, meas.vectors)
        assert back.sigma_w is None and back.noise_mode is None

    def test_header_fields_little_endian(self, tmp_path):
        _, ens = self._ensemble()
        path = tmp_path / "ens.bin"
        dump_ensemble(ens, path)
        raw = path.read_bytes()
        assert raw[:4] == b"RCS1"
        assert int.from_bytes(raw[4:12], "little") == 8
        assert int.from_bytes(raw[12:20], "little") == 5
        assert int.from_bytes(raw[20:28], "little") == 2
        assert int.from_bytes(raw[28:36], "little") == 77

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_ensemble(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "tiny.bin"
        path.write_bytes(b"RC")
        with pytest.raises(ValueError):
            load_ensemble(path)

    def test_payload_size_mismatch_rejected(self, tmp_path):
        _, ens = self._ensemble()
        path = tmp_path / "ens.bin"
        dump_ensemble(ens, path)
        with pytest.raises(ValueError):
            load_measurements(path)

    def test_ensemble_bytes_are_stacked_row_major_matrices(self, tmp_path):
        _, ens = self._ensemble()
        path = tmp_path / "ens.bin"
        dump_ensemble(ens, path)
        payload = np.stack([np.asarray(m) for m in ens.matrices]).astype("<f8").tobytes()
        assert path.read_bytes()[36:] == payload

    def test_partial_float_payload_rejected(self, tmp_path):
        _, ens = self._ensemble()
        path = tmp_path / "ens.bin"
        dump_ensemble(ens, path)
        with open(path, "ab") as fh:
            fh.write(b"\x00\x01\x02")
        with pytest.raises(ValueError):
            load_ensemble(path)

    def test_measurement_shape_validated(self):
        with pytest.raises(ValueError):
            MeasurementEnsemble(vectors=np.zeros((3, 5)), n=8, k=5, r0=2, master_seed=0)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_measurements_rejected(self, bad):
        vectors = np.zeros((4, 5))
        vectors[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            MeasurementEnsemble(vectors=vectors, n=8, k=5, r0=2, master_seed=0)

    def test_non_finite_measurement_fixture_rejected(self, tmp_path):
        cfg, ens = self._ensemble()
        z = generate_binary_signal(GaussianSource(77), 8, 2)
        path = tmp_path / "meas.bin"
        dump_measurements(measure(ens, z, 0.1, "experiment", 77), path)
        _overwrite_entry(path, 7, math.nan)
        with pytest.raises(ValueError, match="finite"):
            load_measurements(path)

    @pytest.mark.parametrize("entry", [0, 5 * 8 + 3, 4 * 5 * 8 - 1])
    def test_non_finite_ensemble_entry_rejected(self, tmp_path, entry):
        _, ens = self._ensemble()
        path = tmp_path / "ens.bin"
        dump_ensemble(ens, path)
        _overwrite_entry(path, entry, math.inf)
        with pytest.raises(ValueError, match="non-finite"):
            load_ensemble(path)


def _overwrite_entry(path, index, value):
    """Replace payload entry ``index`` of a fixture file in place."""
    with open(path, "r+b") as fh:
        fh.seek(36 + 8 * index)
        fh.write(np.array([value], dtype="<f8").tobytes())
