import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import randcs.sensing as sensing
from randcs.numerics import GaussianSource, matvec, sample_gaussian_matrix
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
        # more rounds than sampling threads: each matrix is still the
        # sequential draw from stream r + 1, whatever thread sampled it
        cfg = RecoveryConfig(n=16, s=2, k=8, r0=3, master_seed=99)
        ens = build_ensemble(cfg)
        view = LazyMatrices(99, 6, 8, 16)
        for r in range(6):
            assert np.array_equal(ens.matrices[r], view[r])
            expected = sample_gaussian_matrix(GaussianSource(99).stream(r + 1), 8, 16, 1 / 8)
            assert np.array_equal(ens.matrices[r], expected)

    def test_lazy_matches_eager(self):
        cfg = RecoveryConfig(n=16, s=2, k=8, r0=3, master_seed=99)
        eager = build_ensemble(cfg)
        lazy = build_ensemble(cfg, lazy=True)
        assert len(lazy.matrices) == 6
        assert all(np.array_equal(lazy.matrices[r], eager.matrices[r]) for r in range(6))

    def test_lazy_index_errors(self):
        view = LazyMatrices(1, 4, 2, 3)
        with pytest.raises(IndexError):
            view[4]
        assert np.array_equal(view[-1], view[3])

    def test_regenerate_into_bit_identical(self):
        view = LazyMatrices(99, 6, 8, 16)
        scratch = np.empty((16, 8))
        for r in range(6):
            got = view.regenerate_into(r, scratch)
            assert np.array_equal(got, view[r])

    def test_regenerate_into_validates(self):
        view = LazyMatrices(99, 6, 8, 16)
        with pytest.raises(IndexError):
            view.regenerate_into(6, np.empty((16, 8)))
        with pytest.raises(ValueError):
            view.regenerate_into(0, np.empty((8, 16)))

    def test_concurrent_builds_share_one_pool(self, monkeypatch):
        # more callers than cores, rapid thread switching, first use racing
        # the pool's creation: one pool of cpu_count threads, same values
        cfg = RecoveryConfig(n=40, s=2, k=24, r0=4, master_seed=31)
        alone = build_ensemble(cfg)
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
                builds = list(callers.map(lambda _: build_ensemble(cfg), range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
            for pool, _ in created:
                pool.shutdown()
        assert len(created) == 1
        assert created[0][1]["max_workers"] == os.cpu_count()
        for ens in builds:
            assert all(np.array_equal(a, b) for a, b in zip(ens.matrices, alone.matrices))

    def test_regenerate_many_bit_identical(self):
        view = LazyMatrices(99, 6, 8, 16)
        scratch = np.empty((4, 16, 8))
        got = view.regenerate_many([5, 0, 3], scratch)
        assert [np.array_equal(g, view[r]) for g, r in zip(got, [5, 0, 3])] == [True] * 3

    def test_regenerate_many_validates(self):
        view = LazyMatrices(99, 6, 8, 16)
        with pytest.raises(ValueError):
            view.regenerate_many([0, 1], np.empty((1, 16, 8)))
        with pytest.raises(ValueError):
            view.regenerate_many([0], np.empty((1, 8, 16)))
        with pytest.raises(IndexError):
            view.regenerate_many([0, 6], np.empty((2, 16, 8)))

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
            assert np.array_equal(meas.vectors[r], matvec(ens.matrices[r], z.values))

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
        ens = build_ensemble(cfg, lazy=True)
        meas = measure(ens, np.zeros(5), 0.4, "theory", 3)
        pooled = meas.vectors.ravel()
        assert pooled.size >= 10**5
        assert abs(pooled.var() - 0.16) < 0.05 * 0.16

    def test_experiment_mode_noise_variance(self):
        cfg = RecoveryConfig(n=5, s=1, k=100, r0=600, master_seed=3)
        ens = build_ensemble(cfg, lazy=True)
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
        ens = build_ensemble(cfg, lazy=True)
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
        ens = build_ensemble(cfg, lazy=True)
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
