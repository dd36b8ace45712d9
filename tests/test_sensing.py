import dataclasses
import inspect
import math
import os
import re
import struct
import sys
import threading
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randcs.sensing as sensing
from randcs.baselines import biht, omp, sign_quantize
from randcs.harness import ExperimentGrid, run_trial
from randcs.numerics import GaussianSource, derive_seed, sample_gaussian_matrix
from randcs.recovery import back_project, recover_suppressed
from randcs.sensing import (
    NOISE_MODES,
    LazyMatrices,
    MeasurementEnsemble,
    RecoveryConfig,
    SensingEnsemble,
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
        sig = np.asarray([0.0, 2.5, 0.0, -1.0], dtype=float)
        assert frozenset(np.flatnonzero(sig)) == {1, 3}
        assert np.count_nonzero(sig) == 2


class TestGenerateBinarySignal:
    def test_full_sparsity_forces_all_ones(self):
        sig = generate_binary_signal(GaussianSource(3), 5, 5)
        assert np.array_equal(sig, np.ones(5))

    def test_values_are_binary_with_exact_sparsity(self):
        sig = generate_binary_signal(GaussianSource(3), 100, 17)
        assert set(np.unique(sig)) <= {0.0, 1.0}
        assert np.count_nonzero(sig) == 17
        assert sig.sum() == 17

    def test_large_instance_sparsity_exact(self):
        sig = generate_binary_signal(GaussianSource(3), 8000, 640)
        assert np.count_nonzero(sig) == 640

    @pytest.mark.parametrize("s", [0, 6])
    def test_invalid_sparsity_rejected(self, s):
        with pytest.raises(ValueError):
            generate_binary_signal(GaussianSource(3), 5, s)

    def test_single_one_uniform_over_indices(self):
        # n=5, s=1 over 1e4 seeds: each index frequency 0.2 +/- 0.02
        counts = np.zeros(5)
        for seed in range(10_000):
            sig = generate_binary_signal(seed, 5, 1)
            counts[next(iter(frozenset(np.flatnonzero(sig))))] += 1
        freqs = counts / 10_000
        assert np.all(np.abs(freqs - 0.2) < 0.02)

    def test_int_seed_equals_signal_stream(self):
        a = generate_binary_signal(7, 50, 5)
        b = generate_binary_signal(GaussianSource(7).stream(0), 50, 5)
        assert frozenset(np.flatnonzero(a)) == frozenset(np.flatnonzero(b))

    @pytest.mark.parametrize("n, s, message", [
        (40.0, 2, r"n must be an integer, got 40\.0"),
        (40, 3.0, r"s must be an integer, got 3\.0"),
        (40, 2.5, r"s must be an integer, got 2\.5"),
    ], ids=["n=40.0", "s=3.0", "s=2.5"])
    def test_non_integral_sizes_rejected(self, n, s, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            generate_binary_signal(7, n, s)

    def test_numpy_integer_sizes_agree(self):
        plain = generate_binary_signal(7, 40, 2).tobytes()
        assert generate_binary_signal(7, np.int32(40), np.uint64(2)).tobytes() == plain
        assert generate_binary_signal(7, np.uint64(40), np.int32(2)).tobytes() == plain


class TestRecoveryConfig:
    def test_benchmark_cell_defaults(self):
        cfg = RecoveryConfig(n=2000, s=20)
        assert cfg.k == 305 == default_measurement_count(2000, 20)
        assert cfg.r0 == 8 == default_round_count(2000)

    def test_theory_round_count(self):
        assert theory_round_count(2000) == math.ceil(1080 * math.log(2000))

    def test_noise_variance_by_mode(self):
        theory = RecoveryConfig(n=100, s=2, k=50, sigma_w=0.3, noise_mode="theory")
        variance = sensing._noise_sd(theory.sigma_w, theory.noise_mode, theory.k) ** 2
        assert variance == pytest.approx(0.09)
        exp = RecoveryConfig(n=100, s=2, k=50, sigma_w=0.3, noise_mode="experiment")
        variance = sensing._noise_sd(exp.sigma_w, exp.noise_mode, exp.k) ** 2
        assert variance == pytest.approx(0.09 / 50)

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

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(n=40.0, s=2), "n"),
            (dict(n=40, s=2.0), "s"),
            (dict(n=40, s=2, k=8.5), "k"),
            (dict(n=40, s=2, k=8.0), "k"),
            (dict(n=40, s=2, r0=3.5), "r0"),
            (dict(n=40, s=2, r0="3"), "r0"),
        ],
    )
    def test_non_integral_sizes_rejected(self, kwargs, name):
        # k=8.5 used to pass here and fail later inside measure
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            RecoveryConfig(**kwargs)

    @pytest.mark.parametrize("seed", [1.5, 3.0, "3"], ids=repr)
    def test_non_integral_seed_rejected(self, seed):
        with pytest.raises(ValueError, match=r"^master_seed must be an integer"):
            RecoveryConfig(n=40, s=2, master_seed=seed)

    def test_numpy_integer_sizes_kept_as_python_ints(self):
        cfg = RecoveryConfig(n=np.int64(40), s=np.int32(2), k=np.uint16(9), r0=np.int64(3))
        assert [type(v) for v in (cfg.n, cfg.s, cfg.k, cfg.r0)] == [int] * 4
        assert cfg == RecoveryConfig(n=40, s=2, k=9, r0=3)


class TestNumpyIntegerSeeds:
    """Seeds and stream indices of any integer type give the Python int's results."""

    @pytest.mark.parametrize("seed", [np.int64(7), np.int32(-3), np.uint64(2**64 - 5)], ids=repr)
    def test_same_results_as_the_python_int(self, seed, tmp_path):
        # np.int64 & (2**64 - 1) overflowed, and a numpy seed was no signal seed
        plain = int(seed)
        assert GaussianSource(seed) == GaussianSource(plain)
        assert GaussianSource(1, seed) == GaussianSource(1, plain)
        assert all(type(v) is int for v in (GaussianSource(seed).master_seed,
                                             GaussianSource(1, seed).stream_index))
        assert derive_seed(seed, 1) == derive_seed(plain, 1)
        assert derive_seed(1, seed) == derive_seed(1, plain)
        signal = generate_binary_signal(plain, 40, 2)
        assert np.array_equal(generate_binary_signal(seed, 40, 2), signal)
        cfg = RecoveryConfig(n=40, s=2, master_seed=seed)
        assert cfg == RecoveryConfig(n=40, s=2, master_seed=plain)
        assert type(cfg.master_seed) is int

        grids = [ExperimentGrid(n_values=(128,), sparsity_fractions=(0.02,), trials=1,
                                master_seed=value) for value in (seed, plain)]
        rows = [[(r.method, r.seed, r.pred_size, r.inter_size) for r in run_trial(g, 128, 3, 0)]
                for g in grids]
        assert rows[0] == rows[1]

        ens = build_ensemble(RecoveryConfig(n=40, s=2, k=9, r0=2, master_seed=5))
        meas = [measure(ens, signal, 0.1, "experiment", value) for value in (seed, plain)]
        assert np.array_equal(meas[0].vectors, meas[1].vectors)

        files = []
        for value in (seed, plain):
            built = SensingEnsemble(n=40, k=9, r0=2, master_seed=value,
                                    matrices=tuple(ens.matrices))
            files.append(tmp_path / f"ens-{value!r}.bin")
            dump_ensemble(built, files[-1])
            files.append(tmp_path / f"meas-{value!r}.bin")
            dump_measurements(MeasurementEnsemble(meas[1].vectors, 40, 9, 2, value), files[-1])
        assert files[0].read_bytes() == files[2].read_bytes()
        assert files[1].read_bytes() == files[3].read_bytes()

    @pytest.mark.parametrize("index", [np.int64(1), np.int32(-1), np.uint64(1), -1], ids=repr)
    def test_matrix_index(self, index, tmp_path):
        # every form answers an integer round of any type with the seeded bytes
        ens = build_ensemble(RecoveryConfig(n=40, s=2, k=9, r0=2, master_seed=5))
        for name, form in _forms(ens, tmp_path).items():
            assert form.matrices[index].tobytes() == ens.matrices[int(index)].tobytes(), name


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

    @pytest.mark.parametrize("index, message", [
        (1.0, r"round must be an integer, got 1\.0"),
        (slice(1, 3), r"round must be an integer, got slice\(1, 3, None\)"),
    ], ids=["1.0", "slice"])
    def test_non_integral_round_rejected(self, index, message, tmp_path):
        # the seeded form and every stored one go through the one integer rule
        ens = build_ensemble(RecoveryConfig(n=16, s=2, k=8, r0=3, master_seed=99))
        for form in _forms(ens, tmp_path).values():
            with pytest.raises(ValueError, match=f"^{message}$"):
                form.matrices[index]

    @pytest.mark.parametrize("index, shown", [(4, 4), (-5, -1), (np.uint64(4), 4)], ids=repr)
    def test_round_out_of_range_rejected(self, index, shown, tmp_path):
        # a negative round is reported after it counts from the end
        ens = build_ensemble(RecoveryConfig(n=16, s=2, k=8, r0=2, master_seed=99))
        message = f"^round index {shown} out of range for 4 rounds$"
        for form in _forms(ens, tmp_path).values():
            with pytest.raises(IndexError, match=message):
                form.matrices[index]

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

    def test_concurrent_callers_leave_no_sampling_thread(self):
        # more callers than cores, with rapid thread switching: each pass
        # makes and joins its own lanes, so every caller gets the bytes of a
        # lone call and no sampling thread outlives the passes
        cfg = RecoveryConfig(n=40, s=2, k=24, r0=4, master_seed=31)
        ens = build_ensemble(cfg)
        z = generate_binary_signal(31, 40, 2)
        alone = measure(ens, z, 0.1, "experiment", 31)
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
        assert _sampling_threads() == []
        kept = back_project(ens, alone, range(4)).tobytes()
        for meas in runs:
            assert meas.vectors.tobytes() == alone.vectors.tobytes()
            assert back_project(ens, meas, range(4)).tobytes() == kept

    def test_regenerate_many_bit_identical(self, tmp_path):
        # rounds requested out of order land in the order requested, for a
        # seeded ensemble and for the stored ones, whose stepped and
        # reversed rounds are one view of the stack
        cfg = RecoveryConfig(n=16, s=2, k=8, r0=3, master_seed=99)
        seeded = build_ensemble(cfg)
        built = SensingEnsemble(n=16, k=8, r0=3, master_seed=99, matrices=tuple(seeded.matrices))
        for ens in (seeded, _dumped(seeded, tmp_path), built):
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

    @pytest.mark.parametrize("seed, k, n, stack", [
        (3, 4, 16, None),
        (3, 8, 32, None),
        (4, 8, 16, None),
        (3, 4, 16, np.zeros((4, 16, 4))),
        (3, 8, 32, np.zeros((4, 32, 8))),
    ], ids=["k", "n", "seed", "stored k", "stored n"])
    def test_mismatched_matrices_rejected(self, seed, k, n, stack):
        # matrices of another shape, or seeded from another seed, would be
        # measured as if they were the ensemble's
        matrices = LazyMatrices(seed, 4, k, n, stack)
        with pytest.raises(ValueError, match=r"^matrices of k=\d+, n=\d+, seed \d+ do not fit "
                                             r"an ensemble of k=8, n=16, seed 3$"):
            SensingEnsemble(n=16, k=8, r0=2, master_seed=3, matrices=matrices)

    def test_matching_matrices_accepted(self, tmp_path):
        # a seed is compared as the 64-bit word the streams take, and a
        # stored ensemble's seed labels its header alone
        ens = SensingEnsemble(n=16, k=8, r0=2, master_seed=np.uint64(2**64 - 1),
                              matrices=LazyMatrices(-1, 4, 8, 16))
        stored = _dumped(ens, tmp_path)
        relabelled = dataclasses.replace(stored, master_seed=5)
        assert relabelled.matrices is stored.matrices
        dump_ensemble(relabelled, tmp_path / "relabelled.bin")
        assert load_ensemble(tmp_path / "relabelled.bin").master_seed == 5
        for r in range(4):
            assert relabelled.matrices[r].tobytes() == ens.matrices[r].tobytes()

    def test_stack_of_another_shape_rejected(self):
        # a (2*r0, k, n) stack of matrices is not a stack of sampling buffers
        message = r"^expected a \(4, 16, 8\) stack, got shape \(4, 8, 16\)$"
        with pytest.raises(ValueError, match=message):
            LazyMatrices(3, 4, 8, 16, np.zeros((4, 8, 16)))

    def test_wrong_matrix_count_rejected(self):
        with pytest.raises(ValueError):
            SensingEnsemble(n=4, k=2, r0=2, master_seed=0, matrices=(np.zeros((2, 4)),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_stored_matrix_rejected(self, bad):
        # the entry sits in a column no binary signal below would reach:
        # a support sum would skip it, so construction must refuse it
        matrices = [np.ones((2, 4)) for _ in range(4)]
        matrices[3][1, 2] = bad
        with pytest.raises(ValueError, match="matrix 3 has a non-finite entry"):
            SensingEnsemble(n=4, k=2, r0=2, master_seed=0, matrices=tuple(matrices))

    def test_finite_matrix_with_overflowing_sum_accepted(self):
        # every entry is finite, but the sum the check takes first overflows
        matrices = [np.ones((2, 4)) for _ in range(4)]
        matrices[3][:, 1:] = [[1e308, -1e308, 1e308], [1e308, -1e308, 1e308]]
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(matrices[3].sum())
        ens = SensingEnsemble(n=4, k=2, r0=2, master_seed=0, matrices=tuple(matrices))
        assert ens.matrices[3][0, 1] == 1e308


# each record that takes sizes, built from keyword sizes with the others at a fitting default
_SIZED = {
    "seeded": lambda n=16, k=8, r0=2: SensingEnsemble(n=n, k=k, r0=r0, master_seed=3,
                                                      matrices=LazyMatrices(3, 4, 8, 16)),
    "stored": lambda n=16, k=8, r0=2: SensingEnsemble(n=n, k=k, r0=r0, master_seed=3,
                                                      matrices=(np.ones((8, 16)),) * 4),
    "measurements": lambda n=16, k=8, r0=2: MeasurementEnsemble(np.ones((4, 8)), n, k, r0, 3),
    "matrices": lambda count=4, k=8, n=16: LazyMatrices(3, count, k, n),
}
_SIZES = [(record, size.name, size.default) for record, make in _SIZED.items()
          for size in inspect.signature(make).parameters.values()]


# a 6 x 10 matrix, a finite measurement through it and its signs, for the solvers' checks
_A = sample_gaussian_matrix(GaussianSource(5), 6, 10, 1 / 6)
_B = _A[:, 0] + _A[:, 3]
_SIGNS = np.where(_B > 0, 1.0, -1.0)

# every other bounded integer: (site, call taking the value, name, lo, hi or None)
_BOUNDED = [
    ("RecoveryConfig", lambda v: RecoveryConfig(n=10, s=v), "s", 1, 10),
    ("RecoveryConfig", lambda v: RecoveryConfig(n=10, s=2, k=v), "k", 1, None),
    ("RecoveryConfig", lambda v: RecoveryConfig(n=10, s=2, r0=v), "r0", 1, None),
    ("generate_binary_signal", lambda v: generate_binary_signal(3, 10, v), "s", 1, 10),
    ("sample_gaussian_matrix", lambda v: sample_gaussian_matrix(GaussianSource(7), v, 4, 1.0),
     "k", 1, None),
    ("sample_gaussian_matrix", lambda v: sample_gaussian_matrix(GaussianSource(7), 4, v, 1.0),
     "n", 1, None),
    *(("ExperimentGrid", lambda v, name=name: ExperimentGrid((64,), (0.05,), **{name: v}),
       name, 1, None) for name in ("trials", "workers", "biht_max_iters")),
    ("omp", lambda v: omp(_A, _B, v), "s_budget", 0, 6),
    ("biht", lambda v: biht(_A, _SIGNS, v, max_iters=2), "s_budget", 0, 10),
    ("biht", lambda v: biht(_A, _SIGNS, 2, max_iters=v), "max_iters", 1, None),
]
_CAPPED = [bounded for bounded in _BOUNDED if bounded[4] is not None]


def _ids(sites):
    return [f"{site}:{name}" for site, _, name, *_ in sites]


def _bounds_message(name, lo, hi, value):
    bounds = f"{name} >= {lo}" if hi is None else f"{lo} <= {name} <= {hi}"
    return f"^need {bounds}, got {name}={value}$"


def _with_entry(array, bad):
    """A copy of ``array`` with its last entry set to ``bad``."""
    out = np.array(array, dtype=np.float64)
    out.flat[-1] = bad
    return out


# every array checked for finiteness: (site, call taking the bad entry, what the message names)
_FINITE = [
    ("stored stack", lambda bad: LazyMatrices(3, 4, 8, 16, _with_entry(np.ones((4, 16, 8)), bad)),
     "sensing matrix 3"),
    ("MeasurementEnsemble", lambda bad: MeasurementEnsemble(_with_entry(np.ones((4, 8)), bad),
                                                            16, 8, 2, 3), "measurement array"),
    ("measure", lambda bad: measure(build_ensemble(RecoveryConfig(n=10, s=2, k=6, r0=2)),
                                    _with_entry(np.ones(10), bad), 0.1, "theory", 1), "signal"),
    ("sign_quantize", lambda bad: sign_quantize(_A, _with_entry(np.ones(10), bad)), "signal"),
    ("sign_quantize", lambda bad: sign_quantize(_with_entry(_A, bad), np.ones(10)),
     "sensing matrix"),
    ("omp", lambda bad: omp(_A, _with_entry(_B, bad), 2), "measurement vector"),
    ("biht", lambda bad: biht(_A, _with_entry(_SIGNS, bad), 2), "sign vector"),
    ("biht", lambda bad: biht(_with_entry(_A, bad), _SIGNS, 2), "sensing matrix"),
]


class TestSizes:
    """Every size, count and budget follows the integer rule and its bounds, and every array
    the finiteness test, each with the shared message.

    n, k and r0 of both ensembles and count, k and n of LazyMatrices are
    sizes of at least 1; the other bounded integers are listed in ``_BOUNDED``.
    """

    @pytest.mark.parametrize("site, call, name, lo, hi", _BOUNDED, ids=_ids(_BOUNDED))
    def test_value_below_lo_rejected(self, site, call, name, lo, hi):
        with pytest.raises(ValueError, match=_bounds_message(name, lo, hi, lo - 1)):
            call(lo - 1)

    @pytest.mark.parametrize("site, call, name, lo, hi", _CAPPED, ids=_ids(_CAPPED))
    def test_value_above_hi_rejected(self, site, call, name, lo, hi):
        with pytest.raises(ValueError, match=_bounds_message(name, lo, hi, hi + 1)):
            call(hi + 1)

    @pytest.mark.parametrize("site, call, name, lo, hi", _BOUNDED, ids=_ids(_BOUNDED))
    def test_values_at_the_bounds_accepted(self, site, call, name, lo, hi):
        call(lo)
        if hi is not None:
            call(hi)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("site, call, what", _FINITE, ids=_ids(_FINITE))
    def test_non_finite_entry_rejected(self, site, call, what, bad):
        with pytest.raises(ValueError, match=f"^{what} has a non-finite entry$"):
            call(bad)

    @pytest.mark.parametrize("record, name, value", [
        *((record, name, float(default)) for record, name, default in _SIZES),
        ("measurements", "n", 16.5), ("seeded", "k", "8"),
    ], ids=repr)
    def test_non_integral_size_rejected(self, record, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            _SIZED[record](**{name: value})

    @pytest.mark.parametrize("record, name, value", [
        *((record, name, 0) for record, name, _ in _SIZES),
        ("stored", "n", -16), ("measurements", "r0", np.int64(-1)),
    ], ids=repr)
    def test_size_below_one_rejected(self, record, name, value):
        with pytest.raises(ValueError, match=rf"^need {name} >= 1, got {name}={value}$"):
            _SIZED[record](**{name: value})

    @pytest.mark.parametrize("record", _SIZED)
    def test_numpy_integer_sizes_kept_as_python_ints(self, record):
        sizes = {name: default for at, name, default in _SIZES if at == record}
        got = _SIZED[record](**{name: kind(value) for (name, value), kind
                                in zip(sizes.items(), (np.int64, np.uint8, np.int32))})
        # LazyMatrices keeps its sizes private
        kept = {name: getattr(got, name if record != "matrices" else f"_{name}") for name in sizes}
        assert kept == sizes and all(type(value) is int for value in kept.values())

    def test_zero_round_ensembles_refused(self):
        # an r0 = 0 ensemble was accepted, and recover_basic then raised IndexError
        with pytest.raises(ValueError, match=r"^need r0 >= 1, got r0=0$"):
            SensingEnsemble(n=16, k=8, r0=0, master_seed=3, matrices=())
        with pytest.raises(ValueError, match=r"^need r0 >= 1, got r0=0$"):
            MeasurementEnsemble(np.ones((0, 8)), 16, 8, 0, 3)


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
            assert np.array_equal(meas.vectors[r], ens.matrices[r] @ z)

    def test_noiseless_is_linear_in_signal(self):
        cfg = RecoveryConfig(n=6, s=2, k=4, r0=2, master_seed=1)
        ens = build_ensemble(cfg)
        z = np.array([0.0, 1.5, 0.0, -2.0, 0.0, 3.0])
        one = measure(ens, z, 0.0, "experiment", 1)
        three = measure(ens, 3.0 * z, 0.0, "experiment", 1)
        assert np.allclose(three.vectors, 3.0 * one.vectors, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("sigma_w", [0.0, 0.1])
    def test_non_integral_noise_seed_rejected(self, sigma_w):
        ens = build_ensemble(RecoveryConfig(n=40, s=2, k=9, r0=2, master_seed=5))
        with pytest.raises(ValueError, match=r"^noise_seed must be an integer, got 1\.5$"):
            measure(ens, generate_binary_signal(5, 40, 2), sigma_w, "theory", 1.5)

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
    """The ensemble written to an RCS2 file by dump_ensemble and read back."""
    path = directory / "ens.bin"
    dump_ensemble(ens, path)
    return load_ensemble(path)


def _forms(seeded, directory):
    """The seeded ensemble and each of its stored forms, by name.

    The stored forms are read back from an RCS2 file, built from a tuple
    and from a (2*r0, k, n) array of the matrices, and the RCS2 one
    relabelled with another seed by ``dataclasses.replace``.
    """
    rcs2 = _dumped(seeded, directory)
    shape = dict(n=seeded.n, k=seeded.k, r0=seeded.r0, master_seed=seeded.master_seed)
    return {
        "seeded": seeded,
        "RCS2": rcs2,
        "tuple": SensingEnsemble(**shape, matrices=tuple(seeded.matrices)),
        "array": SensingEnsemble(**shape, matrices=np.stack(list(seeded.matrices))),
        "relabelled": dataclasses.replace(rcs2, master_seed=seeded.master_seed + 1),
    }


def _unkept(meas):
    """The same measurements without the back-projections measure() kept."""
    return MeasurementEnsemble(
        vectors=meas.vectors, n=meas.n, k=meas.k, r0=meas.r0, master_seed=meas.master_seed
    )


def _support_sum(A, z):
    """A z by its definition: z_i * A[:, i] added in ascending i over the nonzero z_i."""
    out = np.zeros(A.shape[0])
    for i in np.flatnonzero(z):
        out += z[i] * A[:, i]
    return out


def _sampling_threads():
    """Names of the live threads a seeded pass makes."""
    return [t.name for t in threading.enumerate() if t.name.startswith("randcs-sampling")]


class _LaneBuffers:
    """Bytes of lane buffers alive, now and at most: tracemalloc does not see their mappings."""

    def __init__(self, monkeypatch):
        self._lock = threading.Lock()
        self.live = self.peak = 0
        real = sensing._lane_buffer

        def counted(n, k):
            buf = real(n, k)
            # every view of the buffer keeps this owner, and it keeps the mapping
            owner = buf
            while isinstance(owner.base, np.ndarray):
                owner = owner.base
            with self._lock:
                self.live += buf.nbytes
                self.peak = max(self.peak, self.live)
            weakref.finalize(owner, self._freed, buf.nbytes)
            return buf

        monkeypatch.setattr(sensing, "_lane_buffer", counted)

    def _freed(self, nbytes):
        with self._lock:
            self.live -= nbytes


class TestPass:
    """One pass over the rounds: measure, back-project and dump share it."""

    @staticmethod
    def _seeded_against_stored(tmp_path, blas_threads, n, s, k, seed, threads=1):
        # each form -- seeded, RCS2 and a hand-built tuple -- against
        # its own rounds replayed by definition, bit for bit, and the forms
        # against each other byte for byte: the measurement vectors, since
        # A z is the support sum in one fixed order, and the kept and unkept
        # back-projections and suppressed values, since every stored form is
        # the same column-major stack and BLAS, at one thread, multiplies it
        # with the seeded pass's kernel; at more threads the stored forms
        # still agree with each other and with their per-round products
        r0 = 4
        seeded = build_ensemble(RecoveryConfig(n=n, s=s, k=k, r0=r0, master_seed=seed))
        built = SensingEnsemble(n=n, k=k, r0=r0, master_seed=seed, matrices=tuple(seeded.matrices))
        forms = (seeded, _dumped(seeded, tmp_path), built)
        z = generate_binary_signal(seed, n, s)
        results = []
        for ens in forms:
            # a seeded pass holds BLAS at one thread, so its products are replayed there
            blas_threads(1 if ens is seeded else threads)
            meas = measure(ens, z, 0.1, "experiment", seed)
            projected = back_project(ens, _unkept(meas), range(2 * r0))
            for r in range(2 * r0):
                A = sample_gaussian_matrix(GaussianSource(seed).stream(r + 1), k, n, 1 / k)
                assert np.array_equal(ens.matrices[r], A)
                A = ens.matrices[r]
                noise = GaussianSource(seed).stream(2 * r0 + r + 1).generator().standard_normal(k)
                expected = _support_sum(A, z) + 0.1 / math.sqrt(k) * noise
                assert np.array_equal(meas.vectors[r], expected)
                assert np.array_equal(projected[r], A.T @ meas.vectors[r])
            kept = back_project(ens, meas, range(r0))
            assert np.array_equal(kept, projected[:r0])
            values = recover_suppressed(ens, meas).values
            unkept_values = recover_suppressed(ens, _unkept(meas)).values
            assert np.array_equal(values, unkept_values)
            results.append((meas.vectors, kept, projected, values, unkept_values))
        assert all(vectors.tobytes() == results[0][0].tobytes() for vectors, *_ in results)
        for same in zip(*(results if threads == 1 else results[1:])):
            assert all(a.tobytes() == same[0].tobytes() for a in same)

    def test_seeded_and_stored_ensembles(self, tmp_path, blas_threads):
        self._seeded_against_stored(tmp_path, blas_threads, n=40, s=3, k=24, seed=61)

    def test_seeded_and_stored_ensembles_at_uneven_blas_split(self, tmp_path, blas_threads):
        # at n=2002 OpenBLAS splits A^T b unevenly over two threads; at one
        # thread a stored and a seeded ensemble still agree byte for byte
        self._seeded_against_stored(tmp_path, blas_threads, n=2002, s=20, k=305, seed=41)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n, s, k", [(4001, 20, 160), (700, 5, 1)])
    def test_seeded_and_stored_ensembles_at_blas_threads(
        self, tmp_path, blas_threads, n, s, k, threads
    ):
        # another uneven split, and a single measurement per round, whose
        # batched back-projection multiplies by a 1-vector
        self._seeded_against_stored(tmp_path, blas_threads, n=n, s=s, k=k, seed=n, threads=threads)

    def test_blas_threads_held_at_one_and_restored(self, monkeypatch, blas_threads):
        get = sensing._openblas_threads()[0]
        before = get()
        cfg = RecoveryConfig(n=40, s=2, k=24, r0=4, master_seed=5)
        ens = build_ensemble(cfg)
        z = generate_binary_signal(5, 40, 2)
        seen = []
        real_sampled = sensing._sampled

        def recording_sampled(matrices, r, cols):
            seen.append(get())
            return real_sampled(matrices, r, cols)

        monkeypatch.setattr(sensing, "_sampled", recording_sampled)
        measure(ens, z, 0.1, "experiment", 5)
        assert seen == [1] * 8
        assert get() == before

        def failing_sampled(matrices, r, cols):
            if r == 2:
                raise RuntimeError("synthetic sampling failure")
            return real_sampled(matrices, r, cols)

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

    def test_stored_ensemble_runs_on_the_callers_thread(self, monkeypatch, tmp_path):
        # a stored ensemble's rounds never reach the sampling pool or the
        # BLAS pin, and give the seeded pass's values; n and k are too small
        # for OpenBLAS to thread a product, so no thread count moves a bit
        seeded = build_ensemble(RecoveryConfig(n=40, s=3, k=24, r0=4, master_seed=71))
        z = generate_binary_signal(71, 40, 3)
        rounds = range(7, -1, -3)
        meas = measure(seeded, z, 0.1, "experiment", 71)
        expected = (meas.vectors, back_project(seeded, meas, range(4)),
                    back_project(seeded, _unkept(meas), rounds))
        dump_ensemble(seeded, tmp_path / "seeded.bin")
        built = SensingEnsemble(n=40, k=24, r0=4, master_seed=71, matrices=tuple(seeded.matrices))
        stored = (load_ensemble(tmp_path / "seeded.bin"), built)
        blas = sensing._openblas_threads()
        before = None if blas is None else blas[0]()

        def no_pool(*args, **kwargs):
            raise AssertionError("a stored pass made a sampling pool")

        def no_pin():
            raise AssertionError("a stored pass looked up the BLAS thread pin")

        monkeypatch.setattr(sensing, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(sensing, "_openblas_threads", no_pin)
        for ens in stored:
            meas = measure(ens, z, 0.1, "experiment", 71)
            got = (meas.vectors, back_project(ens, meas, range(4)),
                   back_project(ens, _unkept(meas), rounds))
            assert [g.tobytes() == e.tobytes() for g, e in zip(got, expected)] == [True] * 3
            dump_ensemble(ens, tmp_path / "stored.bin")
            assert (tmp_path / "stored.bin").read_bytes() == (tmp_path / "seeded.bin").read_bytes()
        assert blas is None or blas[0]() == before

    def test_seeded_values_independent_of_blas_threads(self, blas_threads):
        # at n=2002 OpenBLAS splits A^T b unevenly over two threads, which
        # changes some last bits; the pass holds it at one thread whatever
        # the caller set
        ens = build_ensemble(RecoveryConfig(n=2002, s=20, k=305, r0=4, master_seed=41))
        z = generate_binary_signal(41, 2002, 20)
        runs = []
        for threads in (1, 2):
            blas_threads(threads)
            meas = measure(ens, z, 0.1, "experiment", 41)
            kept = back_project(ens, meas, range(4))
            runs.append((kept, back_project(ens, _unkept(meas), range(8))))
        for at_one, at_two in zip(*runs):
            assert at_one.tobytes() == at_two.tobytes()

    @pytest.mark.parametrize("callers", [2, 3])
    def test_concurrent_passes_hold_one_buffer_per_core(self, monkeypatch, callers):
        # passes started together from several threads run one at a time,
        # so the process never holds more than one buffer per pool thread
        n, k = 1000, 1500
        buffers = _LaneBuffers(monkeypatch)
        ens = build_ensemble(RecoveryConfig(n=n, s=10, k=k, r0=6, master_seed=23))
        z = generate_binary_signal(23, n, 10)
        start = threading.Barrier(callers)

        def run(_):
            start.wait(timeout=60)
            return measure(ens, z, 0.1, "experiment", 23)

        tracemalloc.start()
        try:
            with ThreadPoolExecutor(max_workers=callers) as pool:
                assert len(list(pool.map(run, range(callers), timeout=60))) == callers
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak + buffers.peak < (os.cpu_count() + 1) * 8 * n * k

    def test_peak_memory_independent_of_round_count(self, monkeypatch):
        # one sampling thread, so each pass allocates one buffer and reuses
        # it for every round: the peak of a trial's sensing grows with the
        # rounds by far less than a matrix
        n, k = 300, 100
        monkeypatch.setattr(sensing.os, "cpu_count", lambda: 1)
        buffers = _LaneBuffers(monkeypatch)
        z = generate_binary_signal(3, n, 3)

        def peak(r0):
            buffers.peak = buffers.live
            tracemalloc.start()
            try:
                ens = build_ensemble(RecoveryConfig(n=n, s=3, k=k, r0=r0, master_seed=3))
                measure(ens, z, 0.1, "experiment", 3)
                return tracemalloc.get_traced_memory()[1] + buffers.peak
            finally:
                tracemalloc.stop()

        peak(2)
        small, large = peak(2), peak(12)
        assert abs(large - small) < 8 * n * k

    def test_no_buffer_outlives_the_pass(self, monkeypatch):
        # a shape no other test samples, so that every buffer of these
        # passes is allocated while tracing; after each pass returns, no
        # lane buffer is mapped and less than one matrix is still allocated
        n, k = 311, 97
        buffers = _LaneBuffers(monkeypatch)
        z = generate_binary_signal(9, n, 3)
        tracemalloc.start()
        try:
            ens = build_ensemble(RecoveryConfig(n=n, s=3, k=k, r0=4, master_seed=9))
            meas = measure(ens, z, 0.1, "experiment", 9)
            assert buffers.peak > 0 and buffers.live == 0
            assert tracemalloc.get_traced_memory()[0] < 8 * n * k
            back_project(ens, _unkept(meas), range(8))
            assert buffers.live == 0
            assert tracemalloc.get_traced_memory()[0] < 8 * n * k
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_no_sampling_thread_outlives_the_pass(self, monkeypatch, tmp_path, fails):
        # measure, back_project and dump_ensemble each make their own lanes,
        # three here, and join them before they return, or before they raise
        # the error of a lane's round
        monkeypatch.setattr(sensing.os, "cpu_count", lambda: 3)
        ens = build_ensemble(RecoveryConfig(n=30, s=2, k=12, r0=3, master_seed=43))
        z = generate_binary_signal(43, 30, 2)
        meas = _unkept(measure(ens, z, 0.1, "experiment", 43))
        names = set()
        real_sampled = sensing._sampled

        def recording_sampled(matrices, r, cols):
            names.add(threading.current_thread().name)
            if fails and r == 2:
                raise RuntimeError("synthetic lane failure")
            return real_sampled(matrices, r, cols)

        monkeypatch.setattr(sensing, "_sampled", recording_sampled)
        passes = (lambda: measure(ens, z, 0.1, "experiment", 43),
                  lambda: back_project(ens, meas, range(6)),
                  lambda: dump_ensemble(ens, tmp_path / "ens.bin"))
        for run in passes:
            names.clear()
            if fails:
                with pytest.raises(RuntimeError, match="synthetic lane failure"):
                    run()
            else:
                run()
            assert names and all(name.startswith("randcs-sampling") for name in names)
            assert _sampling_threads() == []

    def test_dump_copies_no_matrix(self, monkeypatch, tmp_path):
        # a round is written straight from its lane buffer, so beside the
        # lane buffers no matrix-sized copy is made
        n, k = 500, 401
        buffers = _LaneBuffers(monkeypatch)
        ens = build_ensemble(RecoveryConfig(n=n, s=3, k=k, r0=2, master_seed=41))
        tracemalloc.start()
        try:
            dump_ensemble(ens, tmp_path / "ens.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert buffers.peak >= 8 * n * k
        assert peak < 8 * n * k / 4
        stored = load_ensemble(tmp_path / "ens.bin")
        for r in range(4):
            assert np.array_equal(stored.matrices[r], ens.matrices[r])

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_streaming_measure_holds_a_buffer_per_two_threads(self, monkeypatch, threads):
        # on a pool of P threads, measure's full rounds run in ceil(P/2)
        # lanes of one buffer each and its noise-floor rounds hold no matrix
        n, k = 1000, 1500
        monkeypatch.setattr(sensing.os, "cpu_count", lambda: threads)
        buffers = _LaneBuffers(monkeypatch)
        ens = build_ensemble(RecoveryConfig(n=n, s=10, k=k, r0=6, master_seed=29))
        z = generate_binary_signal(29, n, 10)
        tracemalloc.start()
        try:
            measure(ens, z, 0.1, "experiment", 29)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak + buffers.peak < (math.ceil(threads / 2) + 1) * 8 * n * k

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_full_passes_run_on_every_pool_thread(self, monkeypatch, tmp_path, threads):
        # a dump and an unkept back-projection have no streamed round, so
        # all P pool threads sample at once: each sampling waits until P
        # rounds are being sampled together, or the barrier breaks
        monkeypatch.setattr(sensing.os, "cpu_count", lambda: threads)
        ens = build_ensemble(RecoveryConfig(n=30, s=2, k=12, r0=3, master_seed=37))
        meas = _unkept(measure(ens, generate_binary_signal(37, 30, 2), 0.1, "experiment", 37))
        together = threading.Barrier(threads)
        names = set()
        real_sampled = sensing._sampled

        def meeting_sampled(matrices, r, cols):
            names.add(threading.current_thread().name)
            together.wait(timeout=30)
            return real_sampled(matrices, r, cols)

        monkeypatch.setattr(sensing, "_sampled", meeting_sampled)
        dump_ensemble(ens, tmp_path / "ens.bin")
        assert len(names) == threads
        names.clear()
        projected = back_project(ens, meas, range(6))
        assert len(names) == threads
        stored = load_ensemble(tmp_path / "ens.bin")
        for r in range(6):
            assert np.array_equal(stored.matrices[r], ens.matrices[r])
            assert np.array_equal(projected[r], ens.matrices[r].T @ meas.vectors[r])

    def test_lanes_take_each_round_once_under_switching(self, monkeypatch):
        # more lanes than cores popping one shared queue of rounds, with
        # rapid thread switching: every round is sampled exactly once and
        # the values equal those of a single-thread pool
        cfg = RecoveryConfig(n=600, s=12, k=40, r0=8, master_seed=67)
        ens = build_ensemble(cfg)
        z = generate_binary_signal(67, 600, 12)
        runs = []
        for threads in (1, 5):
            monkeypatch.setattr(sensing.os, "cpu_count", lambda threads=threads: threads)
            calls = []
            real_sampled = sensing._sampled

            def recording_sampled(matrices, r, cols):
                calls.append(r)
                return real_sampled(matrices, r, cols)

            monkeypatch.setattr(sensing, "_sampled", recording_sampled)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                meas = measure(ens, z, 0.1, "experiment", 67)
                projected = back_project(ens, _unkept(meas), range(16))
            finally:
                sys.setswitchinterval(interval)
                monkeypatch.setattr(sensing, "_sampled", real_sampled)
            assert sorted(calls) == sorted(list(range(16)) + list(range(16)))
            runs.append((meas.vectors, back_project(ens, meas, range(8)), projected))
        for one, five in zip(*runs):
            assert one.tobytes() == five.tobytes()

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


class TestSignalProduct:
    """A z summed over supp(z)'s columns in ascending order, against the explicit loop."""

    @pytest.mark.parametrize("k", [1, 2, 3, 57])
    def test_equals_ascending_loop(self, k):
        # both layouts, supports of up to two blocks, entries spanning nine
        # decades so that any other order shows in the last bits
        rng = np.random.default_rng(k)
        for n in (1, 2, 9, 200, 300, 700, 1100):
            A = rng.standard_normal((k, n)) * 10.0 ** rng.integers(-4, 5, size=n)
            z = np.where(rng.random(n) < 0.5, rng.standard_normal(n), 0.0)
            for M in (A, np.asfortranarray(A)):
                got = sensing._signal_product(M, z)
                assert got.tobytes() == _support_sum(M, z).tobytes()

    @pytest.mark.parametrize("dtype, k", [(np.float32, 1), (np.float32, 57), (np.int64, 1)])
    def test_other_dtypes_summed_in_float64(self, dtype, k):
        # the ascending float64 loop over the upcast entries, for the product
        # and for the one-bit signs that quantize it
        rng = np.random.default_rng(k)
        for n in (1, 9, 300, 700):
            A = (rng.standard_normal((k, n)) * 10.0 ** rng.integers(-2, 5, size=n)).astype(dtype)
            z = np.where(rng.random(n) < 0.5, rng.standard_normal(n), 0.0)
            expected = _support_sum(A.astype(np.float64), z)
            assert sensing._signal_product(A, z).tobytes() == expected.tobytes()
            assert sign_quantize(A, z).tobytes() == np.where(expected > 0, 1.0, -1.0).tobytes()

    def test_float32_matrix_times_float64_signal(self):
        # z_i rounded to float32 would cancel to 0 and quantize to -1
        A = np.array([[1.0, -1.0]], dtype=np.float32)
        z = np.array([1.0 + 2.0**-30, 1.0])
        assert sensing._signal_product(A, z).tolist() == [2.0**-30]
        assert sign_quantize(A, z).tolist() == [1.0]

    def test_empty_support_gives_zeros(self):
        got = sensing._signal_product(np.ones((3, 5)), np.zeros(5))
        assert got.tobytes() == np.zeros(3).tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_measure_seeded_and_stored_at_blas_threads(self, tmp_path, blas_threads, threads):
        # k * n is far above the size at which OpenBLAS threads a product
        cfg = RecoveryConfig(n=2000, s=40, k=120, r0=2, master_seed=17)
        seeded = build_ensemble(cfg)
        stored = _dumped(seeded, tmp_path)
        z = np.zeros(2000)
        z[generate_binary_signal(17, 2000, 40) > 0] = np.linspace(-2.0, 3.0, 40)
        blas_threads(threads)
        for ens in (seeded, stored):
            meas = measure(ens, z, 0.0, "theory", 17)
            for r in range(4):
                assert np.array_equal(meas.vectors[r], _support_sum(ens.matrices[r], z))


class TestSumColumns:
    """The support sum over A's columns in any split into row blocks of its (n, k) buffer."""

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.sampled_from([1, 2, 5]),
        n=st.integers(1, 700),
        data=st.data(),
    )
    def test_any_block_split_equals_whole_matrix(self, k, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if data.draw(st.booleans(), label="even blocks"):
            size = data.draw(st.integers(1, n), label="block size")
            cuts = list(range(size, n, size))  # the last block may be short
        else:
            cuts = sorted(data.draw(st.sets(st.integers(1, max(1, n - 1))), label="cuts") - {n})
        edges = [0, *cuts, n]
        kind = data.draw(st.sampled_from(["edges", "random", "above-gather", "empty"]), label="kind")
        if kind == "edges":
            # the first and last column of every block
            support = sorted({i for c in edges for i in (c - 1, c) if 0 <= i < n})
        elif kind == "random":
            support = sorted(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
        elif kind == "above-gather":
            above = min(n, 256 + 1 + int(rng.integers(0, 300)))
            support = sorted(rng.choice(n, size=above, replace=False))
        else:
            support = []
        support = np.asarray(support, dtype=np.intp)
        z = np.zeros(n)
        z[support] = _spread_values(support, len(support))
        A = rng.standard_normal((k, n)) * 10.0 ** rng.integers(-4, 5, size=n)
        if data.draw(st.booleans(), label="column-major"):
            A = np.asfortranarray(A)
        taken = []

        def blocks():
            for lo, hi in zip(edges, edges[1:]):
                taken.append(lo)
                yield A.T[lo:hi]

        got = sensing._sum_columns(blocks(), z, support, k)
        whole = sensing._sum_columns((A.T,), z, support, k)
        assert got.tobytes() == whole.tobytes() == _support_sum(A, z).tobytes()
        # no block after the one that holds max(support), none for an empty support
        needed = 0 if support.size == 0 else int(np.searchsorted(edges, support[-1], "right"))
        assert len(taken) == needed

    @pytest.mark.parametrize("rounds", [1, 3, 16])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_stack_equals_each_round_summed_alone(self, rounds, k):
        # a (rounds, n, k) stack summed at once, with supports above 256
        # entries, ending on the edge of a gather or one past it, and empty
        n = 700
        rng = np.random.default_rng(10 * rounds + k)
        stack = rng.standard_normal((rounds, n, k)) * 10.0 ** rng.integers(-4, 5, size=(1, n, 1))
        step = 256 // rounds
        for size in (256 + 44, 2 * step, 2 * step + 1, 0):
            support = np.sort(rng.choice(n, size=size, replace=False))
            z = np.zeros(n)
            z[support] = _spread_values(support, size)
            got = np.broadcast_to(sensing._sum_columns((stack,), z, support, k), (rounds, k))
            expected = np.stack([_support_sum(buffer.T, z) for buffer in stack])
            assert got.tobytes() == expected.tobytes()

    def test_stack_gathers_within_the_block_rows(self):
        # all 16 rounds of a 600-entry support would gather 9600 rows at
        # once; each gather stays within 256 rows of k
        gathered = []

        class Recording(np.ndarray):
            def __getitem__(self, key):
                rows = np.asarray(super().__getitem__(key))
                gathered.append(rows.size // rows.shape[-1])
                return rows

        rounds, n, k = 16, 700, 3
        stack = np.random.default_rng(3).standard_normal((rounds, n, k))
        support = np.sort(np.random.default_rng(4).choice(n, size=600, replace=False))
        z = np.zeros(n)
        z[support] = 1.0
        got = sensing._sum_columns((stack.view(Recording),), z, support, k)
        assert got.tobytes() == sensing._sum_columns((stack,), z, support, k).tobytes()
        assert sum(gathered) == rounds * support.size
        assert max(gathered) <= 256


def _spread_values(support, seed):
    """Nonzero values over nine decades at ``support``, so any other summation order shows."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(len(support)) * 10.0 ** rng.integers(-4, 5, size=len(support))


_BLOCK = sensing._STREAM_BLOCK_ROWS
# supports in a signal of n=700, by what they exercise in a streamed round
_STREAMED_SUPPORTS = {
    "ends": [0, 3, 350, 699],
    "straddle": [_BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1],
    "first-column": [0],
    "above-product-block": sorted(
        np.random.default_rng(5).choice(700, size=256 + 44, replace=False)
    ),
    "empty": [],
}


class TestStreamedRounds:
    """measure's noise-floor rounds: A z from blocks of the stream, bit for bit."""

    N, K, R0 = 700, 30, 2

    def _signal(self, support):
        z = np.zeros(self.N)
        z[support] = _spread_values(support, len(support))
        return z

    @pytest.mark.parametrize("noise_mode", NOISE_MODES)
    @pytest.mark.parametrize("case", sorted(_STREAMED_SUPPORTS))
    def test_measure_equals_ascending_loop(self, tmp_path, case, noise_mode):
        # vectors against the explicit loop over ensemble.matrices[r], and
        # the kept back-projections against A^T b, for a seeded ensemble and
        # the same ensemble stored through RCS2; the vectors of the two agree
        z = self._signal(_STREAMED_SUPPORTS[case])
        seeded = build_ensemble(RecoveryConfig(n=self.N, s=1, k=self.K, r0=self.R0, master_seed=43))
        stored = _dumped(seeded, tmp_path)
        sd = 0.1 if noise_mode == "theory" else 0.1 / math.sqrt(self.K)
        runs = []
        for ens in (seeded, stored):
            meas = measure(ens, z, 0.1, noise_mode, 43)
            kept = back_project(ens, meas, range(self.R0))
            for r in range(2 * self.R0):
                A = ens.matrices[r]
                noise = GaussianSource(43).stream(2 * self.R0 + r + 1).generator()
                expected = _support_sum(A, z) + sd * noise.standard_normal(self.K)
                assert meas.vectors[r].tobytes() == expected.tobytes()
                if r < self.R0:
                    assert kept[r].tobytes() == (A.T @ meas.vectors[r]).tobytes()
            runs.append(meas.vectors)
        assert runs[0].tobytes() == runs[1].tobytes()

    @pytest.mark.parametrize("top", [0, 255, 256, 300, 699])
    def test_streamed_round_stops_after_the_block_of_max_support(self, monkeypatch, top):
        drawn = {}
        real_sampled = sensing._sampled

        def counting_sampled(matrices, r, cols):
            for rows in real_sampled(matrices, r, cols):
                drawn[r] = drawn.get(r, 0) + len(rows)
                yield rows

        monkeypatch.setattr(sensing, "_sampled", counting_sampled)
        ens = build_ensemble(RecoveryConfig(n=self.N, s=1, k=self.K, r0=self.R0, master_seed=47))
        measure(ens, self._signal([0, top] if top else [0]), 0.1, "experiment", 47)
        needed = min(self.N, (top // _BLOCK + 1) * _BLOCK)
        assert drawn == {0: self.N, 1: self.N, 2: needed, 3: needed}

    def test_empty_support_draws_no_noise_floor_round(self, monkeypatch):
        drawn = []
        real_sampled = sensing._sampled

        def recording_sampled(matrices, r, cols):
            drawn.append(r)
            return real_sampled(matrices, r, cols)

        monkeypatch.setattr(sensing, "_sampled", recording_sampled)
        ens = build_ensemble(RecoveryConfig(n=self.N, s=1, k=self.K, r0=self.R0, master_seed=53))
        meas = measure(ens, np.zeros(self.N), 0.1, "theory", 53)
        assert sorted(drawn) == [0, 1]
        for r in (2, 3):
            noise = GaussianSource(53).stream(2 * self.R0 + r + 1).generator()
            assert meas.vectors[r].tobytes() == (0.1 * noise.standard_normal(self.K)).tobytes()


def _fixed_test_signal(n=50, s=5):
    # deterministic +/-1 entries on the leading block
    values = np.zeros(n)
    values[:s] = np.where(np.arange(s) % 2 == 0, 1.0, -1.0)
    return np.asarray(values, dtype=float)


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

    def test_negative_seed_round_trip(self, tmp_path):
        # the configuration keeps the 64-bit seed that the streams and the header take
        cfg = RecoveryConfig(n=8, s=2, k=5, r0=2, master_seed=-1)
        assert cfg.master_seed == 2**64 - 1
        ens = build_ensemble(cfg)
        path = tmp_path / "ens.bin"
        dump_ensemble(ens, path)
        back = load_ensemble(path)
        assert back.master_seed == cfg.master_seed == ens.master_seed
        assert all(np.array_equal(a, b) for a, b in zip(back.matrices, ens.matrices))

    def test_measurements_round_trip(self, tmp_path):
        cfg, ens = self._ensemble()
        z = generate_binary_signal(GaussianSource(77), 8, 2)
        meas = measure(ens, z, 0.1, "experiment", 77)
        path = tmp_path / "meas.bin"
        dump_measurements(meas, path)
        back = load_measurements(path)
        assert np.array_equal(back.vectors, meas.vectors)

    def test_header_fields_little_endian(self, tmp_path):
        _, ens = self._ensemble()
        path = tmp_path / "ens.bin"
        dump_ensemble(ens, path)
        raw = path.read_bytes()
        assert raw[:4] == b"RCS2"
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

    @pytest.mark.parametrize("change, found", [("truncated", 159), ("over-long", 161)])
    def test_ensemble_payload_of_wrong_length_rejected(self, tmp_path, change, found):
        # a valid header over one float64 too few or too many
        _, ens = self._ensemble()
        path = tmp_path / "ens.bin"
        dump_ensemble(ens, path)
        _resize_payload(path, change)
        message = f"expected 160 matrix entries, found {8 * found} bytes$"
        with pytest.raises(ValueError, match=message):
            load_ensemble(path)

    @pytest.mark.parametrize("change, found", [("truncated", 19), ("over-long", 21)])
    def test_measurement_payload_of_wrong_length_rejected(self, tmp_path, change, found):
        _, ens = self._ensemble()
        z = generate_binary_signal(GaussianSource(77), 8, 2)
        path = tmp_path / "meas.bin"
        dump_measurements(measure(ens, z, 0.1, "experiment", 77), path)
        _resize_payload(path, change)
        message = f"expected 20 measurement entries, found {8 * found} bytes$"
        with pytest.raises(ValueError, match=message):
            load_measurements(path)

    @pytest.mark.parametrize("extra", [-8, 3, 2**23], ids=["truncated", "partial", "over-long"])
    @pytest.mark.parametrize("loader", [load_ensemble, load_measurements])
    def test_wrong_size_refused_before_the_payload_is_read(
        self, tmp_path, monkeypatch, loader, extra
    ):
        # the header alone settles the size, so np.fromfile is never called;
        # the over-long file is 8 MiB of holes past its payload
        _, ens = self._ensemble()
        path = tmp_path / "fixture.bin"
        if loader is load_ensemble:
            dump_ensemble(ens, path)
        else:
            z = generate_binary_signal(GaussianSource(77), 8, 2)
            dump_measurements(measure(ens, z, 0.1, "experiment", 77), path)
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(size + extra)

        def unread(*args, **kwargs):
            raise AssertionError("the payload was read")

        monkeypatch.setattr(np, "fromfile", unread)
        with pytest.raises(ValueError, match=f"entries, found {size - 36 + extra} bytes$"):
            loader(path)

    def test_ensemble_bytes_are_stacked_sampling_buffers(self, tmp_path):
        # buffer r is (n, k) with row i the column i of matrix r, as the
        # matrix's stream fills it
        _, ens = self._ensemble()
        path = tmp_path / "ens.bin"
        dump_ensemble(ens, path)
        buffers = [
            GaussianSource(77).stream(r + 1).generator().standard_normal((8, 5)) * np.sqrt(1 / 5)
            for r in range(4)
        ]
        assert path.read_bytes()[36:] == np.stack(buffers).astype("<f8").tobytes()
        assert all(np.array_equal(b.T, m) for b, m in zip(buffers, ens.matrices))

    def test_rcs1_ensemble_refused(self, tmp_path):
        # the retired ensemble layout, stacked (k, n) matrices under the
        # measurement magic: a payload of the right size, refused by its magic
        _, ens = self._ensemble()
        path = tmp_path / "ens.bin"
        header = struct.pack("<4sQQQQ", b"RCS1", ens.n, ens.k, ens.r0, ens.master_seed)
        path.write_bytes(header + np.stack(list(ens.matrices)).astype("<f8").tobytes())
        message = f"^{re.escape(str(path))}: bad magic b'RCS1', expected b'RCS2'$"
        with pytest.raises(ValueError, match=message):
            load_ensemble(path)

    def test_measurement_loader_rejects_an_ensemble_fixture(self, tmp_path):
        # an RCS2 header over a payload of exactly 2*r0*k entries: only the magic is wrong
        path = tmp_path / "meas.bin"
        path.write_bytes(struct.pack("<4sQQQQ", b"RCS2", 8, 5, 2, 77) + np.ones(20).tobytes())
        with pytest.raises(ValueError, match="magic"):
            load_measurements(path)

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
        message = f"^{re.escape(str(path))}: measurement array has a non-finite entry$"
        with pytest.raises(ValueError, match=message):
            load_measurements(path)

    @pytest.mark.parametrize("loader, magic", [(load_ensemble, b"RCS2"),
                                               (load_measurements, b"RCS1")])
    @pytest.mark.parametrize("n, k, r0, name", [(8, 5, 0, "r0"), (0, 5, 2, "n"), (8, 0, 2, "k")])
    def test_zero_header_field_named_with_the_path(self, tmp_path, loader, magic, n, k, r0, name):
        # payloads that fit the header (empty but for a measurement file's
        # n = 0); an ensemble's r0 is named r0, not the count of its 2*r0 matrices
        entries = 2 * r0 * k * (n if loader is load_ensemble else 1)
        path = tmp_path / "zero.bin"
        path.write_bytes(struct.pack("<4sQQQQ", magic, n, k, r0, 77) + np.zeros(entries).tobytes())
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: need {name} >= 1, "
                                             f"got {name}=0$"):
            loader(path)

    @pytest.mark.parametrize("entry", [0, 5 * 8 + 3, 4 * 5 * 8 - 1])
    def test_non_finite_ensemble_entry_rejected(self, tmp_path, entry):
        _, ens = self._ensemble()
        path = tmp_path / "ens.bin"
        dump_ensemble(ens, path)
        _overwrite_entry(path, entry, math.inf)
        message = f"^{re.escape(str(path))}: sensing matrix {entry // 40} has a non-finite entry$"
        with pytest.raises(ValueError, match=message):
            load_ensemble(path)


def _resize_payload(path, change):
    """Drop the last payload entry of a fixture file, or append one."""
    raw = path.read_bytes()
    path.write_bytes(raw[:-8] if change == "truncated" else raw + np.ones(1).tobytes())


def _overwrite_entry(path, index, value):
    """Replace payload entry ``index`` of a fixture file in place."""
    with open(path, "r+b") as fh:
        fh.seek(36 + 8 * index)
        fh.write(np.array([value], dtype="<f8").tobytes())
