import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import randcs.harness as harness
import randcs.sensing as sensing
from randcs.harness import (
    CSV_COLUMNS,
    ExperimentGrid,
    SummaryRow,
    TrialResult,
    emit_csv,
    emit_summary,
    jaccard,
    load_results,
    run_grid,
    run_trial,
    summarize,
    summary_csv_path,
    trial_config,
)
from randcs.baselines import biht, nbiht, omp, sign_quantize
from randcs.numerics import GaussianSource, sample_gaussian_matrix
from randcs.recovery import determine_support
from randcs.sensing import build_ensemble, generate_binary_signal, measure


def small_grid(**overrides):
    base = dict(
        n_values=(128,),
        sparsity_fractions=(0.02,),
        trials=3,
        methods=("rand", "omp"),
        sigma_w=0.1,
        noise_mode="experiment",
        master_seed=42,
    )
    base.update(overrides)
    return ExperimentGrid(**base)


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard({1, 2, 3}, {1, 2, 3}) == 1.0

    def test_disjoint_sets(self):
        assert jaccard({1, 2}, {3, 4}) == 0.0

    def test_half_overlap(self):
        assert jaccard({1, 2, 3}, {2, 3, 4}) == 0.5

    def test_both_empty(self):
        assert jaccard(set(), set()) == 1.0

    @given(st.sets(st.integers(0, 30)), st.sets(st.integers(0, 30)))
    def test_symmetry_and_bounds(self, a, b):
        r = jaccard(a, b)
        assert r == jaccard(b, a)
        assert 0.0 <= r <= 1.0
        assert (r == 1.0) == (a == b)
        assert (r == 0.0) == (bool(a | b) and not (a & b))

    @given(st.sets(st.integers(0, 30)), st.sets(st.integers(0, 30)))
    def test_matches_set_arithmetic_oracle(self, a, b):
        expected = 1.0 if not (a | b) else len(a & b) / len(a | b)
        assert jaccard(a, b) == expected


class TestExperimentGrid:
    def test_cells_in_grid_order(self):
        grid = small_grid(n_values=(100, 200), sparsity_fractions=(0.01, 0.05))
        assert grid.cells() == [(100, 1), (100, 5), (200, 2), (200, 10)]

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_values=()),
            dict(sparsity_fractions=()),
            dict(trials=0),
            dict(methods=("rand", "bogus")),
            dict(methods=()),
            dict(noise_mode="nope"),
            dict(workers=0),
            dict(sparsity_fractions=(1.5,)),
            dict(sparsity_fractions=(0.001,)),  # rounds to zero nonzeros at n=128
            dict(sigma_w=math.nan),
            dict(sigma_w=math.inf),
            dict(biht_step=math.nan),
            dict(biht_step=math.inf),
            dict(biht_step=0.0),
            dict(biht_step=-1.0),
            dict(biht_max_iters=0),
            dict(k_override=0),
            dict(r0_override=0),
            dict(n_values=(1,), sparsity_fractions=(1.0,)),  # default k and r0 are 0
            dict(methods=("omp", "omp")),
            dict(n_values=(128, 128)),
            dict(sparsity_fractions=(0.02, 0.02)),
            dict(sparsity_fractions=(0.02, 0.021)),  # both give s = 3 at n = 128
        ],
    )
    def test_invalid_grids_rejected(self, overrides):
        with pytest.raises(ValueError):
            small_grid(**overrides)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(k_override=10.5), "k must be an integer"),
            (dict(r0_override=2.5), "r0 must be an integer"),
            (dict(n_values=(128.0,)), "n must be an integer"),
        ],
    )
    def test_non_integral_sizes_rejected_with_the_cell_named(self, overrides, message):
        # k_override=10.5 used to be accepted, and then every trial failed
        with pytest.raises(ValueError, match=rf"^cell n=128(\.0)?, s=3: {message}"):
            small_grid(**overrides)

    @pytest.mark.parametrize("name, value", [("trials", 2.5), ("workers", 1.5),
                                             ("biht_max_iters", 2.5), ("trials", "3")])
    def test_non_integral_counts_rejected_before_any_trial(self, name, value, monkeypatch):
        # trials=2.5 died in range, biht_max_iters=2.5 failed every BIHT
        # trial with TypeError, and workers=1.5 ran
        ran = []
        monkeypatch.setattr(harness, "run_trial", lambda *args: ran.append(args))
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}"):
            run_grid(small_grid(**{name: value}))
        assert ran == []

    def test_numpy_integer_counts_kept_as_python_ints(self):
        grid = small_grid(trials=np.int64(2), workers=np.int32(1), biht_max_iters=np.uint8(5))
        assert [type(v) for v in (grid.trials, grid.workers, grid.biht_max_iters)] == [int] * 3
        assert grid == small_grid(trials=2, workers=1, biht_max_iters=5)

    def test_trial_config_checks_n_before_the_seed_words(self):
        with pytest.raises(ValueError, match=r"^n must be an integer, got 128\.0$"):
            trial_config(small_grid(), 128.0, 3, 0)


class TestRunTrial:
    def test_result_fields_echo_configuration(self):
        grid = small_grid()
        res = run_trial(grid, 128, 3, 0)[0]
        cfg = trial_config(grid, 128, 3, 0)
        assert (res.n, res.s, res.k, res.r0) == (128, 3, cfg.k, cfg.r0)
        assert res.seed == cfg.master_seed
        assert res.true_size == 3
        assert res.pred_size <= 128
        assert 0.0 <= res.R <= 1.0
        assert res.wall_time_s > 0 and res.gen_time_s > 0
        assert res.inter_size <= min(res.pred_size, res.true_size)

    def test_methods_share_signal_and_first_measurement(self):
        # the paired-comparison contract: regenerating from the trial seed
        # reproduces the exact signal, matrix, and measurement every
        # method consumed
        grid = small_grid(methods=("rand", "omp", "biht"))
        n, s, trial = 128, 3, 1
        cfg = trial_config(grid, n, s, trial)
        seed = cfg.master_seed
        signal = generate_binary_signal(GaussianSource(seed).stream(0), n, s)

        results = {r.method: r for r in run_trial(grid, n, s, trial)}
        assert all(r.true_size == np.count_nonzero(signal) for r in results.values())
        assert all(r.seed == seed for r in results.values())

        ens = build_ensemble(cfg)
        meas = measure(ens, signal, grid.sigma_w, grid.noise_mode, seed)
        A1 = sample_gaussian_matrix(GaussianSource(seed).stream(1), cfg.k, n, 1.0 / cfg.k)
        assert np.array_equal(A1, ens.matrices[0])
        noise_sd = grid.sigma_w / math.sqrt(cfg.k)
        b1 = A1 @ signal + noise_sd * GaussianSource(seed).stream(
            2 * cfg.r0 + 1
        ).generator().standard_normal(cfg.k)
        assert np.array_equal(b1, meas.vectors[0])

    def test_omp_measurement_is_round_zero_at_threaded_size(self, monkeypatch):
        # at k = 609, n = 2000 a dense BLAS product runs threaded and, at
        # one time, differed in a few last bits from round 0 of measure's
        # pass, which runs on one BLAS thread; the support sum fixes both
        grid = small_grid(n_values=(2000,), methods=("omp",), trials=4)
        n, s = 2000, 40
        consumed = []
        real_omp = harness.omp

        def recording_omp(A, b, s_budget):
            consumed.append(b)
            return real_omp(A, b, s_budget)

        monkeypatch.setattr(harness, "omp", recording_omp)
        for trial in range(4):
            consumed.clear()
            assert not isinstance(run_trial(grid, n, s, trial)[0], harness.TrialFailure)
            cfg = trial_config(grid, n, s, trial)
            assert cfg.k == 609
            signal = generate_binary_signal(cfg.master_seed, n, s)
            meas = measure(build_ensemble(cfg), signal, grid.sigma_w, grid.noise_mode,
                           cfg.master_seed)
            assert len(consumed) == 1
            assert np.array_equal(consumed[0], meas.vectors[0])

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_trial(small_grid(methods=("lasso",)), 128, 3, 0)


class TestRunGrid:
    def test_single_cell_single_trial(self):
        grid = small_grid(trials=1, methods=("rand",))
        outcome = run_grid(grid)
        assert len(outcome.results) == 1
        assert len(outcome.summaries) == 1
        assert outcome.failures == []
        assert outcome.summaries[0].speedup_vs_rand == 1.0

    def test_result_order_is_cell_method_trial(self):
        grid = small_grid(n_values=(64, 128), trials=2)
        outcome = run_grid(grid)
        keys = [(r.n, r.s, r.method, r.trial) for r in outcome.results]
        expected = [
            (n, s, m, t)
            for (n, s) in grid.cells()
            for m in grid.methods
            for t in range(2)
        ]
        assert keys == expected

    def test_worker_count_does_not_change_results(self):
        grid1 = small_grid(trials=4)
        grid2 = small_grid(trials=4, workers=3)
        r1 = run_grid(grid1).results
        r2 = run_grid(grid2).results
        strip = lambda r: (r.method, r.n, r.s, r.k, r.r0, r.trial, r.seed, r.R,
                           r.pred_size, r.true_size, r.inter_size)
        assert [strip(r) for r in r1] == [strip(r) for r in r2]

    def test_failures_recorded_not_raised(self, monkeypatch):
        real = harness.run_trial

        def flaky(grid, n, s, trial):
            if trial == 1:
                raise RuntimeError("synthetic trial failure")
            return real(grid, n, s, trial)

        monkeypatch.setattr(harness, "run_trial", flaky)
        outcome = run_grid(small_grid(trials=3, methods=("rand",)))
        assert len(outcome.results) == 2
        assert len(outcome.failures) == 1
        assert outcome.failures[0].trial == 1
        assert "synthetic" in outcome.failures[0].error
        assert outcome.failure_rates()[("rand", 128, 3)] == pytest.approx(1 / 3)
        assert outcome.has_excess_failures()

    def test_repeat_runs_identical_apart_from_timing(self):
        grid = small_grid(trials=3)
        a = run_grid(grid).results
        b = run_grid(grid).results
        strip = lambda r: (r.method, r.n, r.s, r.k, r.r0, r.trial, r.seed, r.R,
                           r.pred_size, r.true_size, r.inter_size)
        assert [strip(r) for r in a] == [strip(r) for r in b]
        assert all(r.wall_time_s > 0 for r in a + b)


class TestSharedTrialInputs:
    def test_one_method_failure_spares_the_trials_other_rows(self, monkeypatch):
        real = harness.omp
        calls = []

        def omp_failing_on_second_trial(A, b, s_budget):
            calls.append(len(calls))
            if len(calls) == 2:
                raise RuntimeError("synthetic omp failure")
            return real(A, b, s_budget)

        monkeypatch.setattr(harness, "omp", omp_failing_on_second_trial)
        grid = small_grid(trials=3, methods=("rand", "omp", "biht"))
        outcome = run_grid(grid)
        assert [(f.method, f.trial) for f in outcome.failures] == [("omp", 1)]
        failure = outcome.failures[0]
        assert failure.seed == trial_config(grid, 128, 3, 1).master_seed
        assert failure.error.startswith("RuntimeError: ")
        assert "synthetic" in failure.error
        kept = {(r.method, r.trial) for r in outcome.results}
        assert kept == {(m, t) for m in grid.methods for t in range(3)} - {("omp", 1)}

    def test_shared_generation_failure_fails_every_method(self, monkeypatch):
        real = sensing.sample_gaussian_matrix

        def failing_sample(source, k, n, variance):
            if source.master_seed == trial_config(grid, 128, 3, 2).master_seed:
                raise MemoryError("synthetic sampling failure")
            return real(source, k, n, variance)

        grid = small_grid(trials=3, methods=("rand", "omp", "nbiht"))
        monkeypatch.setattr(sensing, "sample_gaussian_matrix", failing_sample)
        outcome = run_grid(grid)
        assert [(f.method, f.trial) for f in outcome.failures] == [
            ("rand", 2), ("omp", 2), ("nbiht", 2)
        ]
        seed = trial_config(grid, 128, 3, 2).master_seed
        assert all(f.seed == seed for f in outcome.failures)
        assert all(f.error.startswith("MemoryError: ") for f in outcome.failures)
        assert len(outcome.results) == 6

    @pytest.mark.parametrize("workers", [1, 3])
    def test_first_matrix_sampled_once_per_trial(self, monkeypatch, workers):
        real = sensing.sample_gaussian_matrix
        seeds = []

        def counting_sample(source, k, n, variance):
            seeds.append(source.master_seed)
            return real(source, k, n, variance)

        monkeypatch.setattr(sensing, "sample_gaussian_matrix", counting_sample)
        grid = small_grid(trials=4, methods=("omp", "biht", "nbiht"), workers=workers)
        outcome = run_grid(grid)
        assert len(outcome.results) == 12
        assert sorted(seeds) == sorted(trial_config(grid, 128, 3, t).master_seed for t in range(4))

    def test_rand_alone_samples_no_first_matrix(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("first matrix sampled for rand")

        monkeypatch.setattr(sensing, "sample_gaussian_matrix", no_sampling)
        outcome = run_grid(small_grid(trials=2, methods=("rand",)))
        assert outcome.failures == [] and len(outcome.results) == 2

    def test_rand_trial_opens_each_matrix_stream_once(self, monkeypatch):
        # measure() back-projects while each matrix is at hand, so the
        # recovery samples nothing again
        grid = small_grid(trials=1, methods=("rand",))
        cfg = trial_config(grid, 128, 3, 0)
        opened = []
        real_generator = GaussianSource.generator

        def recording_generator(source):
            if source.master_seed == cfg.master_seed:
                opened.append(source.stream_index)
            return real_generator(source)

        monkeypatch.setattr(GaussianSource, "generator", recording_generator)
        [row] = run_trial(grid, 128, 3, 0)
        assert row.method == "rand"
        matrix_streams = sorted(i for i in opened if 1 <= i <= 2 * cfg.r0)
        assert matrix_streams == list(range(1, 2 * cfg.r0 + 1))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_rows_equal_separate_runs_of_each_method(self, workers):
        grid = small_grid(
            n_values=(64, 128), sparsity_fractions=(0.05,), trials=3,
            methods=harness.METHODS, workers=workers,
        )
        outcome = run_grid(grid)
        assert outcome.failures == []
        expected = [
            _separate_method_row(grid, method, n, s, trial)
            for (n, s) in grid.cells()
            for method in grid.methods
            for trial in range(grid.trials)
        ]
        assert [_untimed(r) for r in outcome.results] == expected


def _untimed(r):
    return (r.method, r.n, r.s, r.k, r.r0, r.trial, r.seed, r.R,
            r.pred_size, r.true_size, r.inter_size)


def _separate_method_row(grid, method, n, s, trial):
    """One method's row generated on its own, from nothing but the trial seed."""
    cfg = trial_config(grid, n, s, trial)
    seed = cfg.master_seed
    signal = generate_binary_signal(GaussianSource(seed).stream(0), n, s)
    if method == "rand":
        ens = build_ensemble(cfg)
        meas = measure(ens, signal, grid.sigma_w, grid.noise_mode, seed)
        predicted = determine_support(ens, meas)
    else:
        A1 = sample_gaussian_matrix(GaussianSource(seed).stream(1), cfg.k, n, 1.0 / cfg.k)
        if method == "omp":
            noise = GaussianSource(seed).stream(2 * cfg.r0 + 1).generator().standard_normal(cfg.k)
            b1 = A1 @ signal + grid.sigma_w / math.sqrt(cfg.k) * noise
            predicted = omp(A1, b1, s).support
        else:
            solver = biht if method == "biht" else nbiht
            predicted = solver(A1, sign_quantize(A1, signal), s,
                               grid.biht_max_iters, grid.biht_step).support
    inter = len(predicted & frozenset(np.flatnonzero(signal)))
    return (method, n, s, cfg.k, cfg.r0, trial, seed,
            jaccard(predicted, frozenset(np.flatnonzero(signal))),
            len(predicted), s, inter)


def _fabricated_results():
    common = dict(n=100, s=2, k=30, r0=5, seed=9, R=1.0, pred_size=2, true_size=2,
                  inter_size=2, gen_time_s=0.5)
    rows = []
    for trial, (method, wall) in enumerate([("rand", 1.0), ("rand", 1.0),
                                            ("omp", 4.0), ("omp", 4.0)]):
        rows.append(TrialResult(method=method, trial=trial % 2, wall_time_s=wall, **common))
    return rows


class TestSummarize:
    def test_hand_ratio(self):
        rows = summarize(_fabricated_results())
        by_method = {r.method: r for r in rows}
        assert by_method["rand"].speedup_vs_rand == 1.0
        assert by_method["omp"].speedup_vs_rand == 4.0

    def test_identical_times_give_unit_speedup(self):
        rows = _fabricated_results()
        rows = [r for r in rows if r.method == "rand"]
        tweaked = rows + [
            TrialResult(**{**rows[0].__dict__, "method": "omp"}),
            TrialResult(**{**rows[1].__dict__, "method": "omp"}),
        ]
        by_method = {r.method: r for r in summarize(tweaked)}
        assert by_method["omp"].speedup_vs_rand == 1.0

    def test_missing_rand_leaves_speedup_unset(self):
        only_omp = [r for r in _fabricated_results() if r.method == "omp"]
        rows = summarize(only_omp)
        assert rows[0].speedup_vs_rand is None

    def test_single_trial_variance_is_zero(self):
        rows = summarize(_fabricated_results()[:1])
        assert rows[0].var_R == 0.0


class TestCsvEmission:
    def test_empty_results_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        lines = path.read_text().splitlines()
        assert lines == [",".join(CSV_COLUMNS)]

    def test_one_result_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv(_fabricated_results()[:1], path)
        assert len(path.read_text().splitlines()) == 2

    def test_round_trip_bit_exact(self, tmp_path):
        grid = small_grid(trials=2)
        results = run_grid(grid).results
        path = tmp_path / "results.csv"
        emit_csv(results, path)
        assert load_results(path) == results

    def test_seventeen_significant_digits(self, tmp_path):
        value = 0.1234567890123456789
        row = TrialResult(method="rand", n=1, s=1, k=1, r0=1, trial=0, seed=1,
                          R=value, wall_time_s=1.0, pred_size=1, true_size=1,
                          inter_size=1, gen_time_s=1.0)
        path = tmp_path / "digits.csv"
        emit_csv([row], path)
        text = path.read_text().splitlines()[1]
        assert format(value, ".17g") in text


class TestSummaryEmission:
    def _rows(self):
        return [
            SummaryRow(method="rand", n=100, s=2, mean_R=1.0, var_R=0.0,
                       mean_time_s=1.0, speedup_vs_rand=1.0),
            SummaryRow(method="omp", n=100, s=2, mean_R=0.975, var_R=0.001,
                       mean_time_s=4.0, speedup_vs_rand=4.0),
        ]

    def test_table_and_csv_twin(self, tmp_path):
        path = tmp_path / "summary.txt"
        emit_summary(self._rows(), path)
        table = path.read_text().splitlines()
        assert table[0].split() == list(harness.SUMMARY_COLUMNS)
        assert len(table) == 3
        twin = tmp_path / "summary.csv"
        assert twin.exists()
        assert twin.read_text().splitlines()[1].startswith("rand,100,2,1")

    def test_unset_speedup_rendered_as_dash_and_blank(self, tmp_path):
        rows = [
            SummaryRow(method="omp", n=100, s=2, mean_R=1.0, var_R=0.0,
                       mean_time_s=4.0, speedup_vs_rand=None)
        ]
        path = tmp_path / "summary.txt"
        emit_summary(rows, path)
        assert path.read_text().splitlines()[1].endswith("-")
        assert tmp_path.joinpath("summary.csv").read_text().splitlines()[1].endswith(",")

    @pytest.mark.parametrize(
        "path, twin",
        [
            ("summary.txt", "summary.csv"),
            ("summary", "summary.csv"),
            ("summary.csv", "summary.csv.csv"),
            ("a.b/c.txt", "a.b/c.csv"),
            # a dotfile has no suffix, so its name is kept whole
            (".summary", ".summary.csv"),
            ("out.d/.summary", "out.d/.summary.csv"),
        ],
    )
    def test_csv_twin_path(self, path, twin):
        assert summary_csv_path(path) == twin
