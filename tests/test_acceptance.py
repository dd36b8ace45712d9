"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line and
enforcing its stated tolerance and runtime budget.  Monte-Carlo runs are
fully seeded, so every outcome here is deterministic.

Two cost-saving constructions are used and justified inline:

* Test signals sit on the leading coordinates.  The sensing matrices have
  iid (hence exchangeable) columns, so permuting the signal support is the
  same as permuting matrix columns and recovery statistics are unchanged.
* Measurement vectors are computed from the leading-column block of each
  matrix (b depends on a sparse signal only through its support columns,
  and column-major sampling makes those columns a reproducible stream
  prefix).  The values agree with full-matrix products to roundoff, which
  criterion 3 also double-checks against a fully materialized round.
"""

import csv
import math
import time
from contextlib import contextmanager

import numpy as np

from randcs.baselines import hard_threshold, omp
from randcs.harness import (
    CSV_COLUMNS,
    ExperimentGrid,
    jaccard,
    run_grid,
    run_trial,
)
from randcs.cli import main as cli_main
from randcs.numerics import (
    GaussianSource,
    derive_seed,
    matvec,
    matvec_transposed,
    median,
    sample_gaussian_matrix,
)
from randcs.recovery import estimate_noise_floor, recover_suppressed
from randcs.sensing import (
    MeasurementEnsemble,
    RecoveryConfig,
    Signal,
    build_ensemble,
)


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL [{time.perf_counter() - start:.1f}s]")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS [{time.perf_counter() - start:.1f}s]")


def prefix_signal(n, s, magnitude, seed):
    """+/-magnitude entries on the leading block, signs drawn from the seed."""
    signs = np.where(GaussianSource(seed).stream(0).generator().random(s) < 0.5, -1.0, 1.0)
    values = np.zeros(n)
    values[:s] = magnitude * signs
    return Signal.from_values(values)


def prefix_measurements(config, z, seed):
    """Measurements from leading-column blocks, noise on measure()'s streams."""
    k, r0, sw = config.k, config.r0, config.sigma_w
    s = z.sparsity
    zs = z.values[:s]
    noise_sd = sw if config.noise_mode == "theory" else sw / math.sqrt(k)
    source = GaussianSource(seed)
    vectors = np.empty((2 * r0, k))
    for r in range(2 * r0):
        block = sample_gaussian_matrix(source.stream(r + 1), k, s, 1.0 / k)
        b = block @ zs
        if noise_sd > 0:
            b = b + noise_sd * source.stream(2 * r0 + r + 1).generator().standard_normal(k)
        vectors[r] = b
    return MeasurementEnsemble(
        vectors=vectors, n=config.n, k=k, r0=r0, master_seed=seed,
        sigma_w=sw, noise_mode=config.noise_mode,
    )


# fixed signal shared by criteria 1 and 2: n=50, s=5, entries +/-1
N1, S1 = 50, 5
Z1 = Signal.from_values(
    np.concatenate([np.where(np.arange(S1) % 2 == 0, 1.0, -1.0), np.zeros(N1 - S1)])
)


def test_criterion_1_back_projection_moments():
    """Per-coordinate mean, variance, and cross-covariance of v = A^T b."""
    with criterion(1, "back-projection moments"):
        start = time.perf_counter()
        k, sw, N = 200, 0.1, 100_000
        z = Z1.values
        theta2 = z**2 / k + (z @ z) / k + sw**2

        pairs_rng = np.random.Generator(np.random.Philox(key=1001))
        pairs = []
        while len(pairs) < 20:
            i, j = (int(v) for v in pairs_rng.integers(0, N1, size=2))
            if i != j:
                pairs.append((i, j))
        pi = np.array([p[0] for p in pairs])
        pj = np.array([p[1] for p in pairs])

        sum_v = np.zeros(N1)
        sum_v2 = np.zeros(N1)
        sum_p = np.zeros(20)
        sum_p2 = np.zeros(20)
        base = GaussianSource(7)
        for i in range(N):
            A = sample_gaussian_matrix(base.stream(2 * i + 1), k, N1, 1.0 / k)
            w = base.stream(2 * i + 2).generator().standard_normal(k)
            b = matvec(A, z) + sw * w
            v = matvec_transposed(A, b)
            sum_v += v
            sum_v2 += v * v
            prod = v[pi] * v[pj]
            sum_p += prod
            sum_p2 += prod * prod

        mean = sum_v / N
        var = sum_v2 / N - mean**2
        assert np.all(np.abs(mean - z) < 4 * np.sqrt(theta2 / N)), "coordinate mean off"
        assert np.all(np.abs(var - theta2) < 0.05 * theta2), "coordinate variance off"
        cov = sum_p / N - mean[pi] * mean[pj]
        se = np.sqrt((sum_p2 / N - (sum_p / N) ** 2) / N)
        assert np.all(np.abs(cov) < 4 * se), "cross-covariance off"
        assert time.perf_counter() - start < 60, "criterion 1 exceeded 60 s"


def test_criterion_2_noise_floor_concentration():
    """Median measurement energy stays in the +/- sqrt(6/k) band at the stated rate."""
    with criterion(2, "noise-floor concentration"):
        start = time.perf_counter()
        k, r0, sw, reps = 100, 144, 0.1, 10_000
        cfg = RecoveryConfig(n=N1, s=S1, k=k, r0=r0 // 2, sigma_w=sw,
                             noise_mode="theory", master_seed=0)
        zs = Z1.values[:S1]
        expected = float(Z1.values @ Z1.values) + k * sw**2
        band = math.sqrt(6 / k) * expected
        lo, hi = expected - band, expected + band

        inside = 0
        for i in range(reps):
            seed = derive_seed(1102, i)
            src = GaussianSource(seed)
            blocks = sample_gaussian_matrix(src.stream(1), k, S1 * r0, 1.0 / k)
            blocks = blocks.T.reshape(r0, S1, k)
            noise = src.stream(2).generator().standard_normal((r0, k))
            vectors = np.einsum("rck,c->rk", blocks, zs) + sw * noise
            meas = MeasurementEnsemble(vectors=vectors, n=N1, k=k, r0=r0 // 2,
                                       master_seed=seed, sigma_w=sw, noise_mode="theory")
            floor = estimate_noise_floor(meas, range(r0), k)
            inside += bool(lo < floor.sigma2 < hi)

        required = 1 - 2 * math.exp(-r0 / 72)
        assert inside / reps >= required, f"rate {inside / reps:.4f} below {required:.4f}"
        assert time.perf_counter() - start < 60, "criterion 2 exceeded 60 s"


def test_criterion_3_suppressed_recovery_event():
    """Exact support and sub-2-sigma_w errors from the suppression pipeline."""
    with criterion(3, "suppressed recovery event"):
        start = time.perf_counter()
        n, s, sw = 256, 4, 0.1
        k = math.ceil(200 * s * math.log(n))
        r0 = math.ceil(7 * math.log(n))
        magnitude = 15 * sw

        wins = 0
        for run in range(100):
            seed = derive_seed(1203, run)
            cfg = RecoveryConfig(n=n, s=s, k=k, r0=r0, sigma_w=sw,
                                 noise_mode="theory", master_seed=seed)
            z = prefix_signal(n, s, magnitude, seed)
            ensemble = build_ensemble(cfg)
            meas = prefix_measurements(cfg, z, seed)
            if run == 0:
                # block-built measurements match a materialized round
                A = ensemble.matrices[r0]
                w = GaussianSource(seed).stream(3 * r0 + 1).generator().standard_normal(k)
                full = matvec(A, z.values) + sw * w
                assert np.allclose(meas.vectors[r0], full, rtol=1e-9, atol=1e-12)
            got = recover_suppressed(ensemble, meas)
            support_ok = got.support == z.support
            err_ok = bool(np.max(np.abs(got.values[:s] - z.values[:s])) < 2 * sw)
            wins += support_ok and err_ok

        assert wins >= 95, f"only {wins}/100 runs recovered exactly"
        assert time.perf_counter() - start < 120, "criterion 3 exceeded 120 s"


def test_criterion_4_benchmark_cell():
    """The n=2000, s=20 cell: ensemble and greedy methods accurate, 1-bit below them."""
    with criterion(4, "benchmark cell accuracy"):
        start = time.perf_counter()
        grid = ExperimentGrid(
            n_values=(2000,),
            sparsity_fractions=(0.01,),
            trials=50,
            methods=("rand", "omp", "biht"),
            sigma_w=0.1,
            noise_mode="experiment",
            master_seed=42,
        )
        outcome = run_grid(grid)
        assert outcome.failures == []
        assert all(r.k == 305 and r.r0 == 8 for r in outcome.results)
        by_method = {row.method: row for row in outcome.summaries}

        assert by_method["rand"].mean_R >= 0.95, f"rand mean {by_method['rand'].mean_R:.4f}"
        assert by_method["rand"].var_R < 0.01, f"rand var {by_method['rand'].var_R:.5f}"
        assert by_method["omp"].mean_R >= 0.95, f"omp mean {by_method['omp'].mean_R:.4f}"
        assert by_method["omp"].var_R < 0.01, f"omp var {by_method['omp'].var_R:.5f}"
        assert by_method["biht"].mean_R < by_method["rand"].mean_R, (
            f"biht {by_method['biht'].mean_R:.4f} not below rand {by_method['rand'].mean_R:.4f}"
        )
        assert time.perf_counter() - start < 600, "criterion 4 exceeded 10 minutes"


def test_criterion_5_runtime_scaling():
    """Recovery wall time grows by a factor in [1, 6] from n=2000 to n=4000."""
    with criterion(5, "runtime scaling"):
        grid = ExperimentGrid(
            n_values=(2000, 4000),
            sparsity_fractions=(0.01,),
            trials=3,
            methods=("rand",),
            sigma_w=0.1,
            noise_mode="experiment",
            master_seed=42,
        )
        run_trial(grid, 2000, 20, 0)  # warm the kernels
        run_trial(grid, 4000, 40, 0)
        medians = {}
        for n in (2000, 4000):
            walls = [run_trial(grid, n, n // 100, rep)[0].wall_time_s for rep in range(3)]
            assert all(w > 0 for w in walls)
            medians[n] = float(np.median(walls))
        ratio = medians[4000] / medians[2000]
        assert 1.0 <= ratio <= 6.0, f"time ratio {ratio:.2f} outside [1, 6]"


def test_criterion_6_csv_determinism(tmp_path, capsys):
    """Two identical bench invocations emit byte-identical CSVs up to timing columns."""
    with criterion(6, "benchmark determinism"):
        flags = [
            "bench",
            "--n", "256",
            "--sparsity-pct", "2",
            "--trials", "3",
            "--methods", "rand,omp,biht",
            "--sigma-w", "0.1",
            "--noise-mode", "experiment",
            "--seed", "42",
        ]
        outputs = []
        for tag in ("first", "second"):
            out = tmp_path / f"{tag}.csv"
            summary = tmp_path / f"{tag}.txt"
            assert cli_main(flags + ["--out", str(out), "--summary", str(summary)]) == 0
            outputs.append(out)
        capsys.readouterr()

        timing = {CSV_COLUMNS.index("wall_time_s"), CSV_COLUMNS.index("gen_time_s")}

        def rows_without_timing(path):
            with open(path, newline="") as fh:
                parsed = list(csv.reader(fh))
            for row in parsed[1:]:
                for idx in timing:
                    assert float(row[idx]) > 0
            return [
                [f for i, f in enumerate(row) if i not in timing] for row in parsed
            ]

        assert rows_without_timing(outputs[0]) == rows_without_timing(outputs[1])
        assert outputs[0].read_bytes() != b""


def test_criterion_7_oracle_equivalences():
    """Selection, thresholding, greedy recovery, and the accuracy ratio vs naive oracles."""
    with criterion(7, "oracle equivalences"):
        rng = np.random.Generator(np.random.Philox(key=7007))

        # median against a full sort
        for _ in range(1000):
            length = int(rng.integers(1, 60))
            values = np.round(rng.standard_normal(length) * 10, 2)
            swept = np.sort(values)
            mid = length // 2
            oracle = swept[mid] if length % 2 else 0.5 * (swept[mid - 1] + swept[mid])
            assert median(values) == oracle

        # hard threshold against a stable sort
        for _ in range(1000):
            length = int(rng.integers(1, 40))
            x = np.round(rng.standard_normal(length), 1)
            s = int(rng.integers(0, length + 1))
            order = sorted(range(length), key=lambda i: (-abs(x[i]), i))
            keep = set(order[:s])
            oracle_vec = np.array([x[i] if i in keep else 0.0 for i in range(length)])
            assert np.array_equal(hard_threshold(x, s), oracle_vec)

        # greedy recovery is exact when the columns are orthonormal
        for trial in range(20):
            n = 30
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            z = np.zeros(n)
            support = rng.choice(n, 5, replace=False)
            z[support] = rng.standard_normal(5) + np.where(z[support] >= 0, 2.0, -2.0)
            got = omp(Q, Q @ z, 5)
            assert got.support == frozenset(int(i) for i in support)
            assert np.allclose(got.values, z, rtol=0, atol=1e-9)

        # accuracy ratio against direct set arithmetic
        for _ in range(1000):
            a = frozenset(int(v) for v in rng.integers(0, 25, size=rng.integers(0, 10)))
            b = frozenset(int(v) for v in rng.integers(0, 25, size=rng.integers(0, 10)))
            expected = 1.0 if not (a | b) else len(a & b) / len(a | b)
            assert jaccard(a, b) == expected
