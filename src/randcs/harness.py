"""Benchmark harness: trial generation, method dispatch, metrics, CSV output.

A trial is the unit of work.  Within a grid cell (n, s), every method of a
given trial sees the same signal and, where a single matrix suffices, the
same first sensing matrix and measurement vector, so accuracy comparisons
are paired; the signal and the first matrix are generated once per trial
and shared.  Only the recovery call is timed; signal, matrix, and
measurement generation are excluded and reported separately in the
``gen_time_s`` column.  For ``rand``, :func:`~randcs.sensing.measure`
computes the r0 back-projections A[r]^T b[r] in the same pass that
samples each matrix, so those products count in ``gen_time_s`` and
``wall_time_s`` covers the rest of the recovery: the noise floor, the vote
count and the support.  Each single-matrix row's ``gen_time_s`` counts the
shared first-matrix sampling in full, as the cost of the inputs that row
consumed.
"""

from __future__ import annotations

import csv
import time
from collections import Counter
from collections.abc import Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import PurePath

import numpy as np

from .baselines import biht, nbiht, omp, sign_quantize
from .numerics import derive_seed
from .recovery import determine_support
from .sensing import (
    RecoveryConfig,
    _add_noise,
    _noise_sd,
    _signal_product,
    build_ensemble,
    generate_binary_signal,
    measure,
)

METHODS = ("rand", "omp", "biht", "nbiht")

FAILURE_RATE_LIMIT = 0.1


def jaccard(pred: Iterable[int], true: Iterable[int]) -> float:
    """Intersection over union of two index sets; 1.0 when both are empty."""
    p, t = frozenset(pred), frozenset(true)
    union = p | t
    if not union:
        return 1.0
    return len(p & t) / len(union)


@dataclass(frozen=True)
class ExperimentGrid:
    """The full benchmark specification: sizes, sparsities, methods, and knobs.

    Every (n, s) cell must make a valid ``RecoveryConfig``, whose error is
    re-raised with the cell named, and no method or cell may repeat.
    """

    n_values: tuple[int, ...]
    sparsity_fractions: tuple[float, ...]
    trials: int = 50
    methods: tuple[str, ...] = METHODS
    sigma_w: float = 0.1
    noise_mode: str = "experiment"
    master_seed: int = 42
    k_override: int | None = None
    r0_override: int | None = None
    biht_max_iters: int = 100
    biht_step: float = 1.0
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.n_values:
            raise ValueError("at least one signal size is required")
        if not self.sparsity_fractions:
            raise ValueError("at least one sparsity fraction is required")
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        unknown = set(self.methods) - set(METHODS)
        if unknown or not self.methods:
            raise ValueError(f"methods must be a nonempty subset of {METHODS}, got {self.methods}")
        repeated = [m for m, count in Counter(self.methods).items() if count > 1]
        if repeated:
            raise ValueError(f"methods must not repeat, got {repeated} more than once")
        if self.workers < 1:
            raise ValueError("worker count must be at least 1")
        for name in ("k_override", "r0_override", "biht_max_iters"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if not (np.isfinite(self.biht_step) and self.biht_step > 0):
            raise ValueError(f"biht_step must be finite and positive, got {self.biht_step}")
        for f in self.sparsity_fractions:
            if not 0 < f <= 1:
                raise ValueError(f"sparsity fractions must lie in (0, 1], got {f}")
        cells = self.cells()
        for n, s in cells:
            try:
                trial_config(self, n, s, 0)
            except ValueError as exc:
                raise ValueError(f"cell n={n}, s={s}: {exc}") from exc
        repeated = [cell for cell, count in Counter(cells).items() if count > 1]
        if repeated:
            raise ValueError(f"(n, s) cells must not repeat, got {repeated} more than once")

    def cells(self) -> list[tuple[int, int]]:
        """(n, s) pairs in grid order, with s = round(fraction * n)."""
        return [
            (n, int(round(f * n)))
            for n in self.n_values
            for f in self.sparsity_fractions
        ]


@dataclass(frozen=True)
class TrialResult:
    method: str
    n: int
    s: int
    k: int
    r0: int
    trial: int
    seed: int
    R: float
    wall_time_s: float
    pred_size: int
    true_size: int
    inter_size: int
    gen_time_s: float


@dataclass(frozen=True)
class TrialFailure:
    """A method that raised on one trial; ``error`` starts with the exception type."""

    method: str
    n: int
    s: int
    trial: int
    seed: int
    error: str


@dataclass(frozen=True)
class SummaryRow:
    method: str
    n: int
    s: int
    mean_R: float
    var_R: float
    mean_time_s: float
    speedup_vs_rand: float | None


CSV_COLUMNS = tuple(f.name for f in fields(TrialResult))

SUMMARY_COLUMNS = tuple(f.name for f in fields(SummaryRow))


def trial_config(grid: ExperimentGrid, n: int, s: int, trial: int) -> RecoveryConfig:
    """The recovery configuration a given trial runs under (seed included)."""
    return RecoveryConfig(
        n=n,
        s=s,
        k=grid.k_override,
        r0=grid.r0_override,
        sigma_w=grid.sigma_w,
        noise_mode=grid.noise_mode,
        master_seed=derive_seed(grid.master_seed, n, s, trial),
    )


def _rand_inputs(grid: ExperimentGrid, config: RecoveryConfig, signal: np.ndarray, A1):
    ensemble = build_ensemble(config)
    measurements = measure(ensemble, signal, config.sigma_w, config.noise_mode, config.master_seed)
    return ensemble, measurements


def _omp_inputs(grid: ExperimentGrid, config: RecoveryConfig, signal: np.ndarray, A1):
    noise_sd = _noise_sd(config.sigma_w, config.noise_mode, config.k)
    b1 = _add_noise(_signal_product(A1, signal), 0, config.r0, noise_sd, config.master_seed)
    return A1, b1, config.s


def _sign_inputs(grid: ExperimentGrid, config: RecoveryConfig, signal: np.ndarray, A1):
    return A1, sign_quantize(A1, signal), config.s, grid.biht_max_iters, grid.biht_step


# per method: (prepare, solve); prepare(grid, config, signal, A1) builds the
# inputs, and solve(*inputs), the recovery alone, returns the support
_DISPATCH = {
    "rand": (_rand_inputs, determine_support),
    "omp": (_omp_inputs, lambda *inputs: omp(*inputs).support),
    "biht": (_sign_inputs, lambda *inputs: biht(*inputs).support),
    "nbiht": (_sign_inputs, lambda *inputs: nbiht(*inputs).support),
}


def _run_method(
    grid: ExperimentGrid,
    config: RecoveryConfig,
    signal: np.ndarray,
    method: str,
    A1: np.ndarray | None,
) -> tuple[frozenset[int], float, float]:
    """Prepare one method's inputs and time its recovery.

    Returns the predicted support, the seconds spent preparing the inputs
    and the seconds of the recovery call.  Everything the method allocates,
    the ``rand`` ensemble above all, is local to this call, so it is freed
    before the next method runs.
    """
    prepare, solve = _DISPATCH[method]
    t_gen = time.perf_counter()
    inputs = prepare(grid, config, signal, A1)
    t_run = time.perf_counter()
    predicted = solve(*inputs)
    return predicted, t_run - t_gen, time.perf_counter() - t_run


def run_trial(
    grid: ExperimentGrid, n: int, s: int, trial: int
) -> list[TrialResult | TrialFailure]:
    """Generate one trial's data and time every method of the grid on it.

    The trial seed is derived from (master_seed, n, s, trial) only.  The
    signal is generated once and, when a single-matrix method is asked
    for, the first sensing matrix is sampled once; the methods then run in
    ``grid.methods`` order on those inputs, so single-matrix methods
    consume the identical first matrix and measurement vector that the
    ensemble method sees as round 0.  That vector is built by the same
    support sum as :func:`~randcs.sensing.measure` builds it, with no BLAS
    call, so it is bit for bit round 0 at every size and thread count.
    Each single-matrix row's ``gen_time_s`` includes the seconds of that
    shared sampling.

    Returns one row per method.  A method that raises gets a
    :class:`TrialFailure` row and the others still run; an error in the
    shared generation propagates.
    """
    config = trial_config(grid, n, s, trial)
    seed = config.master_seed
    signal = generate_binary_signal(seed, n, s)
    truth = frozenset(int(i) for i in np.flatnonzero(signal))

    A1, first_gen = None, 0.0
    if any(method != "rand" for method in grid.methods):
        t_gen = time.perf_counter()
        A1 = build_ensemble(config).matrices[0]
        first_gen = time.perf_counter() - t_gen

    rows: list[TrialResult | TrialFailure] = []
    for method in grid.methods:
        try:
            predicted, gen_time, wall = _run_method(grid, config, signal, method, A1)
        except Exception as exc:  # noqa: BLE001 - one method's failure spares the others
            rows.append(_failure(method, n, s, trial, seed, exc))
            continue
        rows.append(
            TrialResult(
                method=method,
                n=n,
                s=s,
                k=config.k,
                r0=config.r0,
                trial=trial,
                seed=seed,
                R=jaccard(predicted, truth),
                wall_time_s=wall,
                pred_size=len(predicted),
                true_size=len(truth),
                inter_size=len(predicted & truth),
                gen_time_s=gen_time if method == "rand" else first_gen + gen_time,
            )
        )
    return rows


def _failure(method: str, n: int, s: int, trial: int, seed: int, exc: Exception) -> TrialFailure:
    return TrialFailure(
        method=method, n=n, s=s, trial=trial, seed=seed, error=f"{type(exc).__name__}: {exc}"
    )


@dataclass(frozen=True)
class GridOutcome:
    results: list[TrialResult]
    summaries: list[SummaryRow]
    failures: list[TrialFailure]

    def failure_rates(self) -> dict[tuple[str, int, int], float]:
        """Failed-trial fraction per (method, n, s) cell, counting failures only."""
        failed = Counter((f.method, f.n, f.s) for f in self.failures)
        done = Counter((r.method, r.n, r.s) for r in self.results)
        return {key: count / (count + done[key]) for key, count in failed.items()}

    def has_excess_failures(self) -> bool:
        return any(rate > FAILURE_RATE_LIMIT for rate in self.failure_rates().values())


def run_grid(grid: ExperimentGrid) -> GridOutcome:
    """Run every cell x trial, each trial running every method, optionally on a worker pool.

    A trial is the unit of work: ``grid.workers`` trials run at once, and
    the methods of one trial run in sequence on one thread.  Results are
    ordered by (cell, method, trial) regardless of completion order, and
    trial seeds depend only on (master_seed, n, s, trial), so the outcome
    is identical for any worker count.  A failing method or trial is
    recorded and skipped rather than aborting the grid.
    """
    tasks = [(n, s, trial) for (n, s) in grid.cells() for trial in range(grid.trials)]

    def attempt(task) -> list[TrialResult | TrialFailure]:
        n, s, trial = task
        try:
            return run_trial(grid, n, s, trial)
        except Exception as exc:  # noqa: BLE001 - per-trial record-and-continue policy
            seed = derive_seed(grid.master_seed, n, s, trial)
            return [_failure(method, n, s, trial, seed, exc) for method in grid.methods]

    if grid.workers == 1:
        per_task = [attempt(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=grid.workers) as pool:
            per_task = list(pool.map(attempt, tasks))

    # per_task holds trial-major rows of one cell after another; reorder to
    # (cell, method, trial)
    outcomes = [
        per_task[cell * grid.trials + trial][m]
        for cell in range(len(grid.cells()))
        for m in range(len(grid.methods))
        for trial in range(grid.trials)
    ]
    results = [o for o in outcomes if isinstance(o, TrialResult)]
    failures = [o for o in outcomes if isinstance(o, TrialFailure)]
    return GridOutcome(results=results, summaries=summarize(results), failures=failures)


def summarize(results: Sequence[TrialResult]) -> list[SummaryRow]:
    """Per-(method, n, s) means and variances, plus wall-time ratios against rand.

    The variance is the population variance over the cell's trials.  The
    speedup column is mean_time(method) / mean_time(rand) for the same
    (n, s); values above one mean the ensemble method was faster.
    """
    # dicts keep insertion order, so the rows come in first-seen order
    groups: dict[tuple[str, int, int], list[TrialResult]] = {}
    for r in results:
        groups.setdefault((r.method, r.n, r.s), []).append(r)

    rand_time: dict[tuple[int, int], float] = {
        (n, s): float(np.mean([r.wall_time_s for r in rs]))
        for (method, n, s), rs in groups.items()
        if method == "rand"
    }

    rows = []
    for (method, n, s), rs in groups.items():
        accs = np.array([r.R for r in rs])
        mean_time = float(np.mean([r.wall_time_s for r in rs]))
        base = rand_time.get((n, s))
        rows.append(
            SummaryRow(
                method=method,
                n=n,
                s=s,
                mean_R=float(np.mean(accs)),
                var_R=float(np.var(accs)),
                mean_time_s=mean_time,
                speedup_vs_rand=None if base is None else mean_time / base,
            )
        )
    return rows


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit_csv(results: Sequence[TrialResult], path) -> None:
    """Write one row per trial in the fixed column order, floats at 17 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in results:
            writer.writerow([_fmt(getattr(r, col)) for col in CSV_COLUMNS])


def load_results(path) -> list[TrialResult]:
    """Read back a results CSV written by :func:`emit_csv`, types restored."""
    types = {f.name: f.type for f in fields(TrialResult)}
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            kwargs = {}
            for col in CSV_COLUMNS:
                caster = float if types[col] == "float" else (int if types[col] == "int" else str)
                kwargs[col] = caster(row[col])
            out.append(TrialResult(**kwargs))
    return out


def summary_csv_path(path) -> str:
    """Default CSV-twin location for a summary table path.

    Swaps the file name's final suffix for ``.csv``; appends ``.csv`` when
    that suffix is ``.csv`` or there is none, as for a dotfile such as
    ``.summary``.
    """
    text = str(path)
    suffix = PurePath(text).suffix
    return (text if suffix in ("", ".csv") else text[: -len(suffix)]) + ".csv"


def emit_summary(rows: Sequence[SummaryRow], path, csv_path=None) -> None:
    """Write an aligned text table plus a machine-readable CSV twin.

    The twin defaults to :func:`summary_csv_path` of the table path.
    """
    if csv_path is None:
        csv_path = summary_csv_path(path)

    def cell(row: SummaryRow, col: str) -> str:
        value = getattr(row, col)
        if value is None:
            return "-"
        if isinstance(value, float):
            return format(value, ".6g")
        return str(value)

    table = [list(SUMMARY_COLUMNS)] + [[cell(r, c) for c in SUMMARY_COLUMNS] for r in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(SUMMARY_COLUMNS))]
    with open(path, "w", encoding="utf-8") as fh:
        for line in table:
            fh.write("  ".join(val.rjust(w) for val, w in zip(line, widths)).rstrip() + "\n")

    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for r in rows:
            writer.writerow(
                ["" if getattr(r, c) is None else _fmt(getattr(r, c)) for c in SUMMARY_COLUMNS]
            )
