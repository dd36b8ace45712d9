#!/usr/bin/env python3
"""randcs benchmark: one workload per process, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics, measured untraced.  With ``--trace 1``
it carries the per-layer metrics of a traced run instead, and the spans
are written to ``.bench_build/perfbench/``.  See README.md in this
directory for the workloads, the metrics and the layer each one tracks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean, median, quantiles

import numpy as np

import reference
from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SIGMA_W = 0.1
NOISE_MODE = "experiment"
BIHT_ITERS = 100
BIHT_STEP = 1.0
SETUP_REPEATS = 5
# criterion 4 of the acceptance suite: mean Jaccard floor for rand and OMP
JACCARD_FLOOR = 0.95
# a baselines round is one run_grid call of one trial per method
BASELINE_TRIALS = 1
BASELINE_METHODS = ("omp", "biht", "nbiht")
HARNESS_METHODS = ("rand",) + BASELINE_METHODS


@dataclass(frozen=True)
class Cell:
    n: int
    s: int
    k: int
    r0: int

    @property
    def fraction(self) -> float:
        return self.s / self.n

    @property
    def noise_sd(self) -> float:
        return reference.noise_sd(SIGMA_W, NOISE_MODE, self.k)


# k = ceil(2 s ln n) and r0 = ceil(ln n), the program's defaults, pinned here
# so that a change of default cannot silently change the workload
PAPER_CELL = Cell(n=8000, s=80, k=1438, r0=9)
SMALL_CELL = Cell(n=2000, s=20, k=305, r0=8)
WARMUP_INDEX = 1 << 40  # a round index no timed round reaches
PROBE_SIGNALS = 20

# bound in main() once the sources are found, so that a directory without
# them fails before anything is measured
rc = None


@dataclass
class Op:
    """One attempted operation: a trial of one method, or one signal."""

    method: str
    seed: int
    R: float = float("nan")
    pred_size: int = 0
    true_size: int = 0
    inter_size: int = 0
    gen_time_s: float | None = None
    wall_time_s: float | None = None
    support: frozenset[int] | None = None
    values: np.ndarray | None = None
    error: str | None = None


@dataclass
class Session:
    """What one workload object measured in a traced run."""

    workload: "Workload"
    tracer: Tracer
    untraced_ops: list[Op] = field(default_factory=list)
    untraced_op_s: list[float] = field(default_factory=list)
    traced_ops: list[Op] = field(default_factory=list)


def derive(seed: int, *words: int) -> int:
    return int(np.random.SeedSequence([seed, *words]).generate_state(1, np.uint64)[0])


def true_support(z: np.ndarray) -> frozenset[int]:
    return frozenset(int(i) for i in np.flatnonzero(z))


def op_from_support(method: str, seed: int, support, z: np.ndarray) -> Op:
    true = true_support(z)
    return Op(
        method=method,
        seed=seed,
        R=reference.jaccard(support, true),
        pred_size=len(support),
        true_size=len(true),
        inter_size=len(support & true),
        support=frozenset(support),
    )


def op_from_row(row) -> Op:
    return Op(
        method=row.method,
        seed=row.seed,
        R=row.R,
        pred_size=row.pred_size,
        true_size=row.true_size,
        inter_size=row.inter_size,
        gen_time_s=row.gen_time_s,
        wall_time_s=row.wall_time_s,
    )


def row_error(op: Op, cell: Cell) -> str | None:
    """Properties every trial row must have, recomputed apart from the harness."""
    if op.error:
        return op.error
    if op.true_size != cell.s:
        return f"true support has {op.true_size} coordinates, expected {cell.s}"
    if not 0 <= op.inter_size <= min(op.pred_size, op.true_size):
        return f"intersection {op.inter_size} exceeds a support size"
    union = op.pred_size + op.true_size - op.inter_size
    if op.R != (op.inter_size / union if union else 1.0):
        return f"R={op.R!r} is not inter/(pred+true-inter)"
    if op.method in ("biht", "nbiht") and op.pred_size > cell.s:
        return f"{op.method} predicted {op.pred_size} > s={cell.s} coordinates"
    return None


class Workload:
    name: str

    def __init__(self, seed: int, cell: Cell):
        self.seed = seed
        self.cell = cell
        self.errors: list[str] = []  # wrong outputs that belong to no single operation

    def config(self, seed: int):
        c = self.cell
        return rc.RecoveryConfig(
            n=c.n, s=c.s, k=c.k, r0=c.r0, sigma_w=SIGMA_W, noise_mode=NOISE_MODE, master_seed=seed
        )

    def grid(self, master_seed: int, methods, trials: int, workers: int):
        return rc.ExperimentGrid(
            n_values=(self.cell.n,),
            sparsity_fractions=(self.cell.fraction,),
            trials=trials,
            methods=methods,
            sigma_w=SIGMA_W,
            noise_mode=NOISE_MODE,
            master_seed=master_seed,
            k_override=self.cell.k,
            r0_override=self.cell.r0,
            biht_max_iters=BIHT_ITERS,
            biht_step=BIHT_STEP,
            workers=workers,
        )

    def run_grid(self, grid) -> tuple[list[Op], float]:
        t = time.perf_counter()
        outcome = rc.run_grid(grid)
        seconds = time.perf_counter() - t
        ops = [op_from_row(r) for r in outcome.results]
        ops += [Op(method=f.method, seed=-1, error=f"{f.method} raised: {f.error}") for f in outcome.failures]
        return ops, seconds

    def setup(self, tracer) -> float:
        """Prepare what every round shares; returns the seconds it took."""
        return 0.0

    def warm_up(self) -> list[Op]:
        """One untimed round at full size, so that first-call costs stay out of the timed rounds."""
        return self.round(WARMUP_INDEX)[0]

    def round(self, i: int, serial: bool = False) -> tuple[list[Op], float]:
        """One untraced round of whole operations, and its seconds."""
        raise NotImplementedError

    def traced_round(self, i: int, tracer: Tracer) -> list[Op]:
        """The same operations as ``round``, made of the public calls run_trial makes, each in a span."""
        raise NotImplementedError

    def probe(self, tracer: Tracer) -> None:
        """Time, after the traced rounds, calls that no operation makes directly."""

    def recomputed(self, ops: list[Op]) -> list[Op]:
        """The operations whose outputs are recomputed apart from the program."""
        return []

    def recompute(self, op: Op) -> str | None:
        raise NotImplementedError

    def check(self, ops: list[Op]) -> None:
        """Set ``error`` on every operation whose output is wrong."""
        for op in ops:
            op.error = row_error(op, self.cell)
        for op in self.recomputed(ops):
            if op.error is None:
                try:
                    op.error = self.recompute(op)
                except Exception as exc:  # noqa: BLE001 - a crash in the program fails the operation
                    op.error = f"recomputation raised {exc!r}"


def rand_trial(w: Workload, seed: int, z: np.ndarray, tracer):
    """The calls run_trial makes for ``rand``, one span each under a trial span."""
    c = w.cell
    with tracer.span("trial", method="rand") as trial:
        with tracer.span("sensing.build_ensemble", trial, normals=2 * c.r0 * c.k * c.n):
            ensemble = rc.build_ensemble(w.config(seed))
        with tracer.span("sensing.measure", trial):
            measurements = rc.measure(ensemble, z, SIGMA_W, NOISE_MODE, seed)
        with tracer.span("recovery.determine_support", trial):
            support = rc.determine_support(ensemble, measurements)
    return ensemble, measurements, support


def recovery_probes(w: Workload, ensemble, measurements, tracer) -> None:
    """Time the steps determine_support and recover_suppressed are built from."""
    c = w.cell
    with tracer.span("recovery.estimate_noise_floor"):
        rc.estimate_noise_floor(measurements, range(c.r0, 2 * c.r0), c.k)
    with tracer.span("recovery.back_project", bytes=c.r0 * c.k * c.n * 8):
        rc.back_project(ensemble, measurements, range(c.r0))


def first_measurement(A1: np.ndarray, z: np.ndarray, seed: int, c: Cell) -> np.ndarray:
    """OMP's measurement vector, with the same arithmetic run_trial uses."""
    return A1 @ z + c.noise_sd * reference.generator(seed, 2 * c.r0 + 1).standard_normal(c.k)


def reference_mismatch(op: Op, matrices, c: Cell) -> str | None:
    z = reference.binary_signal(op.seed, c.n, c.s)
    ref = reference.ensemble_estimate(matrices, z, op.seed, c.r0, c.noise_sd)
    return reference.support_mismatch(op.support, ref) or reference.values_mismatch(op.values, ref)


class FreshEnsemble(Workload):
    name = "fresh-ensemble"

    def warm_up(self):
        # the warm-up trial goes through the public calls, so that its support
        # and values can be held against the plain-numpy reference
        seed = derive(self.seed, WARMUP_INDEX)
        z = reference.binary_signal(seed, self.cell.n, self.cell.s)
        ensemble, measurements, support = rand_trial(self, seed, z, NullTracer())
        op = op_from_support("rand", seed, support, z)
        op.values = rc.recover_suppressed(ensemble, measurements).values
        return [op]

    def round(self, i, serial=False):
        return self.run_grid(self.grid(derive(self.seed, i), ("rand",), 1, 1))

    def traced_round(self, i, tracer):
        seed = derive(self.seed, i, 1)
        z = reference.binary_signal(seed, self.cell.n, self.cell.s)
        ensemble, measurements, support = rand_trial(self, seed, z, tracer)
        recovery_probes(self, ensemble, measurements, tracer)
        with tracer.span("recovery.recover_suppressed"):
            rc.recover_suppressed(ensemble, measurements)
        return [op_from_support("rand", seed, support, z)]

    def recomputed(self, ops):
        return [op for op in ops if op.values is not None]

    def recompute(self, op):
        c = self.cell
        return reference_mismatch(op, lambda r: reference.matrix(op.seed, r + 1, c.k, c.n), c)


class Baselines(Workload):
    name = "baselines"

    def round(self, i, serial=False):
        workers = 1 if serial else (os.cpu_count() or 1)
        return self.run_grid(self.grid(derive(self.seed, i), BASELINE_METHODS, BASELINE_TRIALS, workers))

    def traced_round(self, i, tracer):
        c = self.cell
        ops = []
        for t in range(BASELINE_TRIALS):
            seed = derive(self.seed, i, t, 1)
            z = reference.binary_signal(seed, c.n, c.s)
            for method in BASELINE_METHODS:
                with tracer.span("trial", method=method) as trial:
                    with tracer.span("numerics.sample_first_matrix", trial):
                        A1 = rc.sample_gaussian_matrix(rc.GaussianSource(seed).stream(1), c.k, c.n, 1.0 / c.k)
                    if method == "omp":
                        with tracer.span("bench.first_measurement", trial):
                            b1 = first_measurement(A1, z, seed, c)
                        with tracer.span("baselines.omp", trial, steps=c.s):
                            support = rc.omp(A1, b1, c.s).support
                    else:
                        solver = rc.biht if method == "biht" else rc.nbiht
                        with tracer.span("baselines.sign_quantize", trial):
                            signs = rc.sign_quantize(A1, z)
                        with tracer.span(f"baselines.{method}", trial, steps=BIHT_ITERS):
                            support = solver(A1, signs, c.s, BIHT_ITERS, BIHT_STEP).support
                ops.append(op_from_support(method, seed, support, z))
        return ops

    def recomputed(self, ops):
        return [op for op in ops if op.method == "omp"][:1]

    def recompute(self, op):
        """Rerun OMP on the trial's data and compare with a plain-numpy greedy refit."""
        c = self.cell
        z = reference.binary_signal(op.seed, c.n, c.s)
        A1 = rc.sample_gaussian_matrix(rc.GaussianSource(op.seed).stream(1), c.k, c.n, 1.0 / c.k)
        support = rc.omp(A1, first_measurement(A1, z, op.seed, c), c.s).support
        if (len(support), len(support & true_support(z))) != (op.pred_size, op.inter_size):
            return "run_grid row disagrees with the same OMP trial rerun"
        A_ref = reference.matrix(op.seed, 1, c.k, c.n)
        if not np.allclose(A1, A_ref, rtol=1e-12, atol=0):
            return "first sensing matrix differs from the stream map"
        b_ref = reference.noisy_product(A_ref, z, op.seed, 2 * c.r0 + 1, c.noise_sd)
        expected, ambiguous = reference.omp_support(A_ref, b_ref, c.s)
        if support != expected and not ambiguous:
            return f"OMP support differs from the lstsq greedy at {sorted(support ^ expected)[:5]}"
        return None


class ReusedEnsemble(Workload):
    name = "reused-ensemble"

    def __init__(self, seed, cell):
        super().__init__(seed, cell)
        self.ensemble_seed = derive(seed, 0)
        self.ensemble = None

    def setup(self, tracer) -> float:
        c = self.cell
        path = WORK / f"ensemble-{os.getpid()}.rcs1"
        self.ensemble = None
        t = time.perf_counter()
        with tracer.span("sensing.build_ensemble", normals=2 * c.r0 * c.k * c.n):
            built = rc.build_ensemble(self.config(self.ensemble_seed))
        try:
            with tracer.span("sensing.dump_ensemble"):
                rc.dump_ensemble(built, path)
            with tracer.span("sensing.load_ensemble"):
                self.ensemble = rc.load_ensemble(path)
        finally:
            path.unlink(missing_ok=True)
        seconds = time.perf_counter() - t
        loaded = self.ensemble
        same = (built.n, built.k, built.r0, built.master_seed) == (loaded.n, loaded.k, loaded.r0, loaded.master_seed)
        if not same or not all(np.array_equal(a, b) for a, b in zip(built.matrices, loaded.matrices)):
            self.errors.append("the loaded RCS1 ensemble differs from the one written")
        return seconds

    def signal(self, i: int, tracer) -> tuple[Op, float]:
        c = self.cell
        seed = derive(self.seed, i, 2)
        z = reference.binary_signal(seed, c.n, c.s)
        t = time.perf_counter()
        with tracer.span("signal", method="rand") as op:
            with tracer.span("sensing.measure", op):
                measurements = rc.measure(self.ensemble, z, SIGMA_W, NOISE_MODE, seed)
            with tracer.span("recovery.determine_support", op):
                support = rc.determine_support(self.ensemble, measurements)
            with tracer.span("recovery.recover_suppressed", op):
                values = rc.recover_suppressed(self.ensemble, measurements).values
        seconds = time.perf_counter() - t
        result = op_from_support("rand", seed, support, z)
        result.values = values
        return result, seconds

    def round(self, i, serial=False):
        op, seconds = self.signal(i, NullTracer())
        return [op], seconds

    def traced_round(self, i, tracer):
        return [self.signal(i, tracer)[0]]

    def probe(self, tracer):
        c = self.cell
        for i in range(PROBE_SIGNALS):
            seed = derive(self.seed, WARMUP_INDEX + 1 + i, 2)
            z = reference.binary_signal(seed, c.n, c.s)
            measurements = rc.measure(self.ensemble, z, SIGMA_W, NOISE_MODE, seed)
            recovery_probes(self, self.ensemble, measurements, tracer)

    def recomputed(self, ops):
        return ops

    def recompute(self, op):
        return reference_mismatch(op, self.reference_matrices.__getitem__, self.cell)

    def check(self, ops):
        c = self.cell
        self.reference_matrices = [reference.matrix(self.ensemble_seed, r + 1, c.k, c.n) for r in range(2 * c.r0)]
        if not all(np.allclose(a, b, rtol=1e-12, atol=0) for a, b in zip(self.reference_matrices, self.ensemble.matrices)):
            self.errors.append("the ensemble differs from the stream map")
        super().check(ops)


WORKLOADS = {
    "fresh-ensemble": (FreshEnsemble, PAPER_CELL),
    "baselines": (Baselines, PAPER_CELL),
    "reused-ensemble": (ReusedEnsemble, SMALL_CELL),
}


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the program and exits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import randcs"], env=env, check=True, timeout=120)
    return time.perf_counter() - t


def measure_setup(w: Workload, tracer) -> tuple[float, list[Op]]:
    """Set-up seconds: the median of repeated import and preparation, then one warm-up round."""
    prepare = median(import_seconds() + w.setup(tracer) for _ in range(SETUP_REPEATS))
    t = time.perf_counter()
    ops = w.warm_up()
    return prepare + time.perf_counter() - t, ops


def timed_rounds(w: Workload, seconds: float) -> tuple[list[Op], list[float], list[float]]:
    """Whole rounds until ``seconds`` have passed.

    Returns the operations, each round's rate (operations over the round's
    wall time, input generation included) and each round's own timer.
    """
    ops, rates, round_s = [], [], []
    start = time.perf_counter()
    while not rates or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        round_ops, s = w.round(len(rates))
        rates.append(len(round_ops) / (time.perf_counter() - t))
        ops += round_ops
        round_s.append(s)
    return ops, rates, round_s


def traced_session(w: Workload, tracer: Tracer, seconds: float) -> Session:
    """Alternate untraced (serial) and traced rounds, in whole pairs, at least one pair."""
    session = Session(workload=w, tracer=tracer)
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        # alternate which side runs first, so that neither always follows the other
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                session.traced_ops += w.traced_round(i, tracer)
            else:
                ops, s = w.round(i, serial=True)
                session.untraced_ops += ops
                session.untraced_op_s += [s / len(ops)] * len(ops)
        i += 1
    w.probe(tracer)
    return session


def sweep(current: str, seed: int, tracer: Tracer) -> list[Session]:
    """One untraced and one traced round of every other workload, on the small cell.

    It measures the layers the current workload never calls, so that every
    traced run reports every per-layer metric.
    """
    sessions = []
    for name, (cls, _) in WORKLOADS.items():
        if name != current:
            w = cls(derive(seed, 99), SMALL_CELL)
            w.setup(tracer)
            w.warm_up()
            sessions.append(traced_session(w, tracer, 0.0))
    return sessions


def failed_jaccard_floors(ops: list[Op]) -> list[str]:
    out = []
    for method in ("rand", "omp"):
        scores = [op.R for op in ops if op.method == method and op.error is None]
        if scores and mean(scores) < JACCARD_FLOOR:
            out.append(f"mean {method} Jaccard {mean(scores):.4f} below {JACCARD_FLOOR}")
    return out


def operation_spans(tracer: Tracer) -> list[dict]:
    return [x for x in tracer.spans if x["parent"] is None and x["name"] in ("trial", "signal")]


def layer_metrics(primary: Session, others: list[Session]) -> dict[str, tuple[float, str]]:
    sessions = [primary] + others

    def first(fn):
        for s in sessions:
            value = fn(s)
            if value is not None:
                return value
        raise RuntimeError("no session measured this layer")

    def self_time(name):
        return lambda s: s.tracer.median_self(name) if s.tracer.named(name) else None

    def rate(name, attr, scale):
        def fn(s):
            spans = s.tracer.named(name)
            return median(x[attr] / scale / (x["end"] - x["start"]) for x in spans) if spans else None
        return fn

    def per_step(name):
        def fn(s):
            spans = s.tracer.named(name)
            return median((x["end"] - x["start"]) / x["steps"] for x in spans) if spans else None
        return fn

    metrics = {}
    for name in (
        "numerics.sample_first_matrix",
        "sensing.build_ensemble",
        "sensing.measure",
        "sensing.dump_ensemble",
        "sensing.load_ensemble",
        "recovery.estimate_noise_floor",
        "recovery.back_project",
        "recovery.determine_support",
        "recovery.recover_suppressed",
        "baselines.sign_quantize",
        "baselines.omp",
        "baselines.biht",
        "baselines.nbiht",
    ):
        metrics[name + "_s"] = (first(self_time(name)), "s")
    metrics["numerics.gaussian_mnps"] = (first(rate("sensing.build_ensemble", "normals", 1e6)), "M/s")
    metrics["recovery.back_project_gbps"] = (first(rate("recovery.back_project", "bytes", 1e9)), "GB/s")
    metrics["baselines.omp_step_s"] = (first(per_step("baselines.omp")), "s")
    metrics["baselines.biht_iter_s"] = (first(per_step("baselines.biht")), "s")
    metrics["baselines.nbiht_iter_s"] = (first(per_step("baselines.nbiht")), "s")

    def serial_rate(s):
        if not isinstance(s.workload, Baselines):
            return None
        return len(s.untraced_op_s) / sum(s.untraced_op_s)

    metrics["harness.serial_trials_per_s"] = (first(serial_rate), "1/s")
    for method in HARNESS_METHODS:
        def rows(s, method=method):
            return [op for op in s.untraced_ops if op.method == method and op.gen_time_s is not None]

        for col in ("gen_time_s", "wall_time_s"):
            metrics[f"harness.{method}_{col}"] = (
                first(lambda s, col=col: median(getattr(op, col) for op in rows(s)) if rows(s) else None), "s"
            )
        metrics[f"harness.{method}_jaccard"] = (
            first(lambda s: mean(op.R for op in rows(s)) if rows(s) else None), "ratio"
        )

    traced_op_s = [x["end"] - x["start"] for x in operation_spans(primary.tracer)]
    metrics["trace.overhead_s"] = (median(traced_op_s) - median(primary.untraced_op_s), "s")
    return metrics


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        facts["cpu"] = "unknown"
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                facts[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    facts["blas_threads"] = blas_threads()
    return facts


def blas_threads() -> int | str:
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def report(ops: list[Op], extra_errors: list[str], metrics: dict, info: list[str]) -> dict:
    failed = [op for op in ops if op.error]
    for line in info:
        print(line)
    for op in failed[:10]:
        print(f"FAILED {op.method} seed={op.seed}: {op.error}")
    for err in extra_errors:
        print(f"INCORRECT: {err}")
    print(f"attempted {len(ops)} failed {len(failed)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": not extra_errors,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "randcs" / "__init__.py").is_file():
        print(f"no randcs sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global rc
    import randcs as rc

    WORK.mkdir(parents=True, exist_ok=True)
    seed = args.seed & ((1 << 63) - 1)
    cls, cell = WORKLOADS[args.workload]
    w = cls(seed, cell)
    facts = machine_facts()
    info = ["machine " + json.dumps(facts), f"workload {w.name} seed {args.seed} cell {cell}"]

    if args.trace:
        tracer = Tracer("workload")
        _, ops = measure_setup(w, tracer)
        session = traced_session(w, tracer, args.seconds)
        sweep_tracer = Tracer("sweep")
        others = sweep(w.name, seed, sweep_tracer)
        ops += session.untraced_ops + session.traced_ops
        metrics = layer_metrics(session, others)
        own = tracer.self_times()
        gaps = [own[x["id"]] for x in operation_spans(tracer)]
        info.append(
            f"trace: {len(gaps)} traced operations; median time outside the layer spans {median(gaps):.3g} s"
            f" against trace.overhead_s {metrics['trace.overhead_s'][0]:.3g} s"
        )
        path = WORK / f"trace-{w.name}-{args.seed}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"machine": facts, "workload": w.name, "seed": args.seed}) + "\n")
            for span in tracer.spans + sweep_tracer.spans:
                fh.write(json.dumps(span) + "\n")
        info.append(f"spans written to {path.relative_to(ROOT)}")
    else:
        setup_s, warm_ops = measure_setup(w, NullTracer())
        start = time.perf_counter()
        timed_ops, rates, round_s = timed_rounds(w, args.seconds)
        elapsed = time.perf_counter() - start
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        ops = warm_ops + timed_ops
        metrics = {
            "setup_s": (setup_s, "s"),
            # the median round, so that a burst of load from outside the
            # process moves the figure less than the mean would
            "trials_per_s": (median(rates), "1/s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "mean_jaccard": (mean(op.R for op in ops), "ratio"),
        }
        info.append(
            f"{len(round_s)} timed rounds, {len(timed_ops)} operations in {elapsed:.3f} s"
            f" ({len(timed_ops) / elapsed:.6g} per second on average)"
        )
        # a percentile is a tail only with at least ten samples beyond it
        tails = [(p, quantiles(round_s, n=100)[p - 1]) for p in (90, 99) if len(round_s) * (100 - p) >= 1000]
        info.append(
            f"round_s p50 {median(round_s):.6g}"
            + "".join(f" p{p} {v:.6g}" for p, v in tails)
            + f" s (n={len(round_s)})"
        )

    w.check(ops)
    errors = failed_jaccard_floors(ops) + w.errors
    print(json.dumps(report(ops, errors, metrics, info)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
