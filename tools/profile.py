"""End-to-end profile of randcs trials on fixed cells, written to ``BENCH_<label>.json``.

    python tools/profile.py --label L

Runs every method alone through ``harness.run_trial`` at five fixed cells
(n=1000, 2000, 4000 and 8000 at 1 % and n=4000 at 2 % sparsity, the grid's
default k, r0, noise and master seed).  The run is 5 sweeps; each sweep
measures the calibration rates, then runs every (cell, method) in a fresh
Python process, 5 trials each, so a peak RSS is its process's own and
drift over the run falls on every cell alike.  Per trial it records:

* ``end_to_end_s``: the row's ``gen_time_s + wall_time_s``, the inputs the
  method consumed and its recovery call (``wall_time_s`` keeps its meaning);
* ``run_trial_s``: the wall time of the whole ``run_trial`` call, signal
  included;
* ``cpu_s``: the process CPU seconds of that call, all threads summed, so
  ``cpu_s / run_trial_s`` shows how many cores the trial kept busy;
* ``maxrss_mb``: ``ru_maxrss`` of the process after the trial;
* ``sweep``: the sweep it ran in.

The file also records the machine (nproc, CPU model, Python, numpy, its
BLAS and BLAS thread count) and two calibration rates, measured at the
start of every sweep in a process of their own: single-thread Gaussian
draws per second, filling an (8000, 1438) buffer from a Philox stream,
and the seconds of one (1438, 8000) GEMV ``A.T @ b`` on a column-major A,
as a back-projection runs.  Each cell gives the median and quartiles of
its trials' ``end_to_end_s`` and ``cpu_s``, of its processes' peak RSS,
and, under ``calibrated``, of each trial's ``end_to_end_s`` divided by its
own sweep's draw and GEMV times.  Files are compared on those.

The 1 % cells form a doubling series in n, on which ``scaling`` reads the
paper's runtime claim: for each sweep, the least-squares slope of log
median ``end_to_end_s`` against log k*n*r0 for ``rand`` and against log
s*k*n for ``omp``, and the median and quartiles of those slopes.  A slope
of 1 is time in proportion to that work.

The file goes to the repository root; nothing under ``src/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from randcs import harness, sensing  # noqa: E402

CELLS = ((1000, 0.01), (2000, 0.01), (4000, 0.01), (4000, 0.02), (8000, 0.01))
# the doubling series in n at s = n / 100, and the work each method's time is fitted against
SERIES = ((1000, 0.01), (2000, 0.01), (4000, 0.01), (8000, 0.01))
WORK = {"rand": ("k*n*r0", lambda c: c["k"] * c["n"] * c["r0"]),
        "omp": ("s*k*n", lambda c: c["s"] * c["k"] * c["n"])}
METHODS = ("rand", "omp", "biht", "nbiht")
# trials per process, and sweeps: each sweep calibrates, then runs every
# (cell, method) once in a fresh process
TRIALS = 5
SWEEPS = 5
# the calibration shapes: one n=8000, 1 % round
CAL_N, CAL_K = 8000, 1438


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _machine() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: deps.get(key) for key in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):  # numpy builds differ in what they report
        pass
    threads = sensing._openblas_threads()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": None if threads is None else threads[0](),
    }


def _calibrate(repeats: int = 7, gemvs: int = 50) -> dict:
    buffer = np.empty((CAL_N, CAL_K))
    draws = []
    for r in range(repeats):
        generator = np.random.Generator(np.random.Philox(key=[1, r]))
        start = time.perf_counter()
        generator.standard_normal(out=buffer)
        draws.append(time.perf_counter() - start)
    A = buffer.T  # column-major (k, n), as a sampled matrix is
    b = np.random.Generator(np.random.Philox(key=[2, 0])).standard_normal(CAL_K)
    times = []
    for _ in range(gemvs):
        start = time.perf_counter()
        A.T @ b
        times.append(time.perf_counter() - start)
    draw_s, gemv_s = statistics.median(draws), statistics.median(times)
    return {
        "draw_shape": [CAL_N, CAL_K],
        "draw_s": draw_s,
        "normals_per_s": CAL_N * CAL_K / draw_s,
        "draw_repeats": repeats,
        "gemv_shape": [CAL_K, CAL_N],
        "gemv_s": gemv_s,
        "gemv_quartiles_s": statistics.quantiles(times, n=4)[::2],
        "gemv_repeats": gemvs,
    }


def _one(n: int, fraction: float, method: str, trials: int) -> dict:
    """Run ``trials`` trials of one method at one cell in this process."""
    grid = harness.ExperimentGrid(
        n_values=(n,), sparsity_fractions=(fraction,), trials=trials, methods=(method,)
    )
    (_, s), = grid.cells()
    config = harness.trial_config(grid, n, s, 0)
    rows = []
    for trial in range(trials):
        cpu, wall = time.process_time(), time.perf_counter()
        (row,) = harness.run_trial(grid, n, s, trial)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        if not isinstance(row, harness.TrialResult):
            raise RuntimeError(f"{method} at n={n}, s={s}, trial {trial} failed: {row.error}")
        rows.append({
            "trial": trial,
            "end_to_end_s": row.gen_time_s + row.wall_time_s,
            "gen_time_s": row.gen_time_s,
            "wall_time_s": row.wall_time_s,
            "run_trial_s": wall,
            "cpu_s": cpu,
            "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "R": row.R,
        })
    return {"n": n, "fraction": fraction, "s": s, "k": config.k, "r0": config.r0,
            "master_seed": grid.master_seed, "method": method, "trials": rows}


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "quartiles": [q1, q3]}


def _calibration_summary(calibrations: list[dict]) -> dict:
    """The median of each rate over the sweeps, and every sweep's calibration."""
    draw_s = statistics.median(c["draw_s"] for c in calibrations)
    return {"draw_shape": [CAL_N, CAL_K], "draw_s": draw_s, "normals_per_s": CAL_N * CAL_K / draw_s,
            "gemv_shape": [CAL_K, CAL_N],
            "gemv_s": statistics.median(c["gemv_s"] for c in calibrations), "runs": calibrations}


def _cell_summary(runs: list[dict], calibrations: list[dict]) -> dict:
    """One (cell, method) over its sweeps; ``runs[i]`` ran in sweep i, after ``calibrations[i]``.

    Each trial is calibrated by its own sweep's rates, so drift between
    sweeps divides out.  The peak RSS is one value per process.
    """
    cell = {key: value for key, value in runs[0].items() if key != "trials"}
    cell["trials"] = [dict(t, sweep=i) for i, run in enumerate(runs) for t in run["trials"]]
    cell["end_to_end_s"] = _spread([t["end_to_end_s"] for t in cell["trials"]])
    cell["cpu_s"] = _spread([t["cpu_s"] for t in cell["trials"]])
    cell["peak_rss_mb"] = _spread([max(t["maxrss_mb"] for t in run["trials"]) for run in runs])
    cell["calibrated"] = {
        unit: _spread([t["end_to_end_s"] / calibrations[t["sweep"]][key] for t in cell["trials"]])
        for unit, key in (("draws", "draw_s"), ("gemvs", "gemv_s"))
    }
    return cell


def log_slope(x: list[float], y: list[float]) -> float:
    """The least-squares slope of log y against log x."""
    lx, ly = np.log(x), np.log(y)
    lx -= lx.mean()
    return float(lx @ (ly - ly.mean()) / (lx @ lx))


def _scaling(cells: list[dict], sweeps: int) -> dict:
    """Per method of ``WORK``: each sweep's slope over ``SERIES``, and their median and quartiles."""
    out = {}
    for method, (against, work) in WORK.items():
        series = [c for c in cells if c["method"] == method and (c["n"], c["fraction"]) in SERIES]
        slopes = [log_slope([work(c) for c in series],
                            [statistics.median(t["end_to_end_s"] for t in c["trials"]
                                               if t["sweep"] == sweep) for c in series])
                  for sweep in range(sweeps)]
        out[method] = {"against": against, "n": [c["n"] for c in series], "slopes": slopes,
                       **_spread(slopes)}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="the file written is BENCH_<label>.json at the repo root")
    parser.add_argument("--one", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        if args.one == ["calibrate"]:
            print(json.dumps(_calibrate()))
        else:
            n, fraction, method, trials = args.one
            print(json.dumps(_one(int(n), float(fraction), method, int(trials))))
        return 0
    if not args.label or "/" in args.label:
        parser.error("--label must be given, without a slash")

    def child(*words) -> dict:
        # a child inherits its parent's ru_maxrss, so this process allocates no matrix
        out = subprocess.run([sys.executable, __file__, "--one", *map(str, words)],
                             check=True, capture_output=True, text=True).stdout
        return json.loads(out.splitlines()[-1])

    report = {"label": args.label, "command": f"python tools/profile.py --label {args.label}",
              "machine": _machine(), "sweeps": SWEEPS, "trials": TRIALS, "calibration": {},
              "cells": [], "scaling": {}}
    runs = {(n, fraction, method): [] for n, fraction in CELLS for method in METHODS}
    calibrations = []
    for sweep in range(SWEEPS):
        calibrations.append(child("calibrate"))
        for (n, fraction, method), cell_runs in runs.items():
            cell_runs.append(child(n, fraction, method, TRIALS))
            print(f"sweep {sweep}: n={n} {fraction:.0%} {method} done", file=sys.stderr)
    report["calibration"] = _calibration_summary(calibrations)
    for cell_runs in runs.values():
        cell = _cell_summary(cell_runs, calibrations)
        report["cells"].append(cell)
        e2e, cal = cell["end_to_end_s"], cell["calibrated"]
        print(f"n={cell['n']} s={cell['s']} {cell['method']}: end to end {e2e['median']:.4f} s "
              f"[{e2e['quartiles'][0]:.4f}, {e2e['quartiles'][1]:.4f}], "
              f"{cal['draws']['median']:.3f} draws, {cal['gemvs']['median']:.2f} GEMVs, "
              f"peak rss {cell['peak_rss_mb']['median']:.1f} MB", file=sys.stderr)
    report["scaling"] = _scaling(report["cells"], SWEEPS)
    for method, fit in report["scaling"].items():
        print(f"{method}: slope against {fit['against']} {fit['median']:.3f} "
              f"[{fit['quartiles'][0]:.3f}, {fit['quartiles'][1]:.3f}]", file=sys.stderr)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
