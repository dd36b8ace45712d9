"""Command-line interface.

``randcs bench`` runs the benchmark grid and writes the per-trial CSV and
summary table.  ``randcs recover`` runs one recovery algorithm on an
ensemble/measurements fixture pair.  Exit codes: 0 on success, 1 on usage
errors, 2 when any benchmark cell exceeds the failed-trial limit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .harness import (
    METHODS,
    ExperimentGrid,
    emit_csv,
    emit_summary,
    run_grid,
    summary_csv_path,
)
from .recovery import determine_support, recover_basic, recover_suppressed
from .sensing import NOISE_MODES, load_ensemble, load_measurements

USAGE_ERROR = 1
FAILURE_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def _method_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="randcs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run the benchmark grid", parents=[], add_help=True)
    bench.add_argument("--n", type=_int_list, default=[2000, 4000, 8000],
                       help="comma-separated signal sizes (default 2000,4000,8000)")
    bench.add_argument("--sparsity-pct", type=_float_list, default=[1, 2, 4, 8],
                       help="comma-separated sparsity percentages of n (default 1,2,4,8)")
    bench.add_argument("--trials", type=int, default=50,
                       help="independent trials per cell (default 50; 273 for full runs)")
    bench.add_argument("--methods", type=_method_list, default=list(METHODS),
                       help=f"comma-separated subset of {','.join(METHODS)}")
    bench.add_argument("--sigma-w", type=float, default=0.1, help="noise level (default 0.1)")
    bench.add_argument("--noise-mode", choices=NOISE_MODES, default="experiment")
    bench.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    bench.add_argument("--out", default="results.csv", help="per-trial CSV path")
    bench.add_argument("--summary", default="summary.txt", help="summary table path")
    bench.add_argument("--k", type=int, default=None,
                       help="override measurement count (default ceil(2 s ln n))")
    bench.add_argument("--r0", type=int, default=None,
                       help="override round count (default ceil(ln n))")
    bench.add_argument("--biht-iters", type=int, default=100)
    bench.add_argument("--biht-step", type=float, default=1.0)
    bench.add_argument("--workers", type=int, default=1, help="trial worker pool size")

    recover = sub.add_parser("recover", help="run one recovery on fixture files")
    recover.add_argument("--ensemble", required=True, help="ensemble fixture file")
    recover.add_argument("--measurements", required=True, help="measurements fixture file")
    recover.add_argument("--algorithm", required=True, choices=("basic", "suppressed", "support"))
    recover.add_argument("--out", default=None,
                         help="write the recovered vector here as little-endian float64 "
                              "(basic and suppressed only)")
    return parser


def _run_bench(args) -> int:
    if os.path.abspath(args.out) == os.path.abspath(args.summary):
        print("randcs bench: --out and --summary must name different files", file=sys.stderr)
        return USAGE_ERROR
    try:
        grid = ExperimentGrid(
            n_values=tuple(args.n),
            sparsity_fractions=tuple(p / 100.0 for p in args.sparsity_pct),
            trials=args.trials,
            methods=tuple(args.methods),
            sigma_w=args.sigma_w,
            noise_mode=args.noise_mode,
            master_seed=args.seed,
            k_override=args.k,
            r0_override=args.r0,
            biht_max_iters=args.biht_iters,
            biht_step=args.biht_step,
            workers=args.workers,
        )
    except ValueError as exc:
        print(f"randcs bench: {exc}", file=sys.stderr)
        return USAGE_ERROR

    outcome = run_grid(grid)
    try:
        emit_csv(outcome.results, args.out)
        twin = summary_csv_path(args.summary)
        if os.path.abspath(twin) == os.path.abspath(args.out):
            twin = str(args.summary) + ".csv"  # keep the twin off the results file
        emit_summary(outcome.summaries, args.summary, twin)
        with open(args.summary, encoding="utf-8") as fh:
            sys.stdout.write(fh.read())
    except OSError as exc:
        print(f"randcs bench: {exc}", file=sys.stderr)
        return USAGE_ERROR
    for failure in outcome.failures:
        print(
            f"failed trial: method={failure.method} n={failure.n} s={failure.s} "
            f"trial={failure.trial} seed={failure.seed}: {failure.error}",
            file=sys.stderr,
        )
    if outcome.has_excess_failures():
        print("error: a grid cell exceeded the failed-trial limit", file=sys.stderr)
        return FAILURE_ERROR
    return 0


def _run_recover(args) -> int:
    if args.out and args.algorithm == "support":
        print("randcs recover: --out writes values, and support recovers none", file=sys.stderr)
        return USAGE_ERROR
    try:
        ensemble = load_ensemble(args.ensemble)
        measurements = load_measurements(args.measurements)
    except (OSError, ValueError) as exc:
        print(f"randcs recover: {exc}", file=sys.stderr)
        return USAGE_ERROR
    header = (ensemble.n, ensemble.k, ensemble.r0, ensemble.master_seed)
    if header != (measurements.n, measurements.k, measurements.r0, measurements.master_seed):
        print("randcs recover: ensemble and measurements headers disagree", file=sys.stderr)
        return USAGE_ERROR

    report = {
        "algorithm": args.algorithm,
        "n": ensemble.n,
        "k": ensemble.k,
        "r0": ensemble.r0,
        "seed": ensemble.master_seed,
    }
    values = None
    if args.algorithm == "support":
        support = determine_support(ensemble, measurements)
    else:
        recover = recover_basic if args.algorithm == "basic" else recover_suppressed
        result = recover(ensemble, measurements)
        support = result.support
        values = result.values
    report["support"] = sorted(support)
    report["support_size"] = len(support)
    if args.out:
        try:
            np.asarray(values, dtype="<f8").tofile(args.out)
        except OSError as exc:
            print(f"randcs recover: {exc}", file=sys.stderr)
            return USAGE_ERROR
        report["values_file"] = args.out
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "bench":
        return _run_bench(args)
    return _run_recover(args)


if __name__ == "__main__":
    sys.exit(main())
