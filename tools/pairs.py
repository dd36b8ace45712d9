"""Alternating benchmark runs of two source trees, with each metric's bound check.

    python tools/pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds A-B [--claim METRIC]

For every seed from A to B, the benchmark command of ``PARENT_DIR``'s
``BENCHMARK.json`` runs once in each tree with ``--workload W --seed i
--seconds S --trace 0``, S being that file's ``run_seconds``.  The parent
runs first in the first, third, ... pair and the change first in the
others, so drift of the machine falls on both sides.  Each run's result
line (the JSON object its output ends with) is printed as it arrives.

Then, for each end-to-end metric of that ``BENCHMARK.json``, taking its
``better`` direction and its ``bound``: each side's median and quartiles,
the pairs the change wins, and the bound check.  A metric is "worse" when
the change's median is worse than the parent's by more than the bound,
relative to the parent's median, and "unresolved" when the parent's own
quartile spread, relative to its median, exceeds the bound: the runs then
spread too widely to tell.  The share of failed operations and any
incorrect run are reported too.  With ``--claim METRIC`` the gain rule is
applied as well: the change wins at least 9 pairs in 10 and its median is
ahead by more than the parent's quartile spread.

The exit status is 0 when every metric is "ok", no run is incorrect or
fails, the change fails no larger share of operations and a claim holds,
and 1 otherwise.  The script writes no file; the benchmark writes its
scratch files under each tree's ``.bench_build/``.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, lower quartile, upper quartile) of at least two values."""
    q1, _, q3 = quantiles(values, n=4)
    return median(values), q1, q3


def _relative(delta: float, ref: float) -> float:
    return delta / abs(ref) if ref else math.copysign(math.inf, delta) if delta else 0.0


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare a metric's paired runs; run i of each side is one pair.

    Returns each side's ``summary``, the change's ``wins`` (pairs where it is
    strictly better), ``worse_by`` (how far the change's median is worse
    than the parent's, relative to the parent's median; negative when it is
    better), ``spread`` (the parent's quartile spread relative to its
    median), ``gain_holds`` (at least 9 wins in 10, and the median ahead by
    more than the parent's quartile spread) and ``status``: "unresolved"
    when ``spread`` exceeds ``bound``, else "worse" when ``worse_by`` does,
    else "ok".
    """
    if better not in ("higher", "lower") or len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need 'higher' or 'lower' and two sides of equal length, at least 2 pairs")
    sign = 1.0 if better == "higher" else -1.0
    (p_med, p_q1, p_q3), (c_med, c_q1, c_q3) = summary(parent), summary(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    worse_by = _relative(sign * (p_med - c_med), p_med)
    spread = _relative(p_q3 - p_q1, p_med)
    status = "unresolved" if spread > bound else "worse" if worse_by > bound else "ok"
    return {
        "parent": (p_med, p_q1, p_q3),
        "change": (c_med, c_q1, c_q3),
        "wins": wins,
        "pairs": len(parent),
        "worse_by": worse_by,
        "spread": spread,
        "gain_holds": wins >= math.ceil(0.9 * len(parent)) and sign * (c_med - p_med) > p_q3 - p_q1,
        "status": status,
    }


def _seeds(text: str) -> range:
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last) + 1)
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"need A-B with at least two seeds, got {text!r}")
    return seeds


def _run(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run in ``tree``: its result object, or None when it gave none."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        print(f"  no result (exit {done.returncode}): {done.stderr.strip()[-500:]}")
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="A-B, both included")
    parser.add_argument("--claim", metavar="METRIC", help="also check a claimed gain in METRIC")
    args = parser.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if args.claim is not None and args.claim not in metrics:
        parser.error(f"--claim must name one of {sorted(metrics)}")

    runs = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = _run(getattr(args, side), spec["command"], args.workload, seed, spec["run_seconds"])
            print(f"pair {i + 1} seed {seed} {side}: {json.dumps(result)}", flush=True)
            runs[side].append(result)

    ok = True
    if any(r is None or not r["correct"] for side in runs.values() for r in side):
        print("a run gave no result or was incorrect")
        ok = False
    complete = [i for i in range(len(args.seeds)) if runs["parent"][i] and runs["change"][i]]
    if len(complete) < 2:
        print("fewer than two complete pairs")
        return 1
    shares = {}
    for side, results in runs.items():
        failed = sum(results[i]["failed"] for i in complete)
        attempted = sum(results[i]["attempted"] for i in complete)
        shares[side] = failed / attempted if attempted else 0.0
        print(f"{side}: {failed} of {attempted} operations failed")
    ok &= shares["change"] <= shares["parent"]

    print(f"{'metric':<14}{'parent median [q1, q3]':>32}{'change median [q1, q3]':>32}"
          f"{'wins':>8}{'worse by':>10}{'spread':>8}{'bound':>7}  status")
    for name, m in metrics.items():
        sides = [[runs[side][i]["metrics"][name]["value"] for i in complete] for side in runs]
        v = verdict(*sides, m["better"], m["bound"])
        cells = ["{:.4g} [{:.4g}, {:.4g}]".format(*v[side]) for side in ("parent", "change")]
        print(f"{name:<14}{cells[0]:>32}{cells[1]:>32}{v['wins']:>5}/{v['pairs']:<2}"
              f"{v['worse_by']:>+10.1%}{v['spread']:>8.1%}{m['bound']:>7.0%}  {v['status']}")
        ok &= v["status"] == "ok"
        if name == args.claim:
            print(f"claim {name}: {'holds' if v['gain_holds'] else 'does not hold'}")
            ok &= v["gain_holds"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
