"""One SHA-256 over the program's outputs, to check that a change keeps them byte for byte.

Hashes, for each of a few (n, k, r0) cells, three signals, two noise
conventions and three forms of the same ensemble (seeded, read back from
an RCS2 file, and a hand-built tuple of its matrices):

* the ``measure`` vectors, and the same vectors after a
  ``dump_measurements`` → ``load_measurements`` round trip;
* ``back_project`` on the kept rounds and on measurements without them,
  over forward, reversed and stepped ranges;
* ``recover_basic``, ``recover_suppressed`` and ``determine_support``,
  and ``recovery._estimate`` of every method on the loaded measurements,
  as ``randcs recover`` calls it;
* ``sign_quantize``, ``omp``, ``biht`` and ``nbiht`` (30 iterations) on
  round 0;

and the ``run_trial`` rows of all four methods at (n, s) = (700, 7) and
(2002, 20) with sigma_w = 0.1, and at (700, 7) with sigma_w = 2, every
column but the timings ``wall_time_s`` and ``gen_time_s``, together with
each method's predicted support at those trials as ``harness._run_method``
returns it, so harness edits are checked too.  At sigma_w = 2 OMP misses
part of the support, and which part moves with the noise draw while its
scores need not, so a change to the baselines' inputs shows there.  The
rows of ``run_grid`` on one small grid of all four methods are hashed in
its order, with the same columns, at ``workers`` 1 and 2, so the trial
runner is checked as well.

OpenBLAS is held at one thread, so the digest does not depend on the
core count.  Run it on one source tree, or against a git revision:

    python tools/hash_outputs.py [SOURCE_DIR] [--against REF]

``SOURCE_DIR`` is the directory holding the ``randcs`` package (default:
this checkout's ``src``).  With ``--against REF``, REF's ``src`` is
exported with ``git archive`` into a temporary directory, both trees are
hashed, each in a process of its own, and both digests are printed; the
exit status is 1 when they differ and 2 when REF cannot be exported.  One
tree takes well under a minute.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

CELLS = ((300, 17, 4), (700, 5, 3), (2000, 305, 4), (2002, 40, 3), (4001, 17, 3))
NOISE = ((0.1, "experiment"), (0.0, "theory"))
TRIAL_CELLS = ((700, 7, 0.1), (2002, 20, 0.1), (700, 7, 2.0))
TRIALS = 3
TIMINGS = ("wall_time_s", "gen_time_s")


def _signals(n: int, seed: int, generate_binary_signal) -> list[np.ndarray]:
    """A 0/1 signal of n/100 ones, a signed one of n/10 entries over six decades, and zeros.

    The all-zero signal's noiseless measurements give the zero threshold,
    so the rule for it is hashed too.
    """
    rng = np.random.default_rng(seed)
    spread = np.zeros(n)
    support = rng.choice(n, size=max(1, n // 10), replace=False)
    spread[support] = rng.standard_normal(support.size) * 10.0 ** rng.integers(-3, 4, support.size)
    return [generate_binary_signal(seed, n, max(1, n // 100)), spread, np.zeros(n)]


def main(source: Path) -> str:
    sys.path.insert(0, str(source))
    from randcs import baselines, harness, recovery, sensing

    digest = hashlib.sha256()

    def feed(label: str, value) -> None:
        if isinstance(value, frozenset):
            value = np.array(sorted(value), dtype=np.int64)
        value = np.ascontiguousarray(value)
        digest.update(f"{label} {value.dtype} {value.shape}".encode())
        digest.update(value.tobytes())

    def feed_row(row) -> None:
        kept = {k: v for k, v in vars(row).items() if k not in TIMINGS}
        digest.update(f"{type(row).__name__} {sorted(kept.items())!r}".encode())

    with tempfile.TemporaryDirectory() as scratch:
        for n, k, r0 in CELLS:
            seed = n + k + r0
            config = sensing.RecoveryConfig(n=n, s=1, k=k, r0=r0, master_seed=seed)
            seeded = sensing.build_ensemble(config)
            path = Path(scratch) / f"{n}.rcs2"
            sensing.dump_ensemble(seeded, path)
            built = sensing.SensingEnsemble(
                n=n, k=k, r0=r0, master_seed=seed, matrices=tuple(seeded.matrices)
            )
            forms = {"seeded": seeded, "rcs2": sensing.load_ensemble(path), "tuple": built}
            for name, ens in forms.items():
                for i, z in enumerate(_signals(n, seed, sensing.generate_binary_signal)):
                    budget = min(np.count_nonzero(z), k)
                    for sigma_w, mode in NOISE:
                        cell = f"{n},{k},{r0} {name} z{i} {sigma_w} {mode}"
                        meas = sensing.measure(ens, z, sigma_w, mode, seed)
                        unkept = sensing.MeasurementEnsemble(meas.vectors, n, k, r0, seed)
                        feed(f"{cell} vectors", meas.vectors)
                        sensing.dump_measurements(meas, Path(scratch) / "meas.bin")
                        loaded = sensing.load_measurements(Path(scratch) / "meas.bin")
                        feed(f"{cell} loaded vectors", loaded.vectors)
                        for method in recovery._METHODS:
                            got = recovery._estimate(ens, loaded, method)
                            feed(f"{cell} loaded {method}", got.values)
                        for rounds in (range(r0), range(r0 - 1, -1, -1)):
                            feed(f"{cell} kept {rounds}", recovery.back_project(ens, meas, rounds))
                        every = (range(2 * r0), range(2 * r0 - 1, -1, -2), range(1, 2 * r0, 3))
                        for rounds in every:
                            feed(f"{cell} {rounds}", recovery.back_project(ens, unkept, rounds))
                        for m in (meas, unkept):
                            for method in ("basic", "suppressed"):
                                got = getattr(recovery, f"recover_{method}")(ens, m)
                                feed(f"{cell} {method}", got.values)
                                feed(f"{cell} {method} support", got.support)
                            feed(f"{cell} support", recovery.determine_support(ens, m))
                        got = baselines.omp(ens.matrices[0], meas.vectors[0], budget)
                        feed(f"{cell} omp", got.values)
                    A = ens.matrices[0]
                    signs = baselines.sign_quantize(A, z)
                    feed(f"{n} {name} z{i} signs", signs)
                    for method in ("biht", "nbiht"):
                        got = getattr(baselines, method)(A, signs, budget, max_iters=30)
                        feed(f"{n} {name} z{i} {method}", got.values)
    for n, s, sigma_w in TRIAL_CELLS:
        grid = harness.ExperimentGrid(
            n_values=(n,), sparsity_fractions=(s / n,), trials=TRIALS, sigma_w=sigma_w,
            master_seed=n + s,
        )
        for trial in range(TRIALS):
            for row in harness.run_trial(grid, n, s, trial):
                feed_row(row)
            # the rows keep only a support's scores; hash the support, from run_trial's inputs
            config = harness.trial_config(grid, n, s, trial)
            signal = sensing.generate_binary_signal(config.master_seed, n, s)
            A1 = sensing.build_ensemble(config).matrices[0]
            for method in grid.methods:
                predicted = harness._run_method(grid, config, signal, method, A1)[0]
                feed(f"{n},{s},{sigma_w} trial {trial} {method} predicted", frozenset(predicted))
    for workers in (1, 2):
        grid = harness.ExperimentGrid(
            n_values=(300, 400), sparsity_fractions=(0.02,), trials=TRIALS, master_seed=7,
            workers=workers,
        )
        outcome = harness.run_grid(grid)
        digest.update(f"grid at {workers} workers".encode())
        for row in outcome.results + outcome.failures:
            feed_row(row)
    return digest.hexdigest()


def against(ref: str, source: Path) -> int:
    """Hash REF's ``src`` and ``source`` in two processes and print both digests.

    Returns 0 when they agree, 1 when they differ and 2 when git cannot export REF.
    """
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref, "src"], capture_output=True)
    if archive.returncode:
        print(archive.stderr.decode(), end="", file=sys.stderr)
        return 2
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as exported:
        tarfile.open(fileobj=io.BytesIO(archive.stdout)).extractall(exported)
        digests = []
        for label, tree in ((ref, Path(exported) / "src"), (source, source)):
            run = [sys.executable, __file__, str(tree)]
            out = subprocess.run(run, env=env, capture_output=True, text=True, check=True)
            digests.append(out.stdout.strip())
            print(f"{digests[-1]}  {label}")
    return int(digests[0] != digests[1])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("source", nargs="?", type=Path, default=SOURCE,
                        help="directory holding the randcs package (default: this checkout's src)")
    parser.add_argument("--against", metavar="REF",
                        help="also hash REF's src, exported with git archive, and compare")
    args = parser.parse_args()
    source = args.source.resolve()
    if args.against:
        sys.exit(against(args.against, source))
    print(main(source))
