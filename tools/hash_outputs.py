"""One SHA-256 over the program's outputs, to check that a change keeps them byte for byte.

Hashes, for each of a few (n, k, r0) cells, two signals, two noise
conventions and three forms of the same ensemble (seeded, read back from
an RCS2 file, and a hand-built tuple of its matrices):

* the ``measure`` vectors;
* ``back_project`` on the kept rounds and on measurements without them,
  over forward, reversed and stepped ranges;
* ``recover_basic``, ``recover_suppressed`` and ``determine_support``;
* ``sign_quantize``, ``omp``, ``biht`` and ``nbiht`` (30 iterations) on
  round 0;

and the ``run_trial`` rows of all four methods at (n, s) = (700, 7) and
(2002, 20), every column but the timings ``wall_time_s`` and
``gen_time_s``, so harness edits are checked too.

OpenBLAS is held at one thread, so the digest does not depend on the
core count.  Run it on two source trees and compare the lines it prints:

    python tools/hash_outputs.py [SOURCE_DIR]

``SOURCE_DIR`` is the directory holding the ``randcs`` package (default:
this checkout's ``src``).  It takes well under a minute.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SOURCE = Path(__file__).resolve().parent.parent / "src"

CELLS = ((300, 17, 4), (700, 5, 3), (2000, 305, 4), (2002, 40, 3), (4001, 17, 3))
NOISE = ((0.1, "experiment"), (0.0, "theory"))
TRIAL_CELLS = ((700, 7), (2002, 20))
TRIALS = 3


def _signals(n: int, seed: int, generate_binary_signal) -> list[np.ndarray]:
    """A 0/1 signal of n/100 ones and a signed one of n/10 entries over six decades."""
    rng = np.random.default_rng(seed)
    spread = np.zeros(n)
    support = rng.choice(n, size=max(1, n // 10), replace=False)
    spread[support] = rng.standard_normal(support.size) * 10.0 ** rng.integers(-3, 4, support.size)
    return [generate_binary_signal(seed, n, max(1, n // 100)), spread]


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
    for n, s in TRIAL_CELLS:
        grid = harness.ExperimentGrid(
            n_values=(n,), sparsity_fractions=(s / n,), trials=TRIALS, master_seed=n + s
        )
        for trial in range(TRIALS):
            for row in harness.run_trial(grid, n, s, trial):
                kept = {k: v for k, v in vars(row).items() if k not in ("wall_time_s", "gen_time_s")}
                digest.update(f"{type(row).__name__} {sorted(kept.items())!r}".encode())
    return digest.hexdigest()


if __name__ == "__main__":
    print(main(Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else SOURCE))
