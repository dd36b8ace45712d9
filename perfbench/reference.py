"""Plain-numpy recomputation of randcs outputs from the documented stream map.

Nothing here imports randcs, so a fault in the program cannot hide in the
reference it is checked against.  The stream map, for a trial seed S:

* Philox keyed by ``[S, stream]``, counter at zero;
* stream 0: the signal, ``s`` distinct coordinates set to one;
* stream r in [1, 2*r0]: sensing matrix r, drawn column by column as
  N(0, 1) and scaled to variance 1/k;
* stream 2*r0 + r + 1: the noise of round r (0-based).

A coordinate whose statistic lies within ``BORDER_RTOL`` (relative) of
the threshold may be classified either way, since the program and this
file may sum in different orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BORDER_RTOL = 1e-9
_MASK64 = (1 << 64) - 1


def generator(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def binary_signal(seed: int, n: int, s: int) -> np.ndarray:
    values = np.zeros(n)
    values[generator(seed, 0).choice(n, size=s, replace=False)] = 1.0
    return values


def matrix(seed: int, stream: int, k: int, n: int) -> np.ndarray:
    cols = generator(seed, stream).standard_normal((n, k))
    cols *= np.sqrt(1.0 / k)
    return cols.T


def noise_sd(sigma_w: float, noise_mode: str, k: int) -> float:
    return sigma_w if noise_mode == "theory" else sigma_w / math.sqrt(k)


def noisy_product(A: np.ndarray, z: np.ndarray, seed: int, stream: int, sd: float) -> np.ndarray:
    nonzero = np.flatnonzero(z)
    b = A[:, nonzero] @ z[nonzero]
    if sd > 0:
        b = b + sd * generator(seed, stream).standard_normal(A.shape[0])
    return b


@dataclass(frozen=True)
class EnsembleEstimate:
    """Counting support and suppressed medians, with the borderline coordinates."""

    support: frozenset[int]
    medians: np.ndarray
    threshold: float
    vote_border: frozenset[int]
    value_border: frozenset[int]


def ensemble_estimate(matrices, z: np.ndarray, seed: int, r0: int, sd: float) -> EnsembleEstimate:
    """Recover from rounds ``matrices(r)``, r in [0, 2*r0), with noise from ``seed``.

    ``matrices`` is called once per round, so a caller can stream freshly
    sampled matrices through without holding them all.
    """
    backs, energies = [], []
    for r in range(2 * r0):
        A = matrices(r)
        b = noisy_product(A, z, seed, 2 * r0 + r + 1, sd)
        if r < r0:
            backs.append(A.T @ b)
        else:
            energies.append(float(b @ b))
    v = np.array(backs)
    threshold = 2.0 * math.sqrt(float(np.median(energies)) / A.shape[0])
    mags = np.abs(v)
    votes = (mags >= threshold).sum(axis=0)
    medians = np.median(v, axis=0)
    near_vote = (np.abs(mags - threshold) <= BORDER_RTOL * threshold).any(axis=0)
    near_value = np.abs(np.abs(medians) - threshold) <= BORDER_RTOL * threshold
    return EnsembleEstimate(
        support=_indices(votes >= math.ceil(r0 / 2)),
        medians=medians,
        threshold=threshold,
        vote_border=_indices(near_vote),
        value_border=_indices(near_value),
    )


def support_mismatch(program: frozenset[int], ref: EnsembleEstimate) -> str | None:
    stray = (frozenset(program) ^ ref.support) - ref.vote_border
    if stray:
        return f"support differs from the reference at {sorted(stray)[:5]}"
    return None


def values_mismatch(program: np.ndarray, ref: EnsembleEstimate) -> str | None:
    """Program values must equal the reference median where it clears the threshold, else 0."""
    tol = BORDER_RTOL * np.maximum(np.abs(ref.medians), ref.threshold)
    kept = np.abs(program - ref.medians) <= tol
    zeroed = program == 0.0
    ok = np.where(np.abs(ref.medians) >= ref.threshold, kept, zeroed)
    if ref.value_border:
        border = np.fromiter(ref.value_border, dtype=np.int64)
        ok[border] = kept[border] | zeroed[border]
    if not ok.all():
        return f"suppressed values differ from the reference at {np.flatnonzero(~ok)[:5].tolist()}"
    return None


def omp_support(A: np.ndarray, b: np.ndarray, s: int) -> tuple[frozenset[int], bool]:
    """Greedy selection by normalized correlation, refitted with ``lstsq`` each step.

    Also says whether any step's best score was within ``BORDER_RTOL`` of
    the runner-up, in which case the selection may legitimately differ.
    """
    norms = np.linalg.norm(A, axis=0)
    residual = b.copy()
    chosen: list[int] = []
    ambiguous = False
    for _ in range(s):
        scores = np.abs(A.T @ residual) / norms
        scores[chosen] = -np.inf
        second, best = np.partition(scores, -2)[-2:]
        ambiguous |= bool(best - second <= BORDER_RTOL * best)
        chosen.append(int(np.argmax(scores)))
        coef = np.linalg.lstsq(A[:, chosen], b, rcond=None)[0]
        residual = b - A[:, chosen] @ coef
    return frozenset(chosen), ambiguous


def jaccard(pred, true) -> float:
    p, t = set(pred), set(true)
    return len(p & t) / len(p | t) if p | t else 1.0


def _indices(mask: np.ndarray) -> frozenset[int]:
    return frozenset(int(i) for i in np.flatnonzero(mask))
