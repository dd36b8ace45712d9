"""Optimization-free recovery from a measurement ensemble.

Three procedures, all built from back-projections v[r] = A[r]^T @ b[r]:

* ``recover_basic``       -- coordinate-wise medians of the back-projections.
* ``recover_suppressed``  -- the same, then coordinates below a noise-floor
  threshold are zeroed.  The threshold 2 * sqrt(sigma2 / k) comes from the
  median squared norm of the second half of the measurements, which
  estimates ||z||**2 + k * sigma_w**2 without knowing z or sigma_w.
* ``determine_support``   -- support only: counts, per coordinate, how many
  back-projections clear the threshold and keeps coordinates that clear it
  in at least half the rounds.

The two halves of the ensemble are never mixed: medians use rounds
[0, r0), the noise floor uses rounds [r0, 2*r0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import matvec_transposed, median
from .sensing import LazyMatrices, MeasurementEnsemble, SensingEnsemble


@dataclass(frozen=True, eq=False)
class BackProjection:
    """Back-projected estimates, one row per requested round."""

    rounds: range
    per_round: np.ndarray


@dataclass(frozen=True)
class NoiseFloor:
    """Estimated measurement energy and the classification threshold derived from it."""

    sigma2: float
    threshold: float


@dataclass(frozen=True, eq=False)
class RecoveredSignal:
    """A recovered vector, its support, and the method that produced it."""

    values: np.ndarray
    support: frozenset[int]
    method: str


def _check_rounds(rounds: range, available: int) -> None:
    if len(rounds) == 0:
        raise ValueError("round range must be nonempty")
    if rounds.start < 0 or rounds[-1] >= available:
        raise ValueError(
            f"round range {rounds} outside the {available} available rounds"
        )


# memory cap for regenerating lazy ensembles in blocks; block-wise phases
# keep the sampler and the BLAS kernels from ping-ponging every round
_LAZY_BLOCK_BYTES = 256 * 2**20


def back_project(
    ensemble: SensingEnsemble, measurements: MeasurementEnsemble, rounds: range
) -> BackProjection:
    """Compute v[r] = A[r]^T @ b[r] for every round in ``rounds`` (0-based).

    Lazily stored ensembles are regenerated into a scratch block of bounded
    size (at least one matrix), a block at a time, so the memory footprint
    stays independent of the round count.  The matrices of a block are
    sampled in parallel on the shared sampling pool.
    """
    matrices = ensemble.matrices
    _check_rounds(rounds, min(len(matrices), measurements.vectors.shape[0]))
    per_round = np.empty((len(rounds), ensemble.n))
    if not isinstance(matrices, LazyMatrices):
        for t, r in enumerate(rounds):
            per_round[t] = matvec_transposed(matrices[r], measurements.vectors[r])
        return BackProjection(rounds=rounds, per_round=per_round)

    todo = list(rounds)
    block_rounds = int(max(1, min(len(todo), _LAZY_BLOCK_BYTES // (8 * ensemble.n * ensemble.k))))
    scratch = np.empty((block_rounds, ensemble.n, ensemble.k))
    t = 0
    for start in range(0, len(todo), block_rounds):
        block = todo[start : start + block_rounds]
        views = matrices.regenerate_many(block, scratch)
        for A, r in zip(views, block):
            per_round[t] = matvec_transposed(A, measurements.vectors[r])
            t += 1
    return BackProjection(rounds=rounds, per_round=per_round)


def recover_basic(
    ensemble: SensingEnsemble,
    measurements: MeasurementEnsemble,
    r0: int | None = None,
) -> RecoveredSignal:
    """Coordinate-wise median of the first r0 back-projections.

    Every coordinate of every back-projection is an unbiased estimate of
    the corresponding signal coordinate, so the median over rounds
    concentrates around the truth.  No suppression is applied; the support
    field simply collects the nonzero coordinates.
    """
    r0 = ensemble.r0 if r0 is None else r0
    projection = back_project(ensemble, measurements, range(r0))
    values = median(projection.per_round, axis=0)
    support = frozenset(int(i) for i in np.flatnonzero(values))
    return RecoveredSignal(values=values, support=support, method="basic")


def estimate_noise_floor(
    measurements: MeasurementEnsemble, rounds: range, k: int
) -> NoiseFloor:
    """Noise-floor estimate from the squared norms of the given measurement rounds.

    sigma2 is the median of ||b[r]||**2 over the rounds; the threshold is
    2 * sqrt(sigma2 / k).
    """
    _check_rounds(rounds, measurements.vectors.shape[0])
    block = measurements.vectors[rounds.start : rounds.stop : rounds.step]
    norms = np.einsum("rk,rk->r", block, block)
    sigma2 = median(norms)
    return NoiseFloor(sigma2=sigma2, threshold=2.0 * math.sqrt(sigma2 / k))


def recover_suppressed(
    ensemble: SensingEnsemble,
    measurements: MeasurementEnsemble,
) -> RecoveredSignal:
    """Median recovery on the first half, noise-floor suppression from the second.

    Coordinates with |value| strictly below the threshold are set to zero.
    The magnitude is compared (not the signed value) so negative signal
    coordinates survive suppression.  A zero threshold, which occurs only
    for all-zero measurements, suppresses nothing.
    """
    r0 = ensemble.r0
    base = recover_basic(ensemble, measurements, r0)
    floor = estimate_noise_floor(measurements, range(r0, 2 * r0), ensemble.k)
    values = np.where(np.abs(base.values) < floor.threshold, 0.0, base.values)
    support = frozenset(int(i) for i in np.flatnonzero(values))
    return RecoveredSignal(values=values, support=support, method="suppressed")


def determine_support(
    ensemble: SensingEnsemble,
    measurements: MeasurementEnsemble,
) -> frozenset[int]:
    """Counting-based support estimate.

    A coordinate joins the estimate when |v[r][i]| >= threshold (inclusive)
    in at least ceil(r0 / 2) of the first r0 rounds, with the threshold
    taken from the second half.  A degenerate zero threshold (all-zero
    measurements) returns the empty set, since the inclusive comparison
    would otherwise hold vacuously everywhere.
    """
    r0 = ensemble.r0
    floor = estimate_noise_floor(measurements, range(r0, 2 * r0), ensemble.k)
    if floor.sigma2 == 0.0:
        return frozenset()
    projection = back_project(ensemble, measurements, range(r0))
    counts = (np.abs(projection.per_round) >= floor.threshold).sum(axis=0)
    return frozenset(int(i) for i in np.flatnonzero(counts >= math.ceil(r0 / 2)))
