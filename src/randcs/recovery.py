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

from .numerics import median
from .sensing import MeasurementEnsemble, SensingEnsemble, _back_project


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
    if min(rounds[0], rounds[-1]) < 0 or max(rounds[0], rounds[-1]) >= available:
        raise ValueError(
            f"round range {rounds} outside the {available} available rounds"
        )


def back_project(
    ensemble: SensingEnsemble, measurements: MeasurementEnsemble, rounds: range
) -> np.ndarray:
    """v[r] = A[r]^T @ b[r] for every round in ``rounds`` (0-based), one row per round.

    For rounds in [0, r0) of measurements that
    :func:`~randcs.sensing.measure` took through this same ensemble, these
    are the products it kept, and nothing is computed again.  Any other
    request is one pass over the rounds, which samples the matrices of a
    seeded ensemble in parallel on the shared sampling pool, at most one
    per thread at a time.
    """
    _check_rounds(rounds, min(len(ensemble.matrices), measurements.vectors.shape[0]))
    return _back_project(ensemble, measurements, rounds)


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
    values = median(back_project(ensemble, measurements, range(r0)), axis=0)
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
    block = measurements.vectors[rounds]
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
    projections = back_project(ensemble, measurements, range(r0))
    counts = (np.abs(projections) >= floor.threshold).sum(axis=0)
    return frozenset(int(i) for i in np.flatnonzero(counts >= math.ceil(r0 / 2)))
