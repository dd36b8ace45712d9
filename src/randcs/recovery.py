"""Optimization-free recovery from a measurement ensemble.

All three procedures read two statistics of a measurement: the
back-projections v[r] = A[r]^T @ b[r] of rounds [0, r0), and the threshold
2 * sqrt(sigma2 / k), where sigma2, the median of ||b[r]||**2 over rounds
[r0, 2*r0), estimates ||z||**2 + k * sigma_w**2 without knowing z or sigma_w.

* ``recover_basic``       -- coordinate-wise medians of the back-projections.
* ``recover_suppressed``  -- the same, with coordinates whose |median| is
  strictly below the threshold set to zero.
* ``determine_support``   -- keeps the coordinates with |v[r][i]| >= threshold
  in at least ceil(r0 / 2) rounds.

The two halves are never mixed.  Each call checks once that the
measurements' (n, k, r0) fit the ensemble, and takes the threshold before
any back-projection.  A zero threshold (all-zero or underflowing second-half
measurements) clears no coordinate: the support is empty, the suppressed
values are zero, and no round is back-projected.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DimensionMismatchError, median
from .sensing import MeasurementEnsemble, SensingEnsemble, _back_project


@dataclass(frozen=True)
class NoiseFloor:
    """Estimated measurement energy and the classification threshold derived from it."""

    sigma2: float
    threshold: float


@dataclass(frozen=True, eq=False)
class RecoveredSignal:
    """A recovered vector and its support."""

    values: np.ndarray
    support: frozenset[int]


def _check_rounds(rounds: range, available: int) -> None:
    if not rounds or min(rounds[0], rounds[-1]) < 0 or max(rounds[0], rounds[-1]) >= available:
        raise ValueError(f"round range {rounds} is empty or outside the {available} rounds")


def _check_fits(ensemble: SensingEnsemble, measurements: MeasurementEnsemble) -> None:
    theirs, ours = ((e.n, e.k, e.r0) for e in (measurements, ensemble))
    if theirs != ours:
        raise DimensionMismatchError(f"measurements of (n, k, r0) = {theirs} do not fit {ours}")


def _noise_floor(vectors: np.ndarray, k: int) -> NoiseFloor:
    """sigma2, the median of the rows' squared norms, and the threshold 2 * sqrt(sigma2 / k)."""
    sigma2 = median(np.einsum("rk,rk->r", vectors, vectors))
    return NoiseFloor(sigma2=sigma2, threshold=2.0 * math.sqrt(sigma2 / k))


def _estimate(
    ensemble: SensingEnsemble, measurements: MeasurementEnsemble, method: str
) -> RecoveredSignal:
    """The "basic", "suppressed" or "support" estimate (a 0/1 vote mask) from one measurement."""
    _check_fits(ensemble, measurements)
    threshold = _noise_floor(measurements.vectors[ensemble.r0:], ensemble.k).threshold
    if threshold == 0.0 and method != "basic":
        values = np.zeros(ensemble.n)  # a zero threshold clears no coordinate
    elif method == "support":
        v = _back_project(ensemble, measurements, range(ensemble.r0))
        values = (np.abs(v) >= threshold).sum(axis=0) >= math.ceil(ensemble.r0 / 2)
    else:
        values = median(_back_project(ensemble, measurements, range(ensemble.r0)), axis=0)
        if method == "suppressed":
            values = np.where(np.abs(values) < threshold, 0.0, values)
    return RecoveredSignal(values, frozenset(int(i) for i in np.flatnonzero(values)))


def back_project(
    ensemble: SensingEnsemble, measurements: MeasurementEnsemble, rounds: range
) -> np.ndarray:
    """v[r] = A[r]^T @ b[r] for every round in ``rounds`` (0-based), one row per round.

    For rounds in [0, r0) of measurements that
    :func:`~randcs.sensing.measure` took through this same ensemble, these
    are the products it kept.  Any other request is one batched product over
    a stored ensemble, or one pass that samples a seeded one's matrices on
    the shared sampling pool.  Measurements of another (n, k, r0) raise
    :class:`~randcs.numerics.DimensionMismatchError`.
    """
    _check_fits(ensemble, measurements)
    _check_rounds(rounds, 2 * ensemble.r0)
    return _back_project(ensemble, measurements, rounds)


def recover_basic(ensemble: SensingEnsemble, measurements: MeasurementEnsemble) -> RecoveredSignal:
    """Coordinate-wise median of the first r0 back-projections.

    Every coordinate of every back-projection is an unbiased estimate of
    the corresponding signal coordinate, so the median over rounds
    concentrates around the truth.  No suppression is applied; the support
    field simply collects the nonzero coordinates.
    """
    return _estimate(ensemble, measurements, "basic")


def estimate_noise_floor(measurements: MeasurementEnsemble, rounds: range, k: int) -> NoiseFloor:
    """Noise-floor estimate from the squared norms of the given measurement rounds.

    sigma2 is the median of ||b[r]||**2 over the rounds; the threshold is
    2 * sqrt(sigma2 / k).  A ``k`` other than the measurements' own raises
    :class:`~randcs.numerics.DimensionMismatchError`.
    """
    _check_rounds(rounds, measurements.vectors.shape[0])
    if k != measurements.k:
        raise DimensionMismatchError(f"k = {k} does not fit measurements of k = {measurements.k}")
    return _noise_floor(measurements.vectors[rounds], k)


def recover_suppressed(
    ensemble: SensingEnsemble, measurements: MeasurementEnsemble
) -> RecoveredSignal:
    """Median recovery on the first half, noise-floor suppression from the second.

    Coordinates with |value| strictly below the threshold are set to zero.
    The magnitude is compared (not the signed value) so negative signal
    coordinates survive suppression.  A zero threshold clears no coordinate,
    so it sets every value to zero.
    """
    return _estimate(ensemble, measurements, "suppressed")


def determine_support(
    ensemble: SensingEnsemble, measurements: MeasurementEnsemble
) -> frozenset[int]:
    """Counting-based support estimate.

    A coordinate joins the estimate when |v[r][i]| >= threshold (inclusive)
    in at least ceil(r0 / 2) of the first r0 rounds, with the threshold
    taken from the second half.  A zero threshold clears no coordinate, so
    it gives the empty set.
    """
    return _estimate(ensemble, measurements, "support").support
