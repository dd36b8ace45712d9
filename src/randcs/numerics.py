"""Numeric primitives shared by every other module.

Seed derivation, seedable Gaussian sampling on counter-based streams and
selection-based medians.  Everything here is a pure function of its
inputs: the same seeds always reproduce the same values.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


class DimensionMismatchError(ValueError):
    """Shapes of interacting operands do not conform."""


def derive_seed(master_seed: int, *words: int | str) -> int:
    """Derive an independent 64-bit seed from a master seed and context words.

    Hashes the little-endian byte encoding of the master seed and every
    context word with BLAKE2b, so any distinct tuple of words gives a
    statistically unrelated seed.  Stable across platforms and runs.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update((master_seed & _MASK64).to_bytes(8, "little"))
    for w in words:
        if isinstance(w, str):
            h.update(b"s" + w.encode("utf-8"))
        else:
            h.update(b"i" + (int(w) & _MASK64).to_bytes(8, "little"))
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class GaussianSource:
    """A seeded, counter-based random source identified by (master_seed, stream_index).

    Backed by Philox-4x64 keyed with the two identity words.  Distinct
    stream indices give statistically independent streams with no shared
    state; identical identities replay the identical sample sequence.
    Gaussian variates come from numpy's ziggurat transform of the Philox
    bit stream (``Generator.standard_normal``); the regression tests pin
    known values so any drift in the transform is caught, not silently
    absorbed.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "master_seed", self.master_seed & _MASK64)
        object.__setattr__(self, "stream_index", self.stream_index & _MASK64)

    def stream(self, index: int) -> "GaussianSource":
        """The sibling source with the same master seed and the given stream index."""
        return GaussianSource(self.master_seed, index)

    def generator(self) -> np.random.Generator:
        """A fresh numpy Generator at the start of this stream.

        ``Generator(Philox(key=[master_seed, stream_index]))``, counter at
        zero: Philox keyed with the two identity words, both already
        reduced to 64 bits.
        """
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def sample_gaussian_matrix(source: GaussianSource, k: int, n: int, variance: float) -> np.ndarray:
    """Sample a k-by-n matrix with iid N(0, variance) entries.

    Entries are drawn column by column, so a matrix sampled with fewer
    columns from the same source equals the leading columns of the wider
    matrix.  Consumes exactly k*n Gaussian samples from the stream.

    Parameters
    ----------
    source : GaussianSource
        Stream identity; the call always reads the stream from its start.
    k, n : int
        Row and column counts, both at least 1.
    variance : float
        Entry variance, strictly positive.

    Returns
    -------
    (k, n) float64 ndarray
    """
    if k < 1 or n < 1:
        raise ValueError(f"matrix dimensions must be at least 1x1, got {k}x{n}")
    if variance <= 0:
        raise ValueError(f"entry variance must be positive, got {variance}")
    cols = source.generator().standard_normal((n, k))
    cols *= np.sqrt(variance)
    return cols.T


def median(values, axis: int | None = None):
    """Median by expected-linear selection (introselect), not a full sort.

    Odd length gives the exact middle order statistic; even length gives
    the arithmetic mean of the two middle order statistics.  With an
    ``axis``, medians are taken along that axis of a 2-D array.

    Returns a float for 1-D input, an ndarray when ``axis`` is given.
    """
    a = np.asarray(values, dtype=np.float64)
    if a.size == 0:
        raise ValueError("median of an empty collection is undefined")
    scalar = axis is None
    if scalar:
        a = a.ravel()
        axis = 0
    length = a.shape[axis]
    mid = length // 2
    if length % 2:
        part = np.partition(a, mid, axis=axis)
        out = np.take(part, mid, axis=axis)
    else:
        part = np.partition(a, [mid - 1, mid], axis=axis)
        out = 0.5 * (np.take(part, mid - 1, axis=axis) + np.take(part, mid, axis=axis))
    return float(out) if scalar else out

