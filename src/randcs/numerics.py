"""Numeric primitives shared by every other module.

Seed derivation, seedable Gaussian sampling on counter-based streams, a
sort-based median along the first axis, and the two argument rules every
module checks its inputs by: :func:`_integer` for sizes, counts and seeds,
:func:`_finite` for arrays.  Everything here is a pure function of its
inputs: the same seeds always reproduce the same values.
"""

from __future__ import annotations

import hashlib
import operator
import sys
import threading
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1

# one Philox per thread, reset to a stream's key whenever no Generator holds it
_philox = threading.local()


class DimensionMismatchError(ValueError):
    """Shapes of interacting operands do not conform."""


def _integer(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """The one integer rule: any integer type, numpy's included, as a Python int.

    Sizes, counts, budgets, seeds, stream indices and seed words all go
    through it.  Anything else, a whole float such as 40.0 included, raises
    ``ValueError`` naming ``name`` and the value.  So does an integer below
    ``lo`` or above ``hi`` (``hi`` is read only with ``lo``):
    ``"need lo <= name <= hi, got name=value"``, or ``"need name >= lo, ..."``
    when there is no ``hi``.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if lo is not None and (value < lo or hi is not None and value > hi):
        bounds = f"{name} >= {lo}" if hi is None else f"{lo} <= {name} <= {hi}"
        raise ValueError(f"need {bounds}, got {name}={value}")
    return value


def _finite(values: np.ndarray, what: str) -> None:
    """The one finiteness test: ``ValueError("<what> has a non-finite entry")`` unless all are.

    A finite sum settles it in one pass, with no array-sized temporary; a
    sum that overflowed or met an inf or NaN falls back to min and max,
    which propagate NaN and hold any infinity.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if values.size == 0 or np.isfinite(values.sum()):
            return
    if not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise ValueError(f"{what} has a non-finite entry")


def _seed64(x, name: str = "seed") -> int:
    """A seed or stream index under :func:`_integer`'s rule, as the 64-bit word the streams take."""
    return _integer(x, name) & _MASK64


def derive_seed(master_seed: int, *words: int | str) -> int:
    """Derive an independent 64-bit seed from a master seed and context words.

    Hashes the little-endian byte encoding of the master seed and every
    context word with BLAKE2b, so any distinct tuple of words gives a
    statistically unrelated seed.  Stable across platforms and runs.  A word
    is a string or an integer, taken modulo 2**64 as a seed is.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(_seed64(master_seed, "master_seed").to_bytes(8, "little"))
    for w in words:
        if isinstance(w, str):
            h.update(b"s" + w.encode("utf-8"))
        else:
            h.update(b"i" + _seed64(w, "seed word").to_bytes(8, "little"))
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
        object.__setattr__(self, "master_seed", _seed64(self.master_seed, "master_seed"))
        object.__setattr__(self, "stream_index", _seed64(self.stream_index, "stream_index"))

    def stream(self, index: int) -> "GaussianSource":
        """The sibling source with the same master seed and the given stream index."""
        return GaussianSource(self.master_seed, index)

    def generator(self) -> np.random.Generator:
        """A fresh numpy Generator at the start of this stream.

        It draws the values of ``Generator(Philox(key=[master_seed,
        stream_index]))`` from this thread's Philox, reset to that keyed
        state, so opening a stream draws no OS entropy.  A Philox is built
        only for a thread's first stream, or while an earlier Generator
        still holds the last one, so two Generators never share a state.
        """
        bitgen = getattr(_philox, "bitgen", None)
        if bitgen is None or sys.getrefcount(bitgen) > _philox.idle_refs:
            bitgen = _philox.bitgen = np.random.Philox()
            # counted before any Generator holds it, as the test above counts
            _philox.idle_refs = sys.getrefcount(bitgen)
        # the state Philox(key=...) starts in: counter at zero, buffer empty
        state = {"counter": (0,) * 4, "key": (self.master_seed, self.stream_index)}
        bitgen.state = {"bit_generator": "Philox", "state": state, "buffer": (0,) * 4,
                        "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return np.random.Generator(bitgen)


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
        Row and column counts, integers of at least 1 under :func:`_integer`.
    variance : float
        Entry variance, finite and strictly positive.

    Returns
    -------
    (k, n) float64 ndarray
    """
    k, n = _integer(k, "k", 1), _integer(n, "n", 1)
    # NaN fails every comparison, so test finiteness explicitly
    if not (np.isfinite(variance) and variance > 0):
        raise ValueError(f"entry variance must be finite and positive, got {variance}")
    cols = source.generator().standard_normal((n, k))
    cols *= np.sqrt(variance)
    return cols.T


def median(values) -> np.ndarray | float:
    """The median along the first axis, from a sort along it.

    An odd length gives the middle order statistic, copied out of the sort;
    an even one gives half the sum of the two middle order statistics.  So
    a 1-D input gives one number and a 2-D one each column's median.
    """
    ordered = np.sort(np.asarray(values, dtype=np.float64), axis=0)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return np.take(ordered, mid, axis=0)
    return 0.5 * (ordered[mid - 1] + ordered[mid])
