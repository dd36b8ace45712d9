"""Sensing and measurement model.

Builds the ordered collection of random Gaussian sensing matrices and the
paired noisy measurement vectors, in both noise conventions (per-coordinate
noise variance ``sigma_w**2`` for analysis work, ``sigma_w**2 / k`` for
benchmark runs).  Every component derives from a fixed stream map, so any
matrix, noise vector, or signal is reproducible in isolation:

* stream 0               -- the signal
* stream r, r in [1, 2*r0]   -- sensing matrix r
* stream 2*r0 + r         -- noise vector r

Because every round has its own stream, the matrices of an ensemble are
sampled in parallel on one process-wide pool of ``os.cpu_count()``
threads; the values do not depend on the thread count.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from collections.abc import Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .numerics import GaussianSource, matvec, sample_gaussian_matrix

SIGNAL_STREAM = 0

NOISE_MODES = ("theory", "experiment")

_FIXTURE_MAGIC = b"RCS1"
_HEADER = struct.Struct("<4sQQQQ")


_sampling_pool: ThreadPoolExecutor | None = None
_sampling_pool_lock = threading.Lock()


def _sample_rounds(
    source: GaussianSource, k: int, rounds: Sequence[int], buffers: Iterable[np.ndarray]
) -> list[np.ndarray]:
    """Sample sensing matrix r of each round into its own (n, k) buffer.

    Round r is drawn from stream r + 1 exactly as
    :func:`~randcs.numerics.sample_gaussian_matrix` draws it, so every
    value is independent of the thread count.  All callers share one
    lazily created pool, so no more than ``os.cpu_count()`` threads
    sample at once however many threads call in.  Returns the (k, n)
    transposed views in round order.
    """
    global _sampling_pool
    with _sampling_pool_lock:
        if _sampling_pool is None:
            _sampling_pool = ThreadPoolExecutor(
                max_workers=os.cpu_count() or 1, thread_name_prefix="randcs-sampling"
            )
    scale = np.sqrt(1.0 / k)

    def fill(r: int, cols: np.ndarray) -> np.ndarray:
        source.stream(r + 1).generator().standard_normal(out=cols)
        cols *= scale
        return cols.T

    return list(_sampling_pool.map(fill, rounds, buffers))


def default_measurement_count(n: int, s: int) -> int:
    """Measurement count used when none is requested: ceil(2 * s * ln n)."""
    return math.ceil(2 * s * math.log(n))


def default_round_count(n: int) -> int:
    """Benchmark-scale round count: ceil(ln n)."""
    return math.ceil(math.log(n))


def theory_round_count(n: int) -> int:
    """Round count under which the high-probability guarantees hold: 1080 ln n."""
    return math.ceil(1080 * math.log(n))


@dataclass(frozen=True, eq=False)
class Signal:
    """A ground-truth vector with its support set and sparsity."""

    values: np.ndarray
    support: frozenset[int]
    sparsity: int

    def __post_init__(self) -> None:
        nonzero = frozenset(int(i) for i in np.flatnonzero(self.values))
        if self.support != nonzero or self.sparsity != len(nonzero):
            raise ValueError("signal support/sparsity inconsistent with its values")

    @classmethod
    def from_values(cls, values) -> "Signal":
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError("a signal must be one-dimensional")
        support = frozenset(int(i) for i in np.flatnonzero(v))
        return cls(values=v, support=support, sparsity=len(support))

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])


def generate_binary_signal(source: GaussianSource | int, n: int, s: int) -> Signal:
    """A 0/1 signal with exactly s ones at uniformly chosen coordinates.

    ``source`` may be a GaussianSource or a bare integer seed (which is
    taken as the dedicated signal stream of that seed).
    """
    if s < 1 or s > n:
        raise ValueError(f"sparsity must satisfy 1 <= s <= n, got s={s}, n={n}")
    if isinstance(source, int):
        source = GaussianSource(source).stream(SIGNAL_STREAM)
    chosen = source.generator().choice(n, size=s, replace=False)
    values = np.zeros(n)
    values[chosen] = 1.0
    return Signal(values=values, support=frozenset(int(i) for i in chosen), sparsity=s)


def _check_noise_level(sigma_w: float) -> None:
    # NaN and inf fail every comparison, so test finiteness explicitly
    if not (math.isfinite(sigma_w) and sigma_w >= 0):
        raise ValueError(f"noise level must be finite and nonnegative, got {sigma_w}")


@dataclass(frozen=True)
class RecoveryConfig:
    """Problem dimensions, round count, noise convention, and seed.

    Unset ``k`` defaults to ceil(2 * s * ln n); unset ``r0`` defaults to
    ceil(ln n).  ``noise_mode`` selects the per-coordinate noise variance:
    ``"theory"`` uses sigma_w**2, ``"experiment"`` uses sigma_w**2 / k.
    """

    n: int
    s: int
    k: int | None = None
    r0: int | None = None
    sigma_w: float = 0.1
    noise_mode: str = "experiment"
    master_seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.s <= self.n:
            raise ValueError(f"need 1 <= s <= n, got s={self.s}, n={self.n}")
        if self.k is None:
            object.__setattr__(self, "k", default_measurement_count(self.n, self.s))
        if self.r0 is None:
            object.__setattr__(self, "r0", default_round_count(self.n))
        if self.k < 1 or self.r0 < 1:
            raise ValueError(f"need k >= 1 and r0 >= 1, got k={self.k}, r0={self.r0}")
        _check_noise_level(self.sigma_w)
        if self.noise_mode not in NOISE_MODES:
            raise ValueError(f"noise_mode must be one of {NOISE_MODES}, got {self.noise_mode!r}")

    @property
    def noise_variance(self) -> float:
        """Per-coordinate measurement-noise variance under the configured convention."""
        if self.noise_mode == "theory":
            return self.sigma_w**2
        return self.sigma_w**2 / self.k


class LazyMatrices(Sequence):
    """Sequence of sensing matrices regenerated from their streams on access.

    Holds no matrix data; each ``[r]`` access re-samples matrix r from
    stream r + 1 of the master seed.  Accessing the same index twice gives
    bit-identical values.  Useful when the full collection would not fit
    in memory.
    """

    def __init__(self, master_seed: int, count: int, k: int, n: int):
        self._source = GaussianSource(master_seed)
        self._count = count
        self._k = k
        self._n = n

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, r: int) -> np.ndarray:
        if isinstance(r, slice):
            return [self[i] for i in range(*r.indices(self._count))]
        if r < 0:
            r += self._count
        if not 0 <= r < self._count:
            raise IndexError(f"round index {r} out of range for {self._count} rounds")
        return sample_gaussian_matrix(self._source.stream(r + 1), self._k, self._n, 1.0 / self._k)

    def regenerate_into(self, r: int, cols_out: np.ndarray) -> np.ndarray:
        """Regenerate matrix ``r`` into a caller-owned (n, k) scratch buffer.

        The buffer holds the matrix columns as rows; the returned transpose
        view is the (k, n) matrix, bit-identical to ``self[r]``.  Lets a
        sequential consumer avoid a fresh large allocation per round; the
        view is only valid until the buffer's next reuse.
        """
        return self.regenerate_many([r], [cols_out])[0]

    def regenerate_many(
        self, rounds: Sequence[int], buffers: Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        """Regenerate several matrices in parallel, round ``rounds[i]`` into ``buffers[i]``.

        Same contract as :meth:`regenerate_into` for each pair; returns the
        (k, n) views in the order of ``rounds``.
        """
        if len(buffers) < len(rounds):
            raise ValueError(f"need a scratch buffer for each of the {len(rounds)} rounds")
        for r, cols in zip(rounds, buffers):
            if not 0 <= r < self._count:
                raise IndexError(f"round index {r} out of range for {self._count} rounds")
            if cols.shape != (self._n, self._k):
                raise ValueError(f"scratch buffer must have shape {(self._n, self._k)}")
        return _sample_rounds(self._source, self._k, rounds, buffers)


@dataclass(frozen=True, eq=False)
class SensingEnsemble:
    """2*r0 sensing matrices, each k-by-n with N(0, 1/k) entries.

    ``matrices[r]`` is reproducible from (master_seed, r) alone.  The
    sequence may be eager (a tuple of arrays) or a :class:`LazyMatrices`
    view that regenerates on access.
    """

    n: int
    k: int
    r0: int
    master_seed: int
    matrices: Sequence[np.ndarray]

    def __post_init__(self) -> None:
        if len(self.matrices) != 2 * self.r0:
            raise ValueError(
                f"ensemble must hold exactly 2*r0 = {2 * self.r0} matrices, "
                f"got {len(self.matrices)}"
            )


def build_ensemble(config: RecoveryConfig, lazy: bool = False) -> SensingEnsemble:
    """Draw the ensemble of 2*r0 sensing matrices for a configuration.

    With ``lazy=True`` the matrices are regenerated from their streams on
    every access instead of being held in memory; values are identical
    either way.  The eager matrices are sampled in parallel, one round per
    thread of the shared sampling pool.
    """
    view = LazyMatrices(config.master_seed, 2 * config.r0, config.k, config.n)
    matrices: Sequence[np.ndarray] = view
    if not lazy:
        rounds = range(len(view))
        buffers = [np.empty((config.n, config.k)) for _ in rounds]
        matrices = tuple(view.regenerate_many(rounds, buffers))
    return SensingEnsemble(
        n=config.n, k=config.k, r0=config.r0, master_seed=config.master_seed, matrices=matrices
    )


@dataclass(frozen=True, eq=False)
class MeasurementEnsemble:
    """Measurement vectors b[r] = A[r] @ z + w[r], one row per round, all finite.

    ``sigma_w`` and ``noise_mode`` echo how the noise was drawn; they are
    None for ensembles loaded from fixture files, which do not record them.
    """

    vectors: np.ndarray
    n: int
    k: int
    r0: int
    master_seed: int
    sigma_w: float | None = None
    noise_mode: str | None = None

    def __post_init__(self) -> None:
        if self.vectors.ndim != 2 or self.vectors.shape != (2 * self.r0, self.k):
            raise ValueError(
                f"expected a (2*r0, k) = ({2 * self.r0}, {self.k}) measurement array, "
                f"got shape {self.vectors.shape}"
            )
        if not np.isfinite(self.vectors).all():
            raise ValueError("measurement vectors must be finite")


def measure(
    ensemble: SensingEnsemble,
    z: Signal | np.ndarray,
    sigma_w: float,
    noise_mode: str,
    noise_seed: int,
) -> MeasurementEnsemble:
    """Take the 2*r0 noisy measurements of a signal through an ensemble.

    Per-coordinate noise variance is sigma_w**2 in theory mode and
    sigma_w**2 / k in experiment mode; sigma_w = 0 gives exact noiseless
    products.  Noise vector r comes from stream 2*r0 + r of ``noise_seed``.
    """
    if noise_mode not in NOISE_MODES:
        raise ValueError(f"noise_mode must be one of {NOISE_MODES}, got {noise_mode!r}")
    _check_noise_level(sigma_w)
    zv = z.values if isinstance(z, Signal) else np.asarray(z, dtype=np.float64)
    rounds = 2 * ensemble.r0
    k = ensemble.k
    noise_sd = sigma_w if noise_mode == "theory" else sigma_w / math.sqrt(k)
    noise_source = GaussianSource(noise_seed)
    vectors = np.empty((rounds, k))
    for r in range(rounds):
        b = matvec(ensemble.matrices[r], zv)
        if noise_sd > 0:
            b = b + noise_sd * noise_source.stream(rounds + r + 1).generator().standard_normal(k)
        vectors[r] = b
    return MeasurementEnsemble(
        vectors=vectors,
        n=ensemble.n,
        k=k,
        r0=ensemble.r0,
        master_seed=ensemble.master_seed,
        sigma_w=sigma_w,
        noise_mode=noise_mode,
    )


def _write_fixture(
    path, n: int, k: int, r0: int, master_seed: int, blocks: Iterable[np.ndarray]
) -> None:
    header = _HEADER.pack(_FIXTURE_MAGIC, n, k, r0, master_seed & ((1 << 64) - 1))
    with open(path, "wb") as fh:
        fh.write(header)
        # one block at a time, so at most one block is ever copied
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f8"))


def _read_fixture(path) -> tuple[int, int, int, int, np.ndarray]:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated fixture file")
        magic, n, k, r0, seed = _HEADER.unpack(header)
        if magic != _FIXTURE_MAGIC:
            raise ValueError(f"{path}: not an ensemble fixture (bad magic {magic!r})")
        payload_bytes = os.fstat(fh.fileno()).st_size - _HEADER.size
        if payload_bytes % 8:
            raise ValueError(f"{path}: {payload_bytes}-byte payload is not whole float64 values")
        payload = np.fromfile(fh, dtype="<f8", count=payload_bytes // 8)
    return int(n), int(k), int(r0), int(seed), payload.astype(np.float64, copy=False)


def dump_ensemble(ensemble: SensingEnsemble, path) -> None:
    """Write an ensemble to the binary fixture format.

    Layout: magic ``RCS1`` then n, k, r0, seed as little-endian 64-bit
    fields, followed by the 2*r0 matrices as row-major float64.
    """
    _write_fixture(
        path, ensemble.n, ensemble.k, ensemble.r0, ensemble.master_seed, ensemble.matrices
    )


def load_ensemble(path) -> SensingEnsemble:
    """Read an ensemble fixture written by :func:`dump_ensemble`."""
    n, k, r0, seed, payload = _read_fixture(path)
    expected = 2 * r0 * k * n
    if payload.size != expected:
        raise ValueError(f"{path}: expected {expected} matrix entries, found {payload.size}")
    matrices = tuple(payload.reshape(2 * r0, k, n))
    # one matrix at a time, so the check allocates no payload-sized mask
    if not all(np.isfinite(A).all() for A in matrices):
        raise ValueError(f"{path}: ensemble has a non-finite entry")
    return SensingEnsemble(n=n, k=k, r0=r0, master_seed=seed, matrices=matrices)


def dump_measurements(measurements: MeasurementEnsemble, path) -> None:
    """Write measurement vectors to the binary fixture format (same header)."""
    _write_fixture(
        path,
        measurements.n,
        measurements.k,
        measurements.r0,
        measurements.master_seed,
        [measurements.vectors],
    )


def load_measurements(path) -> MeasurementEnsemble:
    """Read a measurement fixture written by :func:`dump_measurements`."""
    n, k, r0, seed, payload = _read_fixture(path)
    expected = 2 * r0 * k
    if payload.size != expected:
        raise ValueError(f"{path}: expected {expected} measurement entries, found {payload.size}")
    return MeasurementEnsemble(
        vectors=payload.reshape(2 * r0, k), n=n, k=k, r0=r0, master_seed=seed
    )
