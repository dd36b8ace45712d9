"""Sensing and measurement model.

Builds the ordered collection of random Gaussian sensing matrices and the
paired noisy measurement vectors, in both noise conventions (per-coordinate
noise variance ``sigma_w**2`` for analysis work, ``sigma_w**2 / k`` for
benchmark runs).  Every component derives from a fixed stream map, so any
matrix, noise vector, or signal is reproducible in isolation:

* stream 0                        -- the signal
* stream r + 1, r in [0, 2*r0)    -- sensing matrix r
* stream 2*r0 + r + 1             -- noise vector r

A seeded ensemble holds no matrix.  Measuring, back-projecting and dumping
it is one pass over its rounds: each thread of one process-wide pool of
``os.cpu_count()`` threads samples a round's matrix into its own reused
buffer and uses it at once, so a pass holds at most ``os.cpu_count()``
matrices and samples each round once.  Because every round has its own
stream, the values do not depend on the thread count.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import struct
import threading
import weakref
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numerics import DimensionMismatchError, GaussianSource, sample_gaussian_matrix

SIGNAL_STREAM = 0

NOISE_MODES = ("theory", "experiment")

_FIXTURE_MAGIC = b"RCS1"
_HEADER = struct.Struct("<4sQQQQ")


_sampling_pool: ThreadPoolExecutor | None = None
_sampling_thread_buffers = threading.local()  # each pool thread's buffer, kept between passes
# guards the pool's creation and the count of seeded passes that hold OpenBLAS at one thread
_sampling_lock = threading.Lock()
_pinning_passes = 0
_blas_threads_before = 0


@functools.cache
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread-count getter and setter of numpy's bundled OpenBLAS, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in (
            "scipy_openblas_{}_num_threads64_",
            "openblas_{}_num_threads64_",
            "openblas_{}_num_threads",
        ):
            get, set_ = (getattr(handle, name.format(verb), None) for verb in ("get", "set"))
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


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
    """The sensing matrices of a seeded ensemble, regenerated from their streams.

    Holds no matrix data; each ``[r]`` access re-samples matrix r from
    stream r + 1 of the master seed.  Accessing the same index twice gives
    bit-identical values.
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


def _sampled(matrices: LazyMatrices, r: int) -> np.ndarray:
    """Matrix r as ``matrices[r]`` draws it, in this thread's reused (n, k) buffer.

    Returns the (k, n) view, which holds until the thread samples again.
    """
    shape, buffers = (matrices._n, matrices._k), _sampling_thread_buffers
    if getattr(buffers, "cols", None) is None or buffers.cols.shape != shape:
        buffers.cols = None  # release the old buffer before allocating the new one
        buffers.cols = np.empty(shape)
    cols = buffers.cols
    matrices._source.stream(r + 1).generator().standard_normal(out=cols)
    cols *= np.sqrt(1.0 / matrices._k)
    return cols.T


@dataclass(frozen=True, eq=False)
class SensingEnsemble:
    """2*r0 sensing matrices, each k-by-n with N(0, 1/k) entries.

    ``matrices[r]`` is reproducible from (master_seed, r) alone.  The
    sequence is either stored (a tuple of arrays, given explicitly or read
    from a fixture file) or, for an ensemble from :func:`build_ensemble`, a
    :class:`LazyMatrices` that holds no matrix.
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


def build_ensemble(config: RecoveryConfig) -> SensingEnsemble:
    """The seeded ensemble of 2*r0 sensing matrices for a configuration.

    No matrix is sampled here: each pass over the ensemble samples the
    rounds it visits, and ``matrices[r]`` regenerates matrix r on access.
    """
    matrices = LazyMatrices(config.master_seed, 2 * config.r0, config.k, config.n)
    return SensingEnsemble(
        n=config.n, k=config.k, r0=config.r0, master_seed=config.master_seed, matrices=matrices
    )


def _each_round(
    ensemble: SensingEnsemble, rounds: Iterable[int], work: Callable[[int, np.ndarray], None]
) -> None:
    """Call ``work(r, A)`` with the matrix A of each round r: one pass over the rounds.

    A stored ensemble is visited in order on the caller's thread.  A seeded
    one's rounds run on the shared pool, each sampled into its thread's
    reused buffer, so ``work`` must be done with A when it returns.

    Meanwhile numpy's OpenBLAS, if bundled, is held at one thread: the pool
    keeps every core busy, and OpenBLAS threads woken by a threaded product
    would spin on those cores after it.  The setting is process-wide; the
    last pass to end, by returning or raising, restores the old count.
    """
    global _sampling_pool, _pinning_passes, _blas_threads_before
    matrices = ensemble.matrices
    if not isinstance(matrices, LazyMatrices):
        for r in rounds:
            work(r, matrices[r])
        return
    blas = _openblas_threads()
    with _sampling_lock:
        if _sampling_pool is None:
            _sampling_pool = ThreadPoolExecutor(
                max_workers=os.cpu_count() or 1, thread_name_prefix="randcs-sampling"
            )
        pool = _sampling_pool
        if blas is not None and _pinning_passes == 0:
            _blas_threads_before = blas[0]()
            blas[1](1)
        _pinning_passes += 1
    try:
        # reading every result raises the first error of any round here
        for _ in pool.map(lambda r: work(r, _sampled(matrices, r)), rounds):
            pass
    finally:
        with _sampling_lock:
            _pinning_passes -= 1
            if blas is not None and _pinning_passes == 0:
                blas[1](_blas_threads_before)


def _measure_round(
    A: np.ndarray, z: np.ndarray, r: int, r0: int, sigma_w: float, noise_mode: str, noise_seed: int
) -> np.ndarray:
    """b[r] = A @ z + w[r], the noise w[r] drawn from stream 2*r0 + r + 1 of ``noise_seed``."""
    k = A.shape[0]
    noise_sd = sigma_w if noise_mode == "theory" else sigma_w / math.sqrt(k)
    b = A @ z
    if noise_sd > 0:
        noise = GaussianSource(noise_seed).stream(2 * r0 + r + 1).generator().standard_normal(k)
        b = b + noise_sd * noise
    return b


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
    # v[r] = A[r]^T b[r] for r < r0 as measure() kept them, and a weak reference to the ensemble
    _projections: tuple[weakref.ref, np.ndarray] | None = field(
        default=None, init=False, repr=False
    )

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
    """Take the 2*r0 noisy measurements of a finite signal through an ensemble.

    Per-coordinate noise variance is sigma_w**2 in theory mode and
    sigma_w**2 / k in experiment mode; sigma_w = 0 gives exact noiseless
    products.  Noise vector r comes from stream 2*r0 + r + 1 of
    ``noise_seed``.

    The pass also back-projects rounds [0, r0), v[r] = A[r]^T b[r], while
    each matrix is at hand, and keeps them for the recovery routines, so no
    matrix is sampled twice.  The arrays are read-only so they cannot go stale.
    """
    if noise_mode not in NOISE_MODES:
        raise ValueError(f"noise_mode must be one of {NOISE_MODES}, got {noise_mode!r}")
    _check_noise_level(sigma_w)
    zv = z.values if isinstance(z, Signal) else np.asarray(z, dtype=np.float64)
    if zv.shape != (ensemble.n,):
        raise DimensionMismatchError(
            f"signal of shape {zv.shape} does not fit an ensemble of dimension {ensemble.n}"
        )
    if not np.isfinite(zv).all():
        raise ValueError("signal must be finite")
    r0 = ensemble.r0
    vectors = np.empty((2 * r0, ensemble.k))
    projections = np.empty((r0, ensemble.n))

    def measure_and_project(r: int, A: np.ndarray) -> None:
        vectors[r] = _measure_round(A, zv, r, r0, sigma_w, noise_mode, noise_seed)
        if r < r0:
            projections[r] = A.T @ vectors[r]

    _each_round(ensemble, range(2 * r0), measure_and_project)
    vectors.flags.writeable = projections.flags.writeable = False
    measurements = MeasurementEnsemble(
        vectors=vectors,
        n=ensemble.n,
        k=ensemble.k,
        r0=r0,
        master_seed=ensemble.master_seed,
        sigma_w=sigma_w,
        noise_mode=noise_mode,
    )
    object.__setattr__(measurements, "_projections", (weakref.ref(ensemble), projections))
    return measurements


def _back_project(
    ensemble: SensingEnsemble, measurements: MeasurementEnsemble, rounds: range
) -> np.ndarray:
    """v[r] = A[r]^T @ b[r] for every (checked) round: kept by :func:`measure`, or one pass."""
    kept = measurements._projections
    if kept is not None and kept[0]() is ensemble and max(rounds[0], rounds[-1]) < ensemble.r0:
        return kept[1][rounds]
    per_round = np.empty((len(rounds), ensemble.n))

    def project(r: int, A: np.ndarray) -> None:
        per_round[rounds.index(r)] = A.T @ measurements.vectors[r]

    _each_round(ensemble, rounds, project)
    return per_round


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
        if min(n, k, r0) < 1:
            raise ValueError(f"{path}: header needs n, k and r0 of at least 1, got {n}, {k}, {r0}")
        payload_bytes = os.fstat(fh.fileno()).st_size - _HEADER.size
        if payload_bytes % 8:
            raise ValueError(f"{path}: {payload_bytes}-byte payload is not whole float64 values")
        payload = np.fromfile(fh, dtype="<f8", count=payload_bytes // 8)
    return int(n), int(k), int(r0), int(seed), payload.astype(np.float64, copy=False)


def dump_ensemble(ensemble: SensingEnsemble, path) -> None:
    """Write an ensemble to the binary fixture format.

    Layout: magic ``RCS1`` then n, k, r0, seed as little-endian 64-bit
    fields, followed by the 2*r0 matrices as row-major float64, each
    written to its place as the pass reaches it.
    """
    n, k = ensemble.n, ensemble.k
    _write_fixture(path, n, k, ensemble.r0, ensemble.master_seed, ())

    def write_round(r: int, A: np.ndarray) -> None:
        with open(path, "r+b") as fh:
            fh.seek(_HEADER.size + 8 * r * k * n)
            fh.write(np.ascontiguousarray(A, dtype="<f8"))

    _each_round(ensemble, range(2 * ensemble.r0), write_round)


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
