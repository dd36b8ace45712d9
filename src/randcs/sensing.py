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
it is one pass over its rounds on one process-wide pool of
``os.cpu_count()`` threads.  A round that needs its whole matrix runs in a
lane, a pool thread that owns one (n, k) buffer for the pass, samples the
round into it and uses it at once.  Rounds [r0, 2*r0) of a measurement feed
only the noise floor, so they are streamed: drawn a block of columns at a
time, their support columns summed into A z as they pass, and never held
whole.  A pass samples each round once, keeps ceil(P/2) lanes on a pool of
P threads when it streams and P when it does not, and frees its buffers
when it returns; seeded passes run one at a time, so the process holds at
most one matrix per lane however many threads call in.  Because every
round has its own stream, and OpenBLAS is held at one thread during a
pass, the values do not depend on the thread count.

A measurement A z sums z_i * A[:, i] over the signal's support alone, one
term at a time in ascending i and without BLAS, so b[r] is the same bit for
bit for a seeded and a stored ensemble, at any thread count.
"""

from __future__ import annotations

import ctypes
import functools
import math
import mmap
import os
import struct
import threading
import weakref
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numerics import DimensionMismatchError, GaussianSource, sample_gaussian_matrix

SIGNAL_STREAM = 0

NOISE_MODES = ("theory", "experiment")

_FIXTURE_MAGIC = b"RCS1"
_HEADER = struct.Struct("<4sQQQQ")


# support rows summed per block by _signal_product: bounds its temporary to
# this many rows of k doubles, whatever the support size
_PRODUCT_BLOCK_ROWS = 256
# columns of A drawn per block by a streamed round: bounds its block to
# this many rows of k doubles, whatever the support
_STREAM_BLOCK_ROWS = 256

_sampling_pool: ThreadPoolExecutor | None = None
# held for the whole of a seeded pass, so passes run one at a time
_pass_lock = threading.Lock()


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


def _sampled(matrices: LazyMatrices, r: int, cols: np.ndarray) -> Iterator[np.ndarray]:
    """Matrix r's (n, k) sampling buffer as ``matrices[r]`` draws it, ``len(cols)`` rows at a time.

    Each step draws the next rows of the buffer into ``cols`` (into its
    first rows at the end), scales them and yields them; row i of the
    buffer is column i of matrix r.  An (n, k) ``cols`` comes in one step,
    whose ``.T`` is the (k, n) matrix.  A block holds until ``cols`` is
    written again, and nothing more is drawn once the caller stops.
    """
    generator = matrices._source.stream(r + 1).generator()
    scale = np.sqrt(1.0 / matrices._k)
    for start in range(0, matrices._n, len(cols)):
        block = cols[: matrices._n - start]
        generator.standard_normal(out=block)
        block *= scale
        yield block


def _is_finite_matrix(A: np.ndarray) -> bool:
    # min and max propagate NaN and hold any infinity, without an A-sized temporary
    return A.size == 0 or bool(np.isfinite(A.min()) and np.isfinite(A.max()))


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
        # a measurement sums only the signal's support columns, so an inf or
        # NaN elsewhere would never show in b; refuse it here instead
        if not isinstance(self.matrices, LazyMatrices):
            for r, A in enumerate(self.matrices):
                if not _is_finite_matrix(A):
                    raise ValueError(f"sensing matrix {r} has a non-finite entry")


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
    ensemble: SensingEnsemble,
    rounds: Iterable[int],
    work: Callable[[int, np.ndarray], None],
    z: np.ndarray | None = None,
    streamed: Iterable[int] = (),
    take: Callable[[int, np.ndarray], None] | None = None,
) -> None:
    """One pass: ``work(r, A)`` for each full round, ``take(r, A z)`` for each streamed round.

    A stored ensemble is visited in order on the caller's thread.  A seeded
    one runs on the P threads of the shared pool.  Its full rounds run in
    lanes, each owning one (n, k) buffer for the whole pass, so ``work``
    must be done with A when it returns: ceil(P/2) lanes when the pass
    streams, P lanes when it does not, and a lane that runs out of full
    rounds streams.  A streamed round draws its matrix ``_STREAM_BLOCK_ROWS``
    columns at a time into a small block (a lane's buffer lends its first
    rows), adds the support's columns to A z as they pass and stops after
    the block that holds max(supp(z)); with an empty support it draws
    nothing.  So a pass holds at most one buffer per lane, and drops them
    all when it returns.

    Seeded passes run one at a time, whatever the number of calling
    threads, so the buffer bound holds for the process.  For the whole pass
    numpy's OpenBLAS, if bundled, is held at one thread: the pool keeps
    every core busy, OpenBLAS threads woken by a threaded product would
    spin on those cores after it, and a threaded A^T b can change in the
    last bit with the thread count.  The pass restores the old count when
    it returns or raises.
    """
    global _sampling_pool
    matrices = ensemble.matrices
    if not isinstance(matrices, LazyMatrices):
        for r in rounds:
            work(r, matrices[r])
        for r in streamed:
            take(r, _signal_product(matrices[r], z))
        return
    n, k = matrices._n, matrices._k
    support = None if z is None else np.flatnonzero(z)
    # rounds not yet taken by a lane; deque.popleft is atomic
    full, rest = deque(rounds), deque(streamed)

    def lane(owns_buffer: bool) -> None:
        try:
            cols = None
            while owns_buffer and (r := _pop(full)) is not None:
                if cols is None:
                    cols = _lane_buffer(n, k)
                work(r, next(_sampled(matrices, r, cols)).T)
            block = None if cols is None else cols[:_STREAM_BLOCK_ROWS]
            while (r := _pop(rest)) is not None:
                if block is None:
                    block = np.empty((min(_STREAM_BLOCK_ROWS, n), k))
                take(r, _streamed_product(matrices, r, block, z, support))
        except BaseException:
            # the other lanes stop after their current round
            full.clear()
            rest.clear()
            raise

    with _pass_lock:
        if _sampling_pool is None:
            _sampling_pool = ThreadPoolExecutor(
                max_workers=os.cpu_count() or 1, thread_name_prefix="randcs-sampling"
            )
        threads = _sampling_pool._max_workers
        lanes = -(-threads // 2) if rest else threads
        blas = _openblas_threads()
        if blas is not None:
            threads_before = blas[0]()
            blas[1](1)
        try:
            running = [_sampling_pool.submit(lane, i < lanes) for i in range(threads)]
            # every lane ends before the pass does; then the first error of any round is raised
            wait(running)
            for done in running:
                done.result()
        finally:
            if blas is not None:
                blas[1](threads_before)


def _lane_buffer(n: int, k: int) -> np.ndarray:
    """An (n, k) buffer in an anonymous mapping of its own, unmapped when its last view goes.

    glibc serves blocks up to the largest size it has unmapped from the
    allocating thread's arena, and trims that arena only past twice that
    size, so an ``np.empty`` buffer under 32 MB could stay resident after its pass.
    """
    if not hasattr(mmap, "MAP_PRIVATE"):
        return np.empty((n, k))
    # private like malloc's mappings (a shared one gets no transparent huge pages)
    buf = mmap.mmap(-1, 8 * n * k, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)  # as numpy advises its large arrays
    return np.frombuffer(buf, dtype=np.float64).reshape(n, k)


def _pop(rounds: deque) -> int | None:
    try:
        return rounds.popleft()
    except IndexError:
        return None


def _streamed_product(
    matrices: LazyMatrices, r: int, block: np.ndarray, z: np.ndarray, support: np.ndarray
) -> np.ndarray:
    """A_r z as :func:`_signal_product` sums it, with A_r drawn ``len(block)`` columns at a time."""
    Az = np.zeros(matrices._k)
    if support.size == 0:
        return Az
    start = 0
    for rows in _sampled(matrices, r, block):
        stop = start + len(rows)
        lo, hi = np.searchsorted(support, (start, stop))
        Az = _add_support_rows(Az, rows, z[start:stop], support[lo:hi] - start)
        if hi == support.size:
            break
        start = stop
    return Az


def _signal_product(A: np.ndarray, z: np.ndarray) -> np.ndarray:
    """A @ z as the sum of z_i * A[:, i] over i in supp(z), one term at a time in ascending i.

    No BLAS call is made, so the bits do not depend on A's memory layout or
    on the BLAS thread count; an empty support gives zeros(k).
    """
    return _add_support_rows(np.zeros(A.shape[0]), A.T, z, np.flatnonzero(z))


def _add_support_rows(
    out: np.ndarray, columns: np.ndarray, z: np.ndarray, support: np.ndarray
) -> np.ndarray:
    """``out`` plus z_i * columns[i] for i in the ascending ``support``, one term at a time."""
    for start in range(0, support.size, _PRODUCT_BLOCK_ROWS):
        idx = support[start : start + _PRODUCT_BLOCK_ROWS]
        # C-order (len(idx), k) for a row- and a column-major A alike
        rows = columns[idx] * z[idx, None]
        # the running sum enters as the first term, so the order stays ascending
        rows[0] += out
        if out.size == 1:
            # a reduce along a single column would sum pairwise, not in order
            np.add.accumulate(rows, axis=0, out=rows)
            out = rows[-1].copy()
        else:
            # row by row: each row is added in full to the sum of those before it
            out = np.add.reduce(rows, axis=0)
    return out


def _add_noise(
    Az: np.ndarray, r: int, r0: int, sigma_w: float, noise_mode: str, noise_seed: int
) -> np.ndarray:
    """b[r] = A z + w[r], the noise w[r] drawn from stream 2*r0 + r + 1 of ``noise_seed``."""
    k = Az.shape[0]
    noise_sd = sigma_w if noise_mode == "theory" else sigma_w / math.sqrt(k)
    if noise_sd > 0:
        noise = GaussianSource(noise_seed).stream(2 * r0 + r + 1).generator().standard_normal(k)
        return Az + noise_sd * noise
    return Az


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
    sigma_w**2 / k in experiment mode; sigma_w = 0 gives noiseless
    products.  Noise vector r comes from stream 2*r0 + r + 1 of
    ``noise_seed``.  Each product A[r] z sums z_i * A[r][:, i] over the
    nonzero z_i in ascending i, without BLAS, so b[r] is the same bit for
    bit whether the ensemble is seeded or stored and at any thread count.

    The pass also back-projects rounds [0, r0), v[r] = A[r]^T b[r], while
    each matrix is at hand, and keeps them for the recovery routines, so no
    matrix is sampled twice.  The arrays are read-only so they cannot go stale.
    Rounds [r0, 2*r0) feed only the noise floor, so a seeded ensemble streams
    them: their matrices are drawn only up to the largest support index, a
    block of columns at a time, and never held whole.
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

    def noisy(r: int, Az: np.ndarray) -> None:
        vectors[r] = _add_noise(Az, r, r0, sigma_w, noise_mode, noise_seed)

    def measure_and_project(r: int, A: np.ndarray) -> None:
        noisy(r, _signal_product(A, zv))
        projections[r] = A.T @ vectors[r]

    # rounds [r0, 2*r0) feed only the noise floor, so A z is all they need
    _each_round(ensemble, range(r0), measure_and_project, zv, range(r0, 2 * r0), noisy)
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

    # rows copied per write, about 64 KiB: a copy of all of A would leave a
    # pool thread's glibc arena holding a matrix-sized block (see _lane_buffer)
    rows = max(1, 8192 // n)

    def write_round(r: int, A: np.ndarray) -> None:
        with open(path, "r+b") as fh:
            fh.seek(_HEADER.size + 8 * r * k * n)
            for i in range(0, k, rows):
                fh.write(np.ascontiguousarray(A[i : i + rows], dtype="<f8"))

    _each_round(ensemble, range(2 * ensemble.r0), write_round)


def load_ensemble(path) -> SensingEnsemble:
    """Read an ensemble fixture written by :func:`dump_ensemble`."""
    n, k, r0, seed, payload = _read_fixture(path)
    expected = 2 * r0 * k * n
    if payload.size != expected:
        raise ValueError(f"{path}: expected {expected} matrix entries, found {payload.size}")
    matrices = tuple(payload.reshape(2 * r0, k, n))
    try:
        return SensingEnsemble(n=n, k=k, r0=r0, master_seed=seed, matrices=matrices)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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
