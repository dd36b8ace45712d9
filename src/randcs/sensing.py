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
only the noise floor, so they are streamed: handed over as blocks of
columns, each drawn when it is asked for, and never held whole.  A pass
visits rounds and knows nothing of the signal.  It samples each round once,
keeps ceil(P/2) lanes on a pool of P threads when it streams and P when it
does not, and frees its buffers when it returns; seeded passes run one at
a time, so the process holds at most one matrix per lane however many
threads call in.  Because every round has its own stream, and OpenBLAS is
held at one thread during a pass, the values do not depend on the thread
count.

:func:`measure` is the one place that forms b = A z + w.  A z sums
z_i * A[:, i] over the signal's support alone, one term at a time in
ascending i and without BLAS, so b[r] is the same bit for bit for a seeded
and a stored ensemble, at any thread count.  A stored ensemble is one
C-contiguous (2*r0, n, k) stack of sampling buffers, ``matrices[r]`` being
its view ``stack[r].T``: an ``RCS2`` fixture as read, an ``RCS1`` one
(row-major, still read) or a hand-built sequence copied in once.  So every
matrix is column-major, and at one BLAS thread A^T b is the same bit for
bit too.  A stored measurement is one support gather and one batched A^T b.
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

from .numerics import _MASK64, DimensionMismatchError, GaussianSource, sample_gaussian_matrix

SIGNAL_STREAM = 0

NOISE_MODES = ("theory", "experiment")

# an ensemble is stored as its (n, k) sampling buffers; RCS1 (row-major
# (k, n) matrices) is still read, and is the measurement format
_ENSEMBLE_MAGIC = b"RCS2"
_FIXTURE_MAGIC = b"RCS1"
_HEADER = struct.Struct("<4sQQQQ")


# rows of k doubles gathered at a time by _sum_columns over all the rounds it
# sums (one column a round past that many rounds), whatever the support size
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


def generate_binary_signal(source: GaussianSource | int, n: int, s: int) -> np.ndarray:
    """A 0/1 float64 signal of length n with exactly s ones at uniformly chosen coordinates.

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
    return values


def _noise_sd(sigma_w: float, noise_mode: str, k: int) -> float:
    """Per-coordinate noise standard deviation: sigma_w, or sigma_w / sqrt(k) in experiment mode."""
    # NaN and inf fail every comparison, so test finiteness explicitly
    if not (math.isfinite(sigma_w) and sigma_w >= 0):
        raise ValueError(f"noise level must be finite and nonnegative, got {sigma_w}")
    if noise_mode not in NOISE_MODES:
        raise ValueError(f"noise_mode must be one of {NOISE_MODES}, got {noise_mode!r}")
    return sigma_w if noise_mode == "theory" else sigma_w / math.sqrt(k)


@dataclass(frozen=True)
class RecoveryConfig:
    """Problem dimensions, round count, noise convention, and seed.

    Unset ``k`` defaults to ceil(2 * s * ln n); unset ``r0`` defaults to
    ceil(ln n).  ``noise_mode`` selects the per-coordinate noise variance:
    ``"theory"`` uses sigma_w**2, ``"experiment"`` uses sigma_w**2 / k.
    ``master_seed`` is kept as its 64-bit value, as the streams take it.
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
        _noise_sd(self.sigma_w, self.noise_mode, self.k)
        object.__setattr__(self, "master_seed", self.master_seed & _MASK64)


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
    # a finite sum settles it in one pass; a sum that overflowed or met an inf
    # or NaN falls back to min and max, which propagate NaN and hold any infinity
    with np.errstate(over="ignore", invalid="ignore"):
        if A.size == 0 or np.isfinite(A.sum()):
            return True
    return bool(np.isfinite(A.min()) and np.isfinite(A.max()))


@dataclass(frozen=True, eq=False)
class SensingEnsemble:
    """2*r0 sensing matrices, each k-by-n with N(0, 1/k) entries.

    ``matrices[r]`` is reproducible from (master_seed, r) alone.  For an
    ensemble from :func:`build_ensemble` it is a :class:`LazyMatrices` that
    holds no matrix.  A stored ensemble copies the (k, n) matrices once into
    its stack (see the module) and keeps ``matrices`` as views of it.
    """

    n: int
    k: int
    r0: int
    master_seed: int
    matrices: Sequence[np.ndarray]
    # a stored ensemble's C-contiguous (2*r0, n, k) stack; None for a seeded one
    _stack: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.matrices) != 2 * self.r0:
            raise ValueError(
                f"ensemble must hold exactly 2*r0 = {2 * self.r0} matrices, "
                f"got {len(self.matrices)}"
            )
        if isinstance(self.matrices, LazyMatrices):
            return
        if isinstance(m := self.matrices, np.ndarray) and m.shape == (2 * self.r0, self.k, self.n):
            # a fixture's payload: RCS2 is the stack's transposed view, kept uncopied
            stack = np.ascontiguousarray(m.transpose(0, 2, 1), dtype=np.float64)
        else:  # copied once through the stack's (2*r0, k, n) view; another shape raises
            stack = np.empty((2 * self.r0, self.n, self.k))
            np.stack(list(self.matrices), out=stack.transpose(0, 2, 1))
        # a measurement sums only the signal's support columns, so an inf or
        # NaN elsewhere would never show in b; refuse it here instead
        for r, buffer in enumerate(stack):
            if not _is_finite_matrix(buffer):
                raise ValueError(f"sensing matrix {r} has a non-finite entry")
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "matrices", tuple(stack.transpose(0, 2, 1)))


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
    streamed: Iterable[int] = (),
    take: Callable[[int, Iterable[np.ndarray]], None] | None = None,
) -> None:
    """One pass: ``work(r, A)`` for each full round, ``take(r, blocks)`` for each streamed round.

    ``blocks`` are A's columns, as consecutive row blocks of its (n, k)
    buffer, ``_STREAM_BLOCK_ROWS`` rows at a time, each drawn when it is
    asked for and held until the next is.

    The ensemble is seeded, and the pass runs on the P threads of the shared
    pool.  Its full rounds run in lanes, each owning one (n, k) buffer for
    the pass, so ``work`` must be done with A when it returns: ceil(P/2)
    lanes when the pass streams, P lanes when it does not, and a lane that
    runs out of full rounds streams.  A streamed round is drawn into a small
    block (a lane's buffer lends its first rows).  So a pass holds at most
    one buffer per lane, and drops them all when it returns.

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
    n, k = matrices._n, matrices._k
    # rounds not yet taken by a lane; deque.popleft is atomic
    full, rest = deque(rounds), deque(streamed)

    def lane(owns_buffer: bool) -> None:
        def blocks(r: int) -> Iterator[np.ndarray]:
            # a generator, so the stream opens only when take asks for a block
            yield from _sampled(matrices, r, block)

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
                take(r, blocks(r))
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


def _sum_columns(
    blocks: Iterable[np.ndarray], z: np.ndarray, support: np.ndarray, k: int
) -> np.ndarray:
    """The sum of z_i * A[:, i] over the ascending ``support``, one term at a time.

    ``blocks`` are the rows of A's (n, k) buffer in consecutive blocks (see
    :func:`_each_round`), or one (rounds, n, k) stack summed for all rounds at
    once.  No block is taken after the one that holds max(support), none at
    all for an empty support, and no BLAS call is made, so the bits depend
    neither on the blocks nor on A's memory layout nor on the BLAS thread
    count.  An empty support gives zeros(k).
    """
    out = np.zeros(k)
    blocks = iter(blocks)
    start = lo = 0
    while lo < support.size:
        rows = next(blocks)
        stop = start + rows.shape[-2]
        # a whole matrix, one block at 0, needs neither a search nor a shift
        hi = support.size if support[-1] < stop else int(np.searchsorted(support, stop))
        step = max(1, _PRODUCT_BLOCK_ROWS // math.prod(rows.shape[:-2]))
        dtype = np.result_type(rows, z)
        for first in range(lo, hi, step):
            idx = support[first : min(first + step, hi)]
            # a copy, rows of k contiguous for any A; scaled in place, so no second temporary
            terms = rows[..., idx - start if start else idx, :].astype(dtype, copy=False)
            terms *= z[idx, None]
            # the running sum enters as the first term, so the order stays ascending
            terms[..., 0, :] += out
            if k == 1:
                # a reduce along a single column would sum pairwise, not in order
                np.add.accumulate(terms, axis=-2, out=terms)
                out = terms[..., -1, :].copy()
            else:
                # row by row: each row is added in full to the sum of those before it
                out = np.add.reduce(terms, axis=-2)
        start, lo = stop, hi
    return out


def _signal_product(A: np.ndarray, z: np.ndarray) -> np.ndarray:
    """A @ z as :func:`_sum_columns` sums it over supp(z)."""
    return _sum_columns((A.T,), z, np.flatnonzero(z), A.shape[0])


def _add_noise(Az: np.ndarray, r: int, r0: int, noise_sd: float, noise_seed: int) -> np.ndarray:
    """b[r] = A z + w[r], w[r] being ``noise_sd`` times stream 2*r0 + r + 1 of ``noise_seed``."""
    if noise_sd > 0:
        noise = GaussianSource(noise_seed).stream(2 * r0 + r + 1).generator()
        return Az + noise_sd * noise.standard_normal(Az.shape[0])
    return Az


@dataclass(frozen=True, eq=False)
class MeasurementEnsemble:
    """Measurement vectors b[r] = A[r] @ z + w[r], one row per round, all finite."""

    vectors: np.ndarray
    n: int
    k: int
    r0: int
    master_seed: int
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
    z: np.ndarray,
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

    Rounds [0, r0) are also back-projected, v[r] = A[r]^T b[r], and kept for
    the recovery routines; the arrays are read-only so they cannot go stale.
    A seeded ensemble's pass back-projects each matrix while it is at hand,
    and streams rounds [r0, 2*r0), which feed only the noise floor: their
    matrices are drawn only up to the largest support index, a block of
    columns at a time, and never held whole.
    """
    noise_sd = _noise_sd(sigma_w, noise_mode, ensemble.k)
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (ensemble.n,):
        raise DimensionMismatchError(
            f"signal of shape {z.shape} does not fit an ensemble of dimension {ensemble.n}"
        )
    if not np.isfinite(z).all():
        raise ValueError("signal must be finite")
    r0, k = ensemble.r0, ensemble.k
    support = np.flatnonzero(z)
    vectors = np.empty((2 * r0, k))
    if (stack := ensemble._stack) is not None:
        vectors[:] = _sum_columns((stack,), z, support, k)
        for r in range(2 * r0):
            vectors[r] = _add_noise(vectors[r], r, r0, noise_sd, noise_seed)
        projections = np.matmul(stack[:r0], vectors[:r0, :, None])[..., 0]
    else:
        projections = np.empty((r0, ensemble.n))

        def noisy(r: int, cols: Iterable[np.ndarray]) -> None:
            vectors[r] = _add_noise(_sum_columns(cols, z, support, k), r, r0, noise_sd, noise_seed)

        def measure_and_project(r: int, A: np.ndarray) -> None:
            noisy(r, (A.T,))
            projections[r] = A.T @ vectors[r]

        # rounds [r0, 2*r0) feed only the noise floor, so A z is all they need
        _each_round(ensemble, range(r0), measure_and_project, range(r0, 2 * r0), noisy)
    vectors.flags.writeable = projections.flags.writeable = False
    measurements = MeasurementEnsemble(vectors, ensemble.n, ensemble.k, r0, ensemble.master_seed)
    object.__setattr__(measurements, "_projections", (weakref.ref(ensemble), projections))
    return measurements


def _back_project(
    ensemble: SensingEnsemble, measurements: MeasurementEnsemble, rounds: range
) -> np.ndarray:
    """v[r] = A[r]^T @ b[r] for every (checked) round: kept, one batched product, or one pass."""
    kept = measurements._projections
    if kept is not None and kept[0]() is ensemble and max(rounds[0], rounds[-1]) < ensemble.r0:
        return kept[1][rounds]
    if ensemble._stack is not None:
        # a view of the rounds: indexing by the range itself would copy the matrices
        picked = slice(rounds.start, None if rounds.stop < 0 else rounds.stop, rounds.step)
        return np.matmul(ensemble._stack[picked], measurements.vectors[picked, :, None])[..., 0]
    per_round = np.empty((len(rounds), ensemble.n))

    def project(r: int, A: np.ndarray) -> None:
        per_round[rounds.index(r)] = A.T @ measurements.vectors[r]

    _each_round(ensemble, rounds, project)
    return per_round


def _write_fixture(path, magic: bytes, n: int, k: int, r0: int, seed: int, blocks=()) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(magic, n, k, r0, seed & _MASK64))
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f8"))


def _read_fixture(path, *magics: bytes) -> tuple[bytes, int, int, int, int, np.ndarray]:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated fixture file")
        magic, n, k, r0, seed = _HEADER.unpack(header)
        if magic not in magics:
            raise ValueError(f"{path}: bad magic {magic!r}, expected one of {magics}")
        if min(n, k, r0) < 1:
            raise ValueError(f"{path}: header needs n, k and r0 of at least 1, got {n}, {k}, {r0}")
        payload_bytes = os.fstat(fh.fileno()).st_size - _HEADER.size
        if payload_bytes % 8:
            raise ValueError(f"{path}: {payload_bytes}-byte payload is not whole float64 values")
        payload = np.fromfile(fh, dtype="<f8", count=payload_bytes // 8)
    return magic, int(n), int(k), int(r0), int(seed), payload.astype(np.float64, copy=False)


def dump_ensemble(ensemble: SensingEnsemble, path) -> None:
    """Write an ensemble to the binary fixture format.

    Layout: magic ``RCS2`` then n, k, r0, seed as little-endian 64-bit
    fields, followed by the 2*r0 matrices as float64 (n, k) sampling
    buffers, row i of buffer r being column i of matrix r.  A stored
    ensemble's stack is written as it is; each seeded round is written from
    its lane buffer as the pass reaches it, uncopied.
    """
    n, k, stack = ensemble.n, ensemble.k, ensemble._stack
    stored = () if stack is None else (stack,)
    _write_fixture(path, _ENSEMBLE_MAGIC, n, k, ensemble.r0, ensemble.master_seed, stored)
    if stack is not None:
        return

    def write_round(r: int, A: np.ndarray) -> None:
        with open(path, "r+b") as fh:
            fh.seek(_HEADER.size + 8 * r * k * n)
            fh.write(np.ascontiguousarray(A.T, dtype="<f8"))

    _each_round(ensemble, range(2 * ensemble.r0), write_round)


def load_ensemble(path) -> SensingEnsemble:
    """Read an ensemble fixture written by :func:`dump_ensemble`, or an older RCS1 one.

    An RCS2 payload is kept as the ensemble's stack, uncopied; an RCS1 one
    (row-major (k, n) matrices) is copied into a stack once.
    """
    magic, n, k, r0, seed, payload = _read_fixture(path, _ENSEMBLE_MAGIC, _FIXTURE_MAGIC)
    expected = 2 * r0 * k * n
    if payload.size != expected:
        raise ValueError(f"{path}: expected {expected} matrix entries, found {payload.size}")
    if magic == _ENSEMBLE_MAGIC:
        stacked = payload.reshape(2 * r0, n, k).transpose(0, 2, 1)
    else:
        stacked = payload.reshape(2 * r0, k, n)
    try:
        return SensingEnsemble(n=n, k=k, r0=r0, master_seed=seed, matrices=stacked)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def dump_measurements(measurements: MeasurementEnsemble, path) -> None:
    """Write measurement vectors to the binary fixture format (same header)."""
    m = measurements
    _write_fixture(path, _FIXTURE_MAGIC, m.n, m.k, m.r0, m.master_seed, [m.vectors])


def load_measurements(path) -> MeasurementEnsemble:
    """Read a measurement fixture written by :func:`dump_measurements`."""
    _, n, k, r0, seed, payload = _read_fixture(path, _FIXTURE_MAGIC)
    expected = 2 * r0 * k
    if payload.size != expected:
        raise ValueError(f"{path}: expected {expected} measurement entries, found {payload.size}")
    return MeasurementEnsemble(
        vectors=payload.reshape(2 * r0, k), n=n, k=k, r0=r0, master_seed=seed
    )
