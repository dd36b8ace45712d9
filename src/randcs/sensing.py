"""Sensing and measurement model.

Builds the ordered collection of random Gaussian sensing matrices and the
paired noisy measurement vectors, in both noise conventions (per-coordinate
noise variance ``sigma_w**2`` for analysis work, ``sigma_w**2 / k`` for
benchmark runs).  Every component derives from a fixed stream map, so any
matrix, noise vector, or signal is reproducible in isolation:

* stream 0                        -- the signal
* stream r + 1, r in [0, 2*r0)    -- sensing matrix r
* stream 2*r0 + r + 1             -- noise vector r

Measuring, back-projecting and dumping an ensemble is one pass over its
rounds, which hands them to one callback as blocks of their matrices'
columns, stacked on a leading round axis.  A seeded ensemble holds no
matrix: its pass makes its own pool of ``os.cpu_count()`` threads, hands
over one round at a time, and joins every thread before it returns or
raises.  A round that needs its whole matrix runs in a lane, a pool thread
that owns one (n, k) buffer for the pass, samples the round into it as one
block and uses it at once.  Rounds [r0, 2*r0) of a measurement feed only
the noise floor, so they are streamed: handed over as blocks of a few
columns, each drawn when it is asked for, and never held whole.  A pass
visits rounds and knows nothing of the signal.  A seeded pass samples each
round once, keeps ceil(P/2) lanes on a pool of P threads when it streams
and P when it does not, and frees its buffers when it returns; seeded
passes run one at a time, so the process holds at most one matrix per lane
however many threads call in.  Because every round has its own stream, and
OpenBLAS is held at one thread during a seeded pass, a seeded ensemble's
values do not depend on the thread count.

:func:`measure` is the one place that forms b = A z + w.  A z sums
z_i * A[:, i] over the signal's support alone, one term at a time in
ascending i and without BLAS, so b[r] is the same bit for bit for a seeded
and a stored ensemble, at any thread count.  Every ensemble's ``matrices``
is one :class:`LazyMatrices`, which answers every round index by one rule.
A seeded one re-samples matrix r; a stored one holds the ensemble's only
copy of its matrices, one C-contiguous (2*r0, n, k) stack of sampling
buffers, and answers the view ``stack[r].T``: an ``RCS2`` fixture as read,
or a hand-built sequence copied in once.  So every matrix is column-major,
and at one BLAS thread A^T b is the same bit for bit too.  A stored
ensemble's pass hands every requested round over at once, as one view of
the stack, on the caller's thread, with no pool and BLAS at its usual
thread count: a stored measurement is one support sum over the stack and
one batched A^T b.
"""

from __future__ import annotations

import contextlib
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numerics import (DimensionMismatchError, GaussianSource, _finite, _integer, _seed64,
                       sample_gaussian_matrix)

SIGNAL_STREAM = 0

NOISE_MODES = ("theory", "experiment")

# an ensemble file holds its (n, k) sampling buffers; a measurement file
# keeps the first format's magic, as its vectors have only one layout
_ENSEMBLE_MAGIC = b"RCS2"
_MEASUREMENT_MAGIC = b"RCS1"
_HEADER = struct.Struct("<4sQQQQ")


# columns of A drawn per block by a streamed round: bounds its block to
# this many rows of k doubles, whatever the support
_STREAM_BLOCK_ROWS = 256

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
    taken as the dedicated signal stream of that seed).  n and s follow
    :func:`~randcs.numerics._integer`'s rule, with 1 <= s <= n.
    """
    n = _integer(n, "n")
    s = _integer(s, "s", 1, n)
    if not isinstance(source, GaussianSource):
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
    n, s, k and r0 may be integers of any type, numpy's included, and are
    kept as Python ints; a float such as 40.0 raises ``ValueError``, as do
    an s outside [1, n] and a k or r0, given or default, below 1.
    ``master_seed``, an integer of any type too, is kept as its 64-bit
    value, as the streams take it.
    """

    n: int
    s: int
    k: int | None = None
    r0: int | None = None
    sigma_w: float = 0.1
    noise_mode: str = "experiment"
    master_seed: int = 0

    def __post_init__(self) -> None:
        n = _integer(self.n, "n")
        s = _integer(self.s, "s", 1, n)
        k = _integer(default_measurement_count(n, s) if self.k is None else self.k, "k", 1)
        r0 = _integer(default_round_count(n) if self.r0 is None else self.r0, "r0", 1)
        for name, value in (("n", n), ("s", s), ("k", k), ("r0", r0)):
            object.__setattr__(self, name, value)
        _noise_sd(self.sigma_w, self.noise_mode, self.k)
        object.__setattr__(self, "master_seed", _seed64(self.master_seed, "master_seed"))


class LazyMatrices(Sequence):
    """The ``count`` (k, n) sensing matrices of an ensemble, seeded or stored.

    Without ``stack`` it is seeded and holds no matrix data: each ``[r]``
    access re-samples matrix r from stream r + 1 of the master seed, and
    accessing the same index twice gives bit-identical values.  With one it
    is stored: ``stack`` is the C-contiguous (count, n, k) stack of sampling
    buffers (see the module), kept uncopied, and ``[r]`` is its view
    ``stack[r].T``; a stack of another shape or with a non-finite entry
    raises ``ValueError``.  Both forms take ``r`` by one rule: an integer of
    any type, negative ones counting from the end; anything else, a slice
    included, raises ``ValueError``, and a round outside [0, count)
    ``IndexError``.  ``count``, ``k`` and ``n`` take the same integer rule,
    each at least 1, and the stack :func:`~randcs.numerics._finite`'s test.
    """

    def __init__(
        self, master_seed: int, count: int, k: int, n: int, stack: np.ndarray | None = None
    ):
        count, k, n = _integer(count, "count", 1), _integer(k, "k", 1), _integer(n, "n", 1)
        if stack is not None and stack.shape != (count, n, k):
            raise ValueError(f"expected a {(count, n, k)} stack, got shape {stack.shape}")
        # a measurement sums only the signal's support columns, so an inf or
        # NaN elsewhere would never show in b; refuse it here instead
        for r, buffer in enumerate(() if stack is None else stack):
            _finite(buffer, f"sensing matrix {r}")
        self._source = GaussianSource(master_seed)
        self._count, self._k, self._n, self._stack = count, k, n, stack

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, r: int) -> np.ndarray:
        r = _integer(r, "round")
        if r < 0:
            r += self._count
        if not 0 <= r < self._count:
            raise IndexError(f"round index {r} out of range for {self._count} rounds")
        if self._stack is not None:
            return self._stack[r].T
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


@dataclass(frozen=True, eq=False)
class SensingEnsemble:
    """2*r0 sensing matrices, each k-by-n with N(0, 1/k) entries.

    ``matrices`` is always a :class:`LazyMatrices`.  For an ensemble from
    :func:`build_ensemble` it is seeded and holds no matrix, and
    ``matrices[r]`` is reproducible from (master_seed, r) alone.  Any other
    sequence of (k, n) matrices is copied once into a stored one's stack
    (see the module).  A ``LazyMatrices`` whose k or n differs from the
    ensemble's raises ``ValueError``, as does a seeded one of another
    master seed; a stored one's seed is only its fixture header's label.
    n, k and r0 are integers of any type, kept as Python ints, each at
    least 1; anything else raises ``ValueError``.
    """

    n: int
    k: int
    r0: int
    master_seed: int
    matrices: Sequence[np.ndarray]

    def __post_init__(self) -> None:
        for name in ("n", "k", "r0"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 1))
        if len(m := self.matrices) != 2 * self.r0:
            raise ValueError(
                f"ensemble must hold exactly 2*r0 = {2 * self.r0} matrices, got {len(m)}"
            )
        if not isinstance(m, LazyMatrices):
            # copied once through the stack's (2*r0, k, n) view; another shape raises
            stack = np.empty((2 * self.r0, self.n, self.k))
            np.stack(list(m), out=stack.transpose(0, 2, 1))
            m = LazyMatrices(self.master_seed, 2 * self.r0, self.k, self.n, stack)
            object.__setattr__(self, "matrices", m)
        # a stored ensemble's seed only labels its fixture header
        other_seed = m._stack is None and m._source != GaussianSource(self.master_seed)
        if (m._k, m._n) != (self.k, self.n) or other_seed:
            raise ValueError(f"matrices of k={m._k}, n={m._n}, seed {m._source.master_seed} do not "
                             f"fit an ensemble of k={self.k}, n={self.n}, seed {self.master_seed}")


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
    rounds: range,
    take: Callable[[range, Iterator[np.ndarray]], None],
    streamed: int = 0,
) -> None:
    """One pass: ``take(block_rounds, blocks)`` until every round of ``rounds`` is taken once.

    ``blocks`` are A's columns as consecutive row blocks of the (n, k)
    sampling buffers of ``block_rounds``, a sub-range of ``rounds``, stacked
    on a leading round axis; each block is drawn when it is asked for and
    held until the next is.  A full round's one block is its whole buffer,
    whose ``.T`` is A.  The last ``streamed`` of ``rounds`` are streamed
    rounds of a seeded ensemble: their blocks are ``_STREAM_BLOCK_ROWS``
    rows each.

    A stored ensemble is taken in one call on the caller's thread: its one
    block is the stack's view of ``rounds`` in their order, never a copy.
    It uses no pool, lock or BLAS pin, so its products run at BLAS's usual
    thread count.

    A seeded ensemble is taken one round at a time on a pool of P =
    ``os.cpu_count()`` threads that the pass makes for itself and joins
    before it returns or raises.  Its full rounds run in lanes, each owning
    one (n, k) buffer for the pass, so ``take`` must be done with its blocks
    when it returns: ceil(P/2) lanes when the pass streams, P lanes when it
    does not, and a lane that runs out of full rounds streams.  A streamed
    round is drawn into a small block (a lane's buffer lends its first
    rows).  So a pass holds at most one buffer per lane, and drops them all
    when it returns.

    Seeded passes run one at a time, whatever the number of calling
    threads, so the buffer bound holds for the process.  For the whole pass
    numpy's OpenBLAS, if bundled, is held at one thread: the pool keeps
    every core busy, OpenBLAS threads woken by a threaded product would
    spin on those cores after it, and a threaded A^T b can change in the
    last bit with the thread count.  Once its lanes are joined, the pass
    restores the old count, then raises the first error of any round.
    """
    if (stack := ensemble.matrices._stack) is not None:
        # rounds are checked to lie in the stack, so a negative stop only ends a descent at 0
        view = stack[rounds.start : None if rounds.stop < 0 else rounds.stop : rounds.step]
        take(rounds, iter((view,)))
        return
    matrices, n, k = ensemble.matrices, ensemble.n, ensemble.k
    # rounds not yet taken by a lane; deque.popleft is atomic
    full, rest = deque(rounds[: len(rounds) - streamed]), deque(rounds[len(rounds) - streamed :])

    def lane(owns_buffer: bool) -> None:
        def blocks(r: int, rows: np.ndarray) -> Iterator[np.ndarray]:
            # a generator, so the stream opens only when take asks for a block
            for block in _sampled(matrices, r, rows):
                yield block[None]

        try:
            cols = None
            while owns_buffer and (r := _pop(full)) is not None:
                if cols is None:
                    cols = _lane_buffer(n, k)
                take(range(r, r + 1), blocks(r, cols))
            block = None if cols is None else cols[:_STREAM_BLOCK_ROWS]
            while (r := _pop(rest)) is not None:
                if block is None:
                    block = np.empty((min(_STREAM_BLOCK_ROWS, n), k))
                take(range(r, r + 1), blocks(r, block))
        except BaseException:
            # the other lanes stop after their current round
            full.clear()
            rest.clear()
            raise

    threads = os.cpu_count() or 1
    lanes = -(-threads // 2) if rest else threads
    with _pass_lock:
        blas = _openblas_threads()
        if blas is not None:
            threads_before = blas[0]()
            blas[1](1)
        try:
            # leaving the block joins every lane; then the first error of any round is raised
            with ThreadPoolExecutor(threads, thread_name_prefix="randcs-sampling") as pool:
                running = [pool.submit(lane, i < lanes) for i in range(threads)]
        finally:
            if blas is not None:
                blas[1](threads_before)
        for done in running:
            done.result()


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

    ``blocks`` are the rows of A's (n, k) buffer in consecutive blocks, or
    of a (rounds, n, k) stack of such buffers summed for all its rounds at
    once (see :func:`_each_round`).  No block is taken after the one that
    holds max(support), none at all for an empty support, and no BLAS call
    is made, so the bits depend neither on the blocks nor on A's memory
    layout nor on the BLAS thread count.  ``z[i]`` is a float64 scalar, so
    an A of another dtype is summed in float64 too.  Each term is formed in
    one buffer, allocated with the sum once the first block gives the
    leading shape.  An empty support gives zeros(k).
    """
    out = term = None
    blocks = iter(blocks)
    start = stop = 0
    for i in support:
        while i >= stop:
            rows = next(blocks)
            start, stop = stop, stop + rows.shape[-2]
            if out is None:
                out = np.zeros((*rows.shape[:-2], k))
                term = np.empty_like(out)
        np.multiply(z[i], rows[..., i - start, :], out=term)
        np.add(out, term, out=out)
    return np.zeros(k) if out is None else out


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
    """Measurement vectors b[r] = A[r] @ z + w[r], one row per round, all finite.

    n, k and r0 are integers of any type, kept as Python ints, each at
    least 1; anything else, or a non-finite entry of ``vectors``, raises
    ``ValueError``.
    """

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
        for name in ("n", "k", "r0"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 1))
        if self.vectors.ndim != 2 or self.vectors.shape != (2 * self.r0, self.k):
            raise ValueError(
                f"expected a (2*r0, k) = ({2 * self.r0}, {self.k}) measurement array, "
                f"got shape {self.vectors.shape}"
            )
        _finite(self.vectors, "measurement array")


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
    ``noise_seed``, an integer of any type, checked even when no noise is
    drawn.  Each product A[r] z sums z_i * A[r][:, i] over the
    nonzero z_i in ascending i, without BLAS, so b[r] is the same bit for
    bit whether the ensemble is seeded or stored and at any thread count.

    Rounds [0, r0) are also back-projected, v[r] = A[r]^T b[r], and kept for
    the recovery routines; the arrays are read-only so they cannot go stale.
    One callback takes each block of rounds from the pass: one support sum,
    the noise of each round and one batched A^T b for the rounds below r0.
    A seeded ensemble's blocks are single rounds, each back-projected while
    its matrix is at hand, and rounds [r0, 2*r0), which feed only the noise
    floor, are streamed: their matrices are drawn only up to the largest
    support index, a block of columns at a time, and never held whole.  A
    stored ensemble's one block is all 2*r0 rounds of its stack, taken on
    the caller's thread.
    """
    noise_sd = _noise_sd(sigma_w, noise_mode, ensemble.k)
    noise_seed = _seed64(noise_seed, "noise_seed")
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (ensemble.n,):
        raise DimensionMismatchError(
            f"signal of shape {z.shape} does not fit an ensemble of dimension {ensemble.n}"
        )
    _finite(z, "signal")
    r0, k = ensemble.r0, ensemble.k
    support = np.flatnonzero(z)
    vectors = np.empty((2 * r0, k))
    projections = np.empty((r0, ensemble.n))

    def take(rounds: range, blocks: Iterator[np.ndarray]) -> None:
        # rounds ascend by 1, so they are the slice [lo, hi).  A block of full
        # rounds is whole, kept for A^T b of the rounds below top = min(hi, r0);
        # rounds [r0, 2*r0) feed only the noise floor, so A z is all they need
        lo, hi, top = rounds.start, rounds.stop, min(rounds.stop, r0)
        stack = next(blocks) if lo < top else None
        vectors[lo:hi] = _sum_columns(blocks if stack is None else (stack,), z, support, k)
        for r in rounds:
            vectors[r] = _add_noise(vectors[r], r, r0, noise_sd, noise_seed)
        if stack is not None:
            np.matmul(stack[: top - lo], vectors[lo:top, :, None], out=projections[lo:top, :, None])

    _each_round(ensemble, range(2 * r0), take, streamed=r0)
    vectors.flags.writeable = projections.flags.writeable = False
    measurements = MeasurementEnsemble(vectors, ensemble.n, ensemble.k, r0, ensemble.master_seed)
    object.__setattr__(measurements, "_projections", (weakref.ref(ensemble), projections))
    return measurements


def _back_project(
    ensemble: SensingEnsemble, measurements: MeasurementEnsemble, rounds: range
) -> np.ndarray:
    """v[r] = A[r]^T @ b[r] for every (checked) round: kept, or a batched product per block."""
    kept = measurements._projections
    if kept is not None and kept[0]() is ensemble and max(rounds[0], rounds[-1]) < ensemble.r0:
        return kept[1][rounds]
    per_round = np.empty((len(rounds), ensemble.n))

    def project(taken: range, blocks: Iterator[np.ndarray]) -> None:
        at = rounds.index(taken[0])
        b = measurements.vectors[taken, :, None]
        per_round[at : at + len(taken)] = np.matmul(next(blocks), b)[..., 0]

    _each_round(ensemble, rounds, project)
    return per_round


def _write_fixture(path, magic: bytes, n: int, k: int, r0: int, seed: int, blocks=()) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(magic, n, k, r0, _seed64(seed)))
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f8"))


@contextlib.contextmanager
def _fixture(path, what: str, magic: bytes) -> Iterator[tuple]:
    """A fixture file's header fields and payload, ``(n, k, r0, seed, payload)``.

    Each of the 2*r0 rounds holds one (k, n) ``"matrix"`` or one k-entry
    ``"measurement"``, as ``what`` says.  The header is checked before any
    of the payload is read: a magic other than ``magic`` is refused, r0
    takes :func:`_integer`'s rule, so a header's r0 = 0 is named as such,
    and a payload of any size but the one the header gives is refused.
    Every ``ValueError`` raised here or in the ``with`` block is raised
    again with ``path`` in front, so a caller reading two files can tell
    which one is bad.
    """
    try:
        with open(path, "rb") as fh:
            header = fh.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise ValueError("truncated fixture file")
            found, n, k, r0, seed = _HEADER.unpack(header)
            if found != magic:
                raise ValueError(f"bad magic {found!r}, expected {magic!r}")
            r0 = _integer(r0, "r0", 1)
            expected = 2 * r0 * k * (n if what == "matrix" else 1)
            payload_bytes = os.fstat(fh.fileno()).st_size - _HEADER.size
            if payload_bytes != 8 * expected:
                raise ValueError(f"expected {expected} {what} entries, found {payload_bytes} bytes")
            payload = np.fromfile(fh, dtype="<f8", count=expected)
        yield n, k, r0, seed, payload.astype(np.float64, copy=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def dump_ensemble(ensemble: SensingEnsemble, path) -> None:
    """Write an ensemble to the binary fixture format.

    Layout: magic ``RCS2`` then n, k, r0, seed as little-endian 64-bit
    fields, followed by the 2*r0 matrices as float64 (n, k) sampling
    buffers, row i of buffer r being column i of matrix r.  Each block of
    the pass is written at the offset of its first round, uncopied: a
    stored ensemble's whole stack in one write on the caller's thread, a
    seeded round from its lane buffer as the pass reaches it.
    """
    _write_fixture(path, _ENSEMBLE_MAGIC, ensemble.n, ensemble.k, ensemble.r0, ensemble.master_seed)

    def write_rounds(rounds: range, blocks: Iterator[np.ndarray]) -> None:
        with open(path, "r+b") as fh:
            fh.seek(_HEADER.size + 8 * rounds[0] * ensemble.k * ensemble.n)
            fh.write(np.ascontiguousarray(next(blocks), dtype="<f8"))

    _each_round(ensemble, range(2 * ensemble.r0), write_rounds)


def load_ensemble(path) -> SensingEnsemble:
    """Read an ensemble fixture written by :func:`dump_ensemble`.

    The payload read becomes the stack of a stored :class:`LazyMatrices`,
    uncopied.  Every ``ValueError`` names ``path``.
    """
    with _fixture(path, "matrix", _ENSEMBLE_MAGIC) as (n, k, r0, seed, payload):
        matrices = LazyMatrices(seed, 2 * r0, k, n, payload.reshape(2 * r0, n, k))
        return SensingEnsemble(n=n, k=k, r0=r0, master_seed=seed, matrices=matrices)


def dump_measurements(measurements: MeasurementEnsemble, path) -> None:
    """Write measurement vectors to the binary fixture format (same header)."""
    m = measurements
    _write_fixture(path, _MEASUREMENT_MAGIC, m.n, m.k, m.r0, m.master_seed, [m.vectors])


def load_measurements(path) -> MeasurementEnsemble:
    """Read a measurement fixture written by :func:`dump_measurements`.

    Every ``ValueError`` names ``path``.
    """
    with _fixture(path, "measurement", _MEASUREMENT_MAGIC) as (n, k, r0, seed, payload):
        return MeasurementEnsemble(
            vectors=payload.reshape(2 * r0, k), n=n, k=k, r0=r0, master_seed=seed
        )
