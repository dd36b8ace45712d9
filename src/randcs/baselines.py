"""Reference solvers the benchmark compares against.

Orthogonal matching pursuit for conventional compressed sensing, and
binary iterative hard thresholding (plain and normalized) for the 1-bit
setting where only the signs of the measurements are available.  All three
consume a single sensing matrix and a single measurement vector.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .numerics import DimensionMismatchError, _finite, _integer
from .recovery import RecoveredSignal
from .sensing import _signal_product

_PIVOT_RTOL = 1e-12

# column-norm block width: bounds the squared-entry temporary to about k * 256 doubles
_NORM_BLOCK_COLS = 256

# the support product copies A[:, S] and reads it twice; past an eighth of
# the columns the dense product costs little more, and the copy stays far
# below A's size
_SUPPORT_PRODUCT_MAX_SHARE = 0.125
_UNIT_ROUNDOFF = 2.0**-53
_TINY = np.finfo(np.float64).tiny


class RankDeficiencyError(RuntimeError):
    """The selected-column least-squares system is numerically singular."""


def hard_threshold(x: np.ndarray, s: int) -> np.ndarray:
    """Keep the s largest-magnitude entries of x, zeroing the rest.

    Ties in magnitude are broken toward the lowest index.  Runs in
    expected linear time via selection of the s-th largest magnitude.
    """
    n, s = x.shape[0], _integer(s, "s")
    if s <= 0:
        return np.zeros_like(x)
    if s >= n:
        return x.copy()
    mags = np.abs(x)
    cut = np.partition(mags, n - s)[n - s]
    keep = mags > cut
    deficit = s - int(np.count_nonzero(keep))
    if deficit > 0:
        keep[np.flatnonzero(mags == cut)[:deficit]] = True
    out = np.zeros_like(x)
    out[keep] = x[keep]
    return out


def sign_quantize(A: np.ndarray, z: np.ndarray) -> np.ndarray:
    """One-bit measurements: +1 where a coordinate of A z is positive, else -1.

    A z is summed over the columns of supp(z) in ascending order, as
    :func:`~randcs.sensing.measure` sums it, so the signs are those of the
    noiseless round-0 measurement.  A non-finite A or z raises ``ValueError``,
    since an inf or NaN off the support would otherwise go unseen.
    """
    z = np.asarray(z, dtype=np.float64)
    if A.ndim != 2 or z.shape != (A.shape[1],):
        raise DimensionMismatchError(
            f"cannot multiply {A.shape} matrix by vector of dim {z.shape}"
        )
    _finite(z, "signal")
    _finite(A, "sensing matrix")
    return _sign_pm1(_signal_product(A, z))


def _sign_pm1(y: np.ndarray) -> np.ndarray:
    # zero maps to -1, matching the measurement quantizer
    return np.where(y > 0, 1.0, -1.0)


@dataclass(frozen=True, eq=False)
class OmpState:
    """Greedy state after one selection: residual, chosen columns, fitted coefficients."""

    residual: np.ndarray
    selected: tuple[int, ...]
    coefficients: np.ndarray


def _column_norms(A: np.ndarray) -> np.ndarray:
    # np.linalg.norm(A, axis=0) bit for bit, without an A-sized temporary:
    # the same squares, reduced per column in the same order.  The column
    # blocks are split evenly so that none is a single column, which numpy
    # would reduce pairwise instead of row by row for a row-major A.
    n = A.shape[1]
    blocks = -(-n // _NORM_BLOCK_COLS)
    out = np.empty(n)
    for b in range(blocks):
        cols = slice(b * n // blocks, (b + 1) * n // blocks)
        np.sqrt(np.add.reduce(A[:, cols] * A[:, cols], axis=0), out=out[cols])
    return out


def omp_steps(A: np.ndarray, b: np.ndarray, s_budget: int) -> Iterator[OmpState]:
    """Iterate orthogonal matching pursuit, yielding the state after each selection.

    Each step picks the unselected column with the largest normalized
    correlation |<A_j, residual>| / ||A_j|| (ties to the lowest index),
    extends an incrementally updated QR factorization of the selected
    columns, and re-fits the least-squares coefficients.  Stops after
    ``s_budget`` selections or once the residual is exactly zero.

    Raises :class:`RankDeficiencyError` when a new column is numerically
    dependent on the selected ones (pivot below 1e-12 of the first pivot),
    and ``ValueError`` for a non-finite A or b or an ``s_budget`` that is not
    an integer in [0, min(k, n)].
    """
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise DimensionMismatchError(
            f"cannot run matching pursuit with {A.shape} matrix and dim-{b.shape} vector"
        )
    _finite(b, "measurement vector")
    k, n = A.shape
    s_budget = _integer(s_budget, "s_budget", 0, min(k, n))

    col_norms = _column_norms(A)
    if not np.isfinite(col_norms).all():
        raise ValueError("sensing matrix must be finite, with column norms below overflow")
    safe_norms = np.where(col_norms > 0, col_norms, np.inf)
    residual = b.astype(np.float64, copy=True)
    Q = np.empty((k, s_budget))
    R = np.zeros((s_budget, s_budget))
    qtb = np.empty(s_budget)
    selected: list[int] = []
    first_pivot = None

    for t in range(s_budget):
        if np.linalg.norm(residual) == 0.0:
            return
        scores = np.abs(A.T @ residual) / safe_norms
        if selected:
            scores[selected] = -np.inf
        j = int(np.argmax(scores))
        col = A[:, j]
        # orthogonalize against Q, twice for numerical safety
        proj = Q[:, :t].T @ col
        w = col - Q[:, :t] @ proj
        proj2 = Q[:, :t].T @ w
        w -= Q[:, :t] @ proj2
        pivot = np.linalg.norm(w)
        if first_pivot is None:
            first_pivot = pivot
        if pivot <= _PIVOT_RTOL * first_pivot:
            raise RankDeficiencyError(
                f"column {j} is numerically dependent on the {t} selected columns"
            )
        Q[:, t] = w / pivot
        R[: t, t] = proj + proj2
        R[t, t] = pivot
        qtb[t] = Q[:, t] @ residual
        residual = residual - Q[:, t] * qtb[t]
        selected.append(j)
        coeffs = np.linalg.solve(R[: t + 1, : t + 1], qtb[: t + 1])
        yield OmpState(
            residual=residual.copy(), selected=tuple(selected), coefficients=coeffs
        )


def omp(A: np.ndarray, b: np.ndarray, s_budget: int) -> RecoveredSignal:
    """Orthogonal matching pursuit; see :func:`omp_steps` for the loop itself."""
    state = None
    for state in omp_steps(A, b, s_budget):
        pass
    values = np.zeros(A.shape[1])
    support: frozenset[int] = frozenset()
    if state is not None:
        values[list(state.selected)] = state.coefficients
        support = frozenset(state.selected)
    return RecoveredSignal(values=values, support=support)


def _sign_of_product(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    # _sign_pm1(A @ x) for a finite A, from the columns of x's support when
    # their sum certifies every sign.  Any evaluation of a dot product with
    # nonzero terms T_j has error at most gamma_n * sum |T_j| (Higham,
    # Accuracy and Stability of Numerical Algorithms, 3.1), so where
    # |y_i| > 2 * gamma_n * (|A[:, S]| @ |x[S]|)_i the support sum, the exact
    # product and the dense BLAS product, in whatever order and on however
    # many threads it sums, all share one sign.  The factor 3 also covers the
    # rounding of the bound itself, and n * tiny the underflow of all three.
    # A row that is not certified (NaN included) falls back to the dense product.
    support = np.flatnonzero(x)
    if support.size == 0:
        return np.full(A.shape[0], -1.0)
    n = x.shape[0]
    if support.size <= _SUPPORT_PRODUCT_MAX_SHARE * n:
        cols = A[:, support]
        xs = x[support]
        y = cols @ xs
        gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
        bound = 3.0 * gamma * (np.abs(cols, out=cols) @ np.abs(xs)) + n * _TINY
        if (np.abs(y) > bound).all():
            return _sign_pm1(y)
    return _sign_pm1(A @ x)


def iht_steps(
    A: np.ndarray,
    signs: np.ndarray,
    s_budget: int,
    max_iters: int = 100,
    step: float = 1.0,
    normalize: bool = False,
) -> Iterator[np.ndarray]:
    """Binary iterative hard thresholding from a zero start, yielding each iterate.

    Update: x <- hard_threshold_s(x + (step / k) * A^T (signs - sign(A x))),
    where sign uses the same zero-to-minus-one convention as the quantizer.
    With ``normalize=True`` the iterate is rescaled to unit norm after each
    thresholding (skipped while the iterate is zero).

    Only the signs of A x enter the update, and x has at most ``s_budget``
    nonzeros, so A x is summed over the support's columns alone, with a
    floating-point error bound per row.  When every row's magnitude exceeds
    its bound, those signs equal the signs of the exact and of the dense
    product; otherwise (or when the support covers more than an eighth of
    the columns) the dense A x is used, so every iterate is the one the
    dense update gives.  The update is a fixed function of x: once an
    iterate equals the previous one bit for bit, the same array is yielded
    for the remaining iterations without further products.

    ``step`` must be finite and positive, ``s_budget`` an integer in [0, n],
    ``max_iters`` an integer of at least 1, A finite with at least one row
    and ``signs`` finite; anything else raises ``ValueError``.
    """
    max_iters = _integer(max_iters, "max_iters", 1)
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"step size must be finite and positive, got {step}")
    if A.ndim != 2 or signs.ndim != 1 or A.shape[0] != signs.shape[0]:
        raise DimensionMismatchError(
            f"cannot iterate with {A.shape} matrix and dim-{signs.shape} sign vector"
        )
    k, n = _integer(A.shape[0], "k", 1), A.shape[1]
    s_budget = _integer(s_budget, "s_budget", 0, n)
    _finite(signs, "sign vector")
    _finite(A, "sensing matrix")
    x = np.zeros(n)
    fixed = False
    for _ in range(max_iters):
        if not fixed:
            mismatch = signs - _sign_of_product(A, x)
            prev = x
            x = hard_threshold(x + (step / k) * (A.T @ mismatch), s_budget)
            if normalize:
                norm = np.linalg.norm(x)
                if norm > 0:
                    x = x / norm
            fixed = np.array_equal(x.view(np.uint64), prev.view(np.uint64))
        yield x


def _run_iht(A, signs, s_budget, max_iters, step, normalize) -> RecoveredSignal:
    for x in iht_steps(A, signs, s_budget, max_iters, step, normalize):
        pass
    return RecoveredSignal(values=x, support=frozenset(int(i) for i in np.flatnonzero(x)))


def biht(
    A: np.ndarray, signs: np.ndarray, s_budget: int, max_iters: int = 100, step: float = 1.0
) -> RecoveredSignal:
    """Binary iterative hard thresholding for 1-bit measurements."""
    return _run_iht(A, signs, s_budget, max_iters, step, False)


def nbiht(
    A: np.ndarray, signs: np.ndarray, s_budget: int, max_iters: int = 100, step: float = 1.0
) -> RecoveredSignal:
    """Normalized variant: each intermediate iterate is rescaled to unit norm."""
    return _run_iht(A, signs, s_budget, max_iters, step, True)
