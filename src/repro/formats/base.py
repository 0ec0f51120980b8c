"""Common infrastructure shared by all sparse matrix formats."""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np

#: Number of bytes used to store one matrix value (double precision).
VALUE_BYTES = 8
#: Number of bytes used to store one index (32-bit integers, as in CSR
#: implementations such as TACO and MKL for matrices below 2**31 elements).
INDEX_BYTES = 4
#: Cache-line size assumed throughout the reproduction (Table 2 of the paper).
CACHE_LINE_BYTES = 64


class FormatError(ValueError):
    """Raised when a matrix format is constructed from inconsistent data."""


class MatrixFormat(abc.ABC):
    """Abstract base class for every matrix storage format.

    Subclasses must set :attr:`shape` and implement :meth:`to_dense`,
    :meth:`storage_bytes` and :attr:`nnz`.
    """

    #: Logical dimensions of the matrix as ``(rows, cols)``.
    shape: Tuple[int, int]

    @property
    def rows(self) -> int:
        """Number of rows of the logical matrix."""
        return self.shape[0]

    @property
    def cols(self) -> int:
        """Number of columns of the logical matrix."""
        return self.shape[1]

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of explicitly stored non-zero elements."""

    @abc.abstractmethod
    def to_dense(self) -> np.ndarray:
        """Return the matrix as a dense :class:`numpy.ndarray`."""

    @abc.abstractmethod
    def storage_bytes(self) -> int:
        """Total bytes occupied by the format's data structures."""

    @property
    def density(self) -> float:
        """Fraction of stored non-zeros over the total number of elements."""
        total = self.rows * self.cols
        if total == 0:
            return 0.0
        return self.nnz / total

    @property
    def sparsity_percent(self) -> float:
        """Density expressed as a percentage (the paper's "Sparsity (%)")."""
        return 100.0 * self.density

    def dense_bytes(self) -> int:
        """Bytes the matrix would need if stored densely."""
        return self.rows * self.cols * VALUE_BYTES

    def compression_ratio(self) -> float:
        """Dense size divided by compressed size (Figure 19's metric)."""
        stored = self.storage_bytes()
        if stored == 0:
            return float("inf")
        return self.dense_bytes() / stored

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{type(self).__name__}(shape={self.shape}, nnz={self.nnz}, "
            f"sparsity={self.sparsity_percent:.3f}%)"
        )


def check_shape(shape: Tuple[int, int]) -> Tuple[int, int]:
    """Validate and normalize a ``(rows, cols)`` shape tuple."""
    if len(shape) != 2:
        raise FormatError(f"shape must be 2-dimensional, got {shape!r}")
    rows, cols = int(shape[0]), int(shape[1])
    if rows < 0 or cols < 0:
        raise FormatError(f"shape must be non-negative, got {shape!r}")
    return rows, cols


def as_value_array(values, length: int | None = None) -> np.ndarray:
    """Coerce ``values`` to a contiguous float64 array, validating length."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise FormatError("value arrays must be one-dimensional")
    if length is not None and arr.size != length:
        raise FormatError(f"expected {length} values, got {arr.size}")
    return arr


def as_index_array(indices, length: int | None = None) -> np.ndarray:
    """Coerce ``indices`` to a contiguous int64 array, validating length."""
    arr = np.ascontiguousarray(indices, dtype=np.int64)
    if arr.ndim != 1:
        raise FormatError("index arrays must be one-dimensional")
    if length is not None and arr.size != length:
        raise FormatError(f"expected {length} indices, got {arr.size}")
    return arr


def first_unsorted_segment(ptr: np.ndarray, indices: np.ndarray) -> int:
    """First segment whose indices do not strictly increase, or ``-1``.

    Segment ``i`` is ``indices[ptr[i]:ptr[i + 1]]`` (a CSR row or a CSC
    column); ``ptr`` must already start at 0, end at ``indices.size`` and
    never decrease. One pass over ``indices``: every adjacent pair whose
    right element starts a segment is masked out, and the first remaining
    non-increasing pair is mapped back to its segment.
    """
    nnz = indices.size
    starts = np.zeros(nnz + 1, dtype=bool)
    starts[ptr[1:-1]] = True
    bad = np.flatnonzero((np.diff(indices) <= 0) & ~starts[1:nnz])
    if not bad.size:
        return -1
    return int(np.searchsorted(ptr, bad[0], side="right")) - 1
