"""Parity of the vectorized CSR/CSC sortedness check with the per-row loop.

``CSRMatrix`` and ``CSCMatrix`` check in one pass over their index array
that indices strictly increase inside every row (column). The per-segment
Python loop they used before is kept here as the oracle: on every input
the constructors must accept and reject exactly what the loop did, naming
the same first offending row or column in the same message.
"""

import numpy as np
import pytest

from repro.formats.base import FormatError
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix

#: format -> (class, shape from (segments, index span), rejection message).
FORMATS = {
    "csr": (
        CSRMatrix,
        lambda segments, span: (segments, span),
        "column indices in row {} must be strictly increasing",
    ),
    "csc": (
        CSCMatrix,
        lambda segments, span: (span, segments),
        "row indices in column {} must be strictly increasing",
    ),
}


def loop_first_bad_segment(ptr, indices):
    """The former per-segment check: first non-increasing segment, or None."""
    for i in range(len(ptr) - 1):
        if np.any(np.diff(indices[ptr[i]:ptr[i + 1]]) <= 0):
            return i
    return None


def assert_parity(fmt, ptr, indices, span):
    cls, shape, message = FORMATS[fmt]
    ptr = np.asarray(ptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    args = (shape(ptr.size - 1, span), ptr, indices, np.ones(indices.size))
    expected = loop_first_bad_segment(ptr, indices)
    if expected is None:
        cls(*args)
    else:
        with pytest.raises(FormatError) as err:
            cls(*args)
        assert str(err.value) == message.format(expected)
    return expected


def random_segments(rng, n_segments, span):
    """A valid (ptr, indices) pair: sorted unique indices per segment."""
    lengths = rng.integers(0, span + 1, size=n_segments)
    lengths[rng.random(n_segments) < 0.3] = 0
    parts = [np.sort(rng.choice(span, size=n, replace=False)) for n in lengths]
    ptr = np.concatenate([[0], np.cumsum(lengths)])
    indices = np.concatenate(parts) if parts else np.zeros(0, np.int64)
    return ptr, indices


@pytest.mark.parametrize("fmt", sorted(FORMATS))
class TestSortednessParity:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_valid_and_corrupted(self, fmt, seed):
        rng = np.random.default_rng(seed)
        span = int(rng.integers(1, 12))
        ptr, indices = random_segments(rng, int(rng.integers(1, 16)), span)
        assert assert_parity(fmt, ptr, indices, span) is None
        if indices.size:
            # Overwrite a few in-range indices: sometimes still valid,
            # usually not; the oracle decides which.
            for _ in range(3):
                corrupted = indices.copy()
                spots = rng.integers(0, indices.size, size=int(rng.integers(1, 3)))
                corrupted[spots] = rng.integers(0, span, size=spots.size)
                assert_parity(fmt, ptr, corrupted, span)

    @pytest.mark.parametrize(
        "ptr, indices, expected",
        [
            # A duplicate index inside a row.
            ([0, 2, 5, 7], [1, 4, 2, 2, 6, 0, 3], 1),
            # A descending pair inside a row.
            ([0, 2, 5, 7], [1, 4, 2, 6, 5, 0, 3], 1),
            # Descending across a row boundary is fine.
            ([0, 3, 5], [5, 6, 7, 0, 1], None),
            # Several bad rows: the first one is named.
            ([0, 2, 4, 6], [1, 1, 3, 2, 0, 5], 0),
            # Empty first row.
            ([0, 0, 2, 4], [1, 3, 0, 2], None),
            ([0, 0, 2, 4], [3, 1, 0, 2], 1),
            # Empty middle row; the pair across it descends and is fine.
            ([0, 2, 2, 4], [0, 5, 1, 4], None),
            ([0, 2, 2, 4], [0, 5, 4, 1], 2),
            # Empty last rows (ptr repeats nnz).
            ([0, 2, 4, 4, 4], [0, 5, 2, 6], None),
            ([0, 2, 4, 4, 4], [0, 5, 6, 2], 1),
            # The last pair of the last non-empty row.
            ([0, 1, 4], [7, 0, 3, 3], 1),
            # nnz of 0 and 1.
            ([0, 0, 0], [], None),
            ([0], [], None),
            ([0, 0, 1], [3], None),
            ([0, 1, 1], [3], None),
        ],
    )
    def test_targeted(self, fmt, ptr, indices, expected):
        assert assert_parity(fmt, ptr, indices, span=8) == expected
