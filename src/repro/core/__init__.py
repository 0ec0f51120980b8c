"""SMASH core: the paper's primary contribution on the software side.

The package implements the hierarchical-bitmap compression scheme of
Section 4.1 of the paper:

* :class:`~repro.core.bitmap.Bitmap` — a packed bitset with the word-level
  scan primitives (count-leading-zeros style) that software-only SMASH uses;
* :class:`~repro.core.hierarchy.BitmapHierarchy` — the multi-level bitmap
  structure with per-level configurable compression ratios;
* :class:`~repro.core.nza.NZA` — the Non-Zero Values Array holding the matrix
  values block by block;
* :class:`~repro.core.smash_matrix.SMASHMatrix` — the complete encoded matrix
  (hierarchy + NZA) with conversion to/from dense and CSR;
* :class:`~repro.core.config.SMASHConfig` — per-level compression ratios,
  including the per-matrix configurations used in the paper's figures;
* :mod:`~repro.core.indexing` — the pure-software indexing iterator
  ("Software-only SMASH", Section 4.4).
"""

from repro.core.bitmap import Bitmap
from repro.core.config import SMASHConfig, MAX_LEVELS
from repro.core.hierarchy import BitmapHierarchy
from repro.core.nza import NZA
from repro.core.smash_matrix import SMASHMatrix
from repro.core.indexing import SoftwareIndexer, iter_nonzero_blocks
from repro.core.conversion import (
    ConversionCost,
    csr_to_smash,
    smash_to_csr,
    dense_to_smash,
    estimate_conversion_cost,
)

__all__ = [
    "Bitmap",
    "SMASHConfig",
    "MAX_LEVELS",
    "BitmapHierarchy",
    "NZA",
    "SMASHMatrix",
    "SoftwareIndexer",
    "iter_nonzero_blocks",
    "ConversionCost",
    "csr_to_smash",
    "smash_to_csr",
    "dense_to_smash",
    "estimate_conversion_cost",
]
