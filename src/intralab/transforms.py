"""Separable transform classes and energy-compaction measurement.

Each prediction mode maps to a fixed (horizontal, vertical) kernel
pair: Planar/DC use DCT-II both ways (class DC0); horizontal-set
angular modes 2..33 use DST-VII horizontally; the diagonal mode 34 uses
DST-VII both ways; vertical-set modes 35..66 use DST-VII vertically.
Kernels are orthonormal floating-point DCT-II / DST-VII matrices, so
coefficient energy equals residual energy (Parseval).  apply_transform
and energy_compaction take one (h, w) block or a stack of equally
shaped blocks with any leading shape, and return results in that
leading shape (a NumPy scalar compaction for one block).
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache

import numpy as np

TRANSFORM_SIZES = (4, 8, 16, 32)


class TransformClass(Enum):
    """(horizontal kernel, vertical kernel) per class."""

    DC0 = ("dct2", "dct2")
    H = ("dst7", "dct2")
    D = ("dst7", "dst7")
    V = ("dct2", "dst7")


def transform_class(mode: int) -> TransformClass:
    if mode in (0, 1):
        return TransformClass.DC0
    if 2 <= mode <= 33:
        return TransformClass.H
    if mode == 34:
        return TransformClass.D
    if 35 <= mode <= 66:
        return TransformClass.V
    raise ValueError(f"mode {mode} out of range 0..66")


@lru_cache(maxsize=None)
def dct2_matrix(n: int) -> np.ndarray:
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    mat = math.sqrt(2.0 / n) * np.cos(math.pi * (2 * m + 1) * k / (2 * n))
    mat[0] /= math.sqrt(2.0)
    return mat


@lru_cache(maxsize=None)
def dst7_matrix(n: int) -> np.ndarray:
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    return math.sqrt(4.0 / (2 * n + 1)) * np.sin(math.pi * (2 * m + 1) * (k + 1) / (2 * n + 1))


_KERNELS = {"dct2": dct2_matrix, "dst7": dst7_matrix}


def apply_transform(residuals: np.ndarray, klass: TransformClass) -> np.ndarray:
    """Forward separable transform of an (h, w) residual block or of each block of a (..., h, w) stack."""
    residuals = np.asarray(residuals, dtype=np.float64)
    h, w = residuals.shape[-2:]
    if h not in TRANSFORM_SIZES or w not in TRANSFORM_SIZES:
        raise ValueError(f"residual dims {h}x{w} not in {TRANSFORM_SIZES}")
    hor_name, ver_name = klass.value
    hmat = _KERNELS[hor_name](w)
    vmat = _KERNELS[ver_name](h)
    return np.matmul(np.matmul(vmat, residuals), hmat.T)


@lru_cache(maxsize=64)
def _diagonal_scan_indices(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of an (h, w) block in diagonal scan: by ascending anti-diagonal, rows first within one."""
    v, u = np.divmod(np.arange(h * w), w)
    order = np.lexsort((v, v + u))
    rows, cols = v[order], u[order]
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def energy_compaction(coeffs: np.ndarray, k: int) -> np.ndarray:
    """Fraction of total energy held by the k lowest-frequency coefficients of each (h, w) block.

    The head is a cumulative sum in scan order, i.e. summed sequentially
    from the lowest frequency.  A zero block compacts perfectly by
    convention (1.0).
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    h, w = coeffs.shape[-2:]
    if not 1 <= k <= h * w:
        raise ValueError(f"k={k} out of range 1..{h * w}")
    energy = coeffs.reshape(coeffs.shape[:-2] + (h * w,)) ** 2
    # Each row of a C-ordered array sums pairwise, as one block's own .sum() does.
    total = energy.sum(axis=-1)
    rows, cols = _diagonal_scan_indices(h, w)
    head = np.cumsum(energy[..., rows[:k] * w + cols[:k]], axis=-1)[..., -1]
    zero = total == 0.0
    return np.where(zero, 1.0, head / np.where(zero, 1.0, total))[()]
