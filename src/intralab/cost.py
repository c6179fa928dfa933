"""Matching-cost kernels: SAD and Hadamard SATD.

SATD tiles the difference into Hadamard blocks: 8x8 tiles when both
dimensions are multiples of 8, otherwise 4x4 tiles over the largest
multiple-of-4 area, with any right/bottom remainder strips costed by
SAD.  Regions narrower than 4 in either dimension fall back to SAD
entirely.  Per-tile sums of absolute transform coefficients use the
conventional normalization: (s + 1) >> 1 for 4x4, (s + 2) >> 2 for 8x8.

satd_batch transforms a whole batch with one float32 GEMM: each tile is
flattened to a row of 16 (or 64) samples and multiplied by H (x) H, the
Kronecker product of the Hadamard matrix with itself.  That is exact
while every |difference| <= SATD_MAX_DIFF (4095, 12-bit samples): an
8x8 tile's absolute coefficient sum is then at most 64 * 64 * 4095 <
2^24, and float32 holds every integer up to 2^24, so every partial sum
of the product and of the absolute sum is an exact integer.  Larger
differences raise ValueError.  The rounding and the per-block sums run
in int64.

batch_cost is the one template-cost kernel: mode evaluation and every
template match cost their difference batches through it, so a BV and an
intra mode are costed alike.  bound_pieces gives the pieces of its DC
lower bound, which the template search prunes with.

All pair kernels accept integer sample arrays of identical shape and
return Python ints.  satd(a, b) == satd(b, a) and adding a constant to
both inputs leaves every cost unchanged.
"""

from __future__ import annotations

import numpy as np

METRICS = ("satd", "sad")
SATD_MAX_DIFF = 4095


def _hadamard(n: int) -> np.ndarray:
    h = np.array([[1]], dtype=np.int64)
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


# Row-major flattened tiles times H (x) H; both matrices are symmetric.
_KRON = {n: np.kron(_hadamard(n), _hadamard(n)).astype(np.float32) for n in (4, 8)}
# A tile's absolute coefficient sum s costs (s + rounding) >> shift.
_NORM_SHIFT = {4: 1, 8: 2}


def _check_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.ndim != 2:
        raise ValueError(f"expected 2-D sample arrays, got {a.ndim}-D")
    return a, b


def sad(a: np.ndarray, b: np.ndarray) -> int:
    """Sum of absolute differences."""
    a, b = _check_pair(a, b)
    if a.size == 0:
        return 0
    return int(np.abs(a.astype(np.int64) - b.astype(np.int64)).sum())


def _tile_satd(diffs: np.ndarray, tile: int) -> np.ndarray:
    """Hadamard cost of (N, th, tw) diffs fully tiled by tile x tile, by one GEMM."""
    n, th, tw = diffs.shape
    rows = diffs.reshape(n, th // tile, tile, tw // tile, tile).transpose(0, 1, 3, 2, 4)
    rows = rows.astype(np.float32, order="C").reshape(-1, tile * tile)
    coeffs = rows @ _KRON[tile]
    sums = np.abs(coeffs, out=coeffs).sum(axis=1).astype(np.int64)
    shift = _NORM_SHIFT[tile]
    per_tile = (sums + (1 << (shift - 1))) >> shift
    return per_tile.reshape(n, -1).sum(axis=1)


def satd_tiling(h: int, w: int) -> tuple[int, int, int]:
    """(tile, tiled height, tiled width) of an h x w SATD region; tile 0 means plain SAD."""
    if h < 4 or w < 4:
        return 0, 0, 0
    tile = 8 if (h % 8 == 0 and w % 8 == 0) else 4
    return tile, (h // tile) * tile, (w // tile) * tile


def satd_batch(diffs: np.ndarray) -> np.ndarray:
    """SATD of a batch of (N, h, w) difference arrays (int64 result).

    Raises ValueError when any |difference| exceeds SATD_MAX_DIFF, the
    bound under which the float32 transform is exact.
    """
    diffs = np.asarray(diffs, dtype=np.int64)
    n, h, w = diffs.shape
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if diffs.size and (diffs.max() > SATD_MAX_DIFF or diffs.min() < -SATD_MAX_DIFF):
        raise ValueError(f"SATD differences must lie within +-{SATD_MAX_DIFF}")
    tile, th, tw = satd_tiling(h, w)
    if not tile:
        return np.abs(diffs).sum(axis=(1, 2))
    total = _tile_satd(diffs[:, :th, :tw], tile)
    if th < h:
        total = total + np.abs(diffs[:, th:, :]).sum(axis=(1, 2))
    if tw < w:
        total = total + np.abs(diffs[:, :th, tw:]).sum(axis=(1, 2))
    return total


def check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


def batch_cost(diffs: np.ndarray, metric: str) -> np.ndarray:
    """Template cost of each (h, w) difference array of an (N, h, w) batch (int64)."""
    check_metric(metric)
    if metric == "sad":
        return np.abs(diffs).sum(axis=(1, 2), dtype=np.int64)
    return satd_batch(diffs)


def bound_pieces(h: int, w: int, metric: str) -> list[tuple[int, int, int, int, int]]:
    """Pieces (x, y, w, h, shift) of an h x w region for the cost lower bound.

    The region's cost is at least the sum over pieces of
    (|sum of differences| + rounding) >> shift: the Hadamard DC
    coefficient of a SATD tile is the tile's difference sum, and SAD
    over any region is at least the absolute value of that sum.
    """
    check_metric(metric)
    tile, th, tw = satd_tiling(h, w) if metric == "satd" else (0, 0, 0)
    if not tile:
        return [(x, y, min(4, w - x), min(4, h - y), 0) for y in range(0, h, 4) for x in range(0, w, 4)]
    pieces = [(x, y, tile, tile, _NORM_SHIFT[tile]) for y in range(0, th, tile) for x in range(0, tw, tile)]
    if th < h:
        pieces.append((0, th, w, h - th, 0))
    if tw < w:
        pieces.append((tw, 0, w - tw, th, 0))
    return pieces


def satd(a: np.ndarray, b: np.ndarray) -> int:
    """Hadamard transformed-difference cost of one array pair."""
    a, b = _check_pair(a, b)
    if a.size == 0:
        return 0
    d = a.astype(np.int64) - b.astype(np.int64)
    return int(satd_batch(d[None])[0])
