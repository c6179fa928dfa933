"""Matching-cost kernels: SAD and Hadamard SATD.

SATD tiles the difference into Hadamard blocks: 8x8 tiles when both
dimensions are multiples of 8, otherwise 4x4 tiles over the largest
multiple-of-4 area, with any right/bottom remainder strips costed by
SAD.  Regions narrower than 4 in either dimension fall back to SAD
entirely.  Per-tile sums of absolute transform coefficients use the
conventional normalization: (s + 1) >> 1 for 4x4, (s + 2) >> 2 for 8x8.

satd_batch transforms a whole batch by float32 GEMM: each tile is
flattened to a row of 16 (or 64) samples and multiplied by H (x) H, the
Kronecker product of the Hadamard matrix with itself, GEMM_SAMPLES
samples per product so that BLAS keeps each on one thread.  That is exact
while every |difference| <= SATD_MAX_DIFF (4095, 12-bit samples): an
8x8 tile's absolute coefficient sum is then at most 64 * 64 * 4095 <
2^24, and float32 holds every integer up to 2^24, so every partial sum
of the product and of the absolute sum is an exact integer.  Larger
differences raise ValueError.  The rounding and the per-block sums run
in int64.

A template of one or more strips is costed through its layout
(strip_layout, cached per tuple of strip shapes): every sample position
of the stacked strips in costing order, the 8x8 tiles of every strip
first, then the 4x4 tiles, each tile's samples in raster order, then the
SAD remainder.  Each strip is tiled as satd_tiling tiles it alone, so
the layout cost of stacked strips is the sum of their separate costs.
strip_offsets(strips, width) places that order from a plane's origin,
for the intra template prediction and tmp's gathers alike.
layout_cost, the one template-cost kernel and the only place that picks
SATD or SAD, costs a whole batch of templates gathered in that order
with one satd_batch call per tile size and one absolute sum; mode
evaluation, the BV list and every template match cost through it, so a
BV and an intra mode are costed alike.  bound_pieces gives the pieces of
the DC lower bound the template search prunes with.

sad(diffs) and satd(diffs) take one integer difference array of shape
(..., h, w), such as a stack of source-minus-prediction residuals, and
return the cost of each (h, w) difference in the leading shape, a NumPy
scalar for one block; fewer than 2 dimensions raise ValueError.  Both
are even: negating the differences leaves every cost unchanged.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

METRICS = ("satd", "sad")
SATD_MAX_DIFF = 4095
# Samples transformed per GEMM.  A larger product gets split across BLAS
# threads, which for a 16- or 64-wide product costs more than it saves.
GEMM_SAMPLES = 32768
Rect = tuple[int, int, int, int]  # x, y, w, h


def _hadamard(n: int) -> np.ndarray:
    h = np.array([[1]], dtype=np.int64)
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


# Row-major flattened tiles times H (x) H; both matrices are symmetric.
_KRON = {n: np.kron(_hadamard(n), _hadamard(n)).astype(np.float32) for n in (4, 8)}
# A tile's absolute coefficient sum s costs (s + rounding) >> shift.
_NORM_SHIFT = {4: 1, 8: 2}


def sad(diffs: np.ndarray) -> np.ndarray:
    """Sum of absolute differences of each (h, w) difference array (int64)."""
    return np.abs(diffs).sum(axis=(-2, -1), dtype=np.int64)


def _tile_satd(diffs: np.ndarray, tile: int) -> np.ndarray:
    """Hadamard cost of (N, th, tw) diffs fully tiled by tile x tile, by GEMMs of GEMM_SAMPLES."""
    n, th, tw = diffs.shape
    rows = diffs.reshape(n, th // tile, tile, tw // tile, tile).transpose(0, 1, 3, 2, 4)
    rows = rows.astype(np.float32, order="C").reshape(-1, tile * tile)
    coeffs = np.empty_like(rows)
    step = GEMM_SAMPLES // (tile * tile)
    for start in range(0, len(rows), step):
        np.matmul(rows[start : start + step], _KRON[tile], out=coeffs[start : start + step])
    sums = np.einsum("ij->i", np.abs(coeffs, out=coeffs)).astype(np.int64)
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

    int32 and int64 batches are read as they are; any other dtype is
    converted to int64 first.

    Raises ValueError when any |difference| exceeds SATD_MAX_DIFF, the
    bound under which the float32 transform is exact.
    """
    diffs = np.asarray(diffs)
    if diffs.dtype not in (np.int32, np.int64):
        diffs = diffs.astype(np.int64)
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


class Layout(NamedTuple):
    """Costing order of a stack of strips.

    order holds, for each costed position, its index into the strips'
    samples concatenated in raster order (first strip first).  Positions
    [start, stop) of each (tile, start, stop) run are whole tile x tile
    Hadamard tiles, one after another; positions from rest on are costed
    by SAD.
    """

    order: np.ndarray
    tiles: tuple[tuple[int, int, int], ...]
    rest: int


@lru_cache(maxsize=256)
def strip_layout(shapes: tuple[tuple[int, int], ...]) -> Layout:
    """The layout of strips of (h, w) shapes, each tiled as satd_tiling(h, w) tiles it."""
    runs: dict[int, list[np.ndarray]] = {8: [], 4: []}
    rest = []
    base = 0
    for h, w in shapes:
        index = base + np.arange(h * w).reshape(h, w)
        tile, th, tw = satd_tiling(h, w)
        if tile:
            tiles = index[:th, :tw].reshape(th // tile, tile, tw // tile, tile).transpose(0, 2, 1, 3)
            runs[tile].append(tiles.ravel())
        rest += [index[th:].ravel(), index[:th, tw:].ravel()]
        base += h * w
    tiled = [(tile, np.concatenate(parts)) for tile, parts in runs.items() if parts]
    order = np.concatenate([part for _, part in tiled] + rest)
    order.setflags(write=False)  # shared by every caller
    spans, start = [], 0
    for tile, part in tiled:
        spans.append((tile, start, start + len(part)))
        start += len(part)
    return Layout(order, tuple(spans), start)


@lru_cache(maxsize=256)
def strip_offsets(strips: tuple[Rect, ...], width: int) -> tuple[Layout, np.ndarray]:
    """Layout of the strips and each of its positions' flat offset from the origin of a plane of that width."""
    flat = np.concatenate(
        [((y + np.arange(h))[:, None] * width + (x + np.arange(w))).ravel() for x, y, w, h in strips]
    )
    layout = strip_layout(tuple((h, w) for _, _, w, h in strips))
    offsets = flat[layout.order]
    offsets.setflags(write=False)  # shared by every caller
    return layout, offsets


def layout_cost(diffs: np.ndarray, layout: Layout, metric: str) -> np.ndarray:
    """Template cost of each row of an (N, positions) batch of differences in layout order (int64)."""
    check_metric(metric)
    if metric == "sad" or not len(diffs):
        return np.abs(diffs).sum(axis=1, dtype=np.int64)
    total = np.zeros(len(diffs), dtype=np.int64)
    if layout.rest < diffs.shape[1]:
        total += np.abs(diffs[:, layout.rest :]).sum(axis=1)
    for tile, start, stop in layout.tiles:
        # A column of whole tiles is one (stop - start) / tile x tile region, tiled as such.
        total += satd_batch(diffs[:, start:stop].reshape(len(diffs), -1, tile))
    return total


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


def satd(diffs: np.ndarray) -> np.ndarray:
    """Hadamard transformed-difference cost of each (h, w) difference array (int64)."""
    d = np.asarray(diffs)
    lead, (h, w) = d.shape[:-2], d.shape[-2:]
    return satd_batch(d.reshape((int(np.prod(lead)), h, w))).reshape(lead)[()]
