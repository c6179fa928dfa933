"""Test-only reference helpers: scalar kernels and template reads.

None of these has a caller in the library; they pin the behavior that
the vectorized code paths must reproduce.  tile_satd_int64 and
satd_batch_int64 are the int64 stacked-matmul Hadamard kernel the
float32 GEMM in intralab.cost replaced, kept as its oracle.
"""

from __future__ import annotations

import numpy as np

from intralab.cost import METRICS, sad, satd, satd_tiling
from intralab.grid import BlockRef, ReconBuffer
from intralab.hog import _quantize
from intralab.tmp import BlockVector, template_rects

SOBEL_HOR = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.int64)
SOBEL_VER = np.array([[-1, -2, -1], [0, 0, 0], [1, 2, 1]], dtype=np.int64)


def _hadamard(n: int) -> np.ndarray:
    h = np.array([[1]], dtype=np.int64)
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def tile_satd_int64(diffs: np.ndarray, tile: int) -> np.ndarray:
    """Hadamard cost of (N, th, tw) diffs fully tiled by tile x tile."""
    n, th, tw = diffs.shape
    hmat = _hadamard(tile)
    t = diffs.reshape(n, th // tile, tile, tw // tile, tile)
    t = t.transpose(0, 1, 3, 2, 4).reshape(-1, tile, tile)
    coeffs = (hmat @ t) @ hmat.T
    sums = np.abs(coeffs).sum(axis=(1, 2))
    if tile == 4:
        per_tile = (sums + 1) >> 1
    else:
        per_tile = (sums + 2) >> 2
    return per_tile.reshape(n, -1).sum(axis=1)


def satd_batch_int64(diffs: np.ndarray) -> np.ndarray:
    """SATD of (N, h, w) diffs by the int64 kernel, with SAD remainders."""
    diffs = np.asarray(diffs, dtype=np.int64)
    n, h, w = diffs.shape
    tile, th, tw = satd_tiling(h, w)
    if not tile:
        return np.abs(diffs).sum(axis=(1, 2))
    total = tile_satd_int64(diffs[:, :th, :tw], tile)
    if th < h:
        total = total + np.abs(diffs[:, th:, :]).sum(axis=(1, 2))
    if tw < w:
        total = total + np.abs(diffs[:, :th, tw:]).sum(axis=(1, 2))
    return total


def block_cost(a: np.ndarray, b: np.ndarray, metric: str) -> int:
    """Dispatch on the configured template-loss metric."""
    if metric == "sad":
        return sad(a, b)
    if metric == "satd":
        return satd(a, b)
    raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


def extract_template(buf: ReconBuffer, block: BlockRef, t: int) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Committed samples of the block's own template strips."""
    above_rect, left_rect = template_rects(block, t, buf.width, buf.height)
    above = buf.read_region(*above_rect) if above_rect else None
    left = buf.read_region(*left_rect) if left_rect else None
    return above, left


def template_at_bv(buf: ReconBuffer, block: BlockRef, bv: BlockVector, t: int) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Template strips at the displaced position (raises when uncommitted)."""
    out = []
    for rect in template_rects(block, t, buf.width, buf.height):
        if rect is None:
            out.append(None)
            continue
        x, y, w, h = rect
        out.append(buf.read_region(x + bv.dx, y + bv.dy, w, h))
    return out[0], out[1]


def sobel_window(window: np.ndarray) -> tuple[int, int]:
    """(g_hor, g_ver) of one 3x3 window."""
    window = np.asarray(window, dtype=np.int64)
    if window.shape != (3, 3):
        raise ValueError(f"expected a 3x3 window, got {window.shape}")
    return int((window * SOBEL_HOR).sum()), int((window * SOBEL_VER).sum())


def orientation_to_mode(g_hor: int, g_ver: int) -> int | None:
    """Angular mode perpendicular to one gradient; None for zero gradient."""
    if g_hor == 0 and g_ver == 0:
        return None
    return int(_quantize(np.array([g_hor], np.float64), np.array([g_ver], np.float64))[0])
