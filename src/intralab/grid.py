"""Fixed-size block partitioning and the causal reconstruction buffer.

The encode loop walks blocks in raster order and commits one block of
reconstruction at a time, and commit_block accepts only the block at
the raster position.  So the committed area is a staircase: each row
holds a committed prefix, ReconBuffer.extent[y] samples long, never
longer than the row above's.  A rectangle is committed iff it lies in
the frame and its bottom row's prefix reaches its right edge, the one
rule of ReconBuffer.is_committed.  Its one inequality takes ints or
arrays: a rectangle of ints is tested on Python ints alone, with no
numpy call, which is how the per-block checks (a BV candidate, a
displaced template strip, a read) stay cheap, and arrays test a whole
search window at once.  Mode derivation reads committed
samples only, each noted for the read hook: through read_region, which
refuses any other, a checked gather (tmp.gather_templates), strips the
search window shows committed, or build_reference_samples, which pads
its uncommitted border.  The template search alone also reads its whole
window, committed or not and unnoted, into two derived planes: the
integral image of its cost bounds and the Hadamard coefficient planes
(cost.hadamard_planes) of its SATD.  From either it takes only sums and
tiles that lie in strips the window shows committed, and it notes each
strip it costs.  A violation of this causality is a bug in the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CausalityError, CommitOrderError, ValidationError

BLOCK_SIZES = (4, 8, 16, 32, 64)

# Optional read observer: receives (x, y, w, h) for every rectangle of
# committed samples handed out.  Tests install one to audit causality.
ReadHook = Callable[[int, int, int, int], None]


@dataclass(frozen=True)
class BlockRef:
    """One block of the partition grid, in raster-scan order."""

    x0: int
    y0: int
    w: int
    h: int
    scan_index: int


def partition(frame_w: int, frame_h: int, block_size: int) -> list[BlockRef]:
    """Tile the frame into block_size squares, clipping at the edges."""
    if block_size not in BLOCK_SIZES:
        raise ValidationError(f"block_size must be one of {BLOCK_SIZES}, got {block_size}")
    if frame_w <= 0 or frame_h <= 0:
        raise ValidationError(f"frame dimensions must be positive, got {frame_w}x{frame_h}")
    blocks = []
    idx = 0
    for y0 in range(0, frame_h, block_size):
        for x0 in range(0, frame_w, block_size):
            blocks.append(
                BlockRef(
                    x0=x0,
                    y0=y0,
                    w=min(block_size, frame_w - x0),
                    h=min(block_size, frame_h - y0),
                    scan_index=idx,
                )
            )
            idx += 1
    return blocks


class ReconBuffer:
    """Per-pixel reconstruction plane plus the committed extent of each row.

    samples, a (height, width) int32 array, holds committed
    reconstruction values; extent[y] is the length of row y's committed
    prefix (see the module docstring).  width and height read samples'
    shape.
    """

    def __init__(self, width: int, height: int, bit_depth: int):
        self.bit_depth = bit_depth
        self.samples = np.zeros((height, width), dtype=np.int32)
        self.extent = np.zeros(height, dtype=np.int64)
        self.n_committed = 0
        self.read_hook: ReadHook | None = None

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    @property
    def height(self) -> int:
        return self.samples.shape[0]

    def in_frame(self, x: int, y: int, w: int, h: int) -> bool:
        height, width = self.samples.shape
        return x >= 0 and y >= 0 and x + w <= width and y + h <= height

    def is_committed(self, x, y, w, h):
        """Whether each non-empty rectangle (x, y, w, h) lies in the frame and is committed.

        The arguments are ints or integer arrays that broadcast together.
        x | y is negative iff x or y is, and no extent exceeds the width,
        so the last test also keeps the rectangle inside on the right.  A
        bottom row outside the frame indexes extent modulo the height, and
        the test on it rejects it.  The one inequality serves both: on ints
        it reads the bottom row's prefix with extent.item and returns a
        Python bool without a numpy call, on arrays it gathers the
        prefixes.
        """
        height = self.samples.shape[0]
        bottom = y + h - 1
        row = bottom % height
        prefix = self.extent[row] if isinstance(row, np.ndarray) else self.extent.item(row)
        return ((x | y) >= 0) & (bottom < height) & (x + w <= prefix)

    def region_available(self, x: int, y: int, w: int, h: int) -> bool:
        """True iff the whole rectangle is inside the frame and committed."""
        return w <= 0 or h <= 0 or self.is_committed(x, y, w, h)

    def note_read(self, x: int, y: int, w: int, h: int) -> None:
        if self.read_hook is not None and w > 0 and h > 0:
            self.read_hook(x, y, w, h)

    def read_region(self, x: int, y: int, w: int, h: int) -> np.ndarray:
        """Return committed samples; any uncommitted pixel is an error."""
        if w < 0 or h < 0:
            raise ValueError(f"negative region {w}x{h}")
        if w == 0 or h == 0:
            return np.zeros((h, w), dtype=np.int32)
        if not self.in_frame(x, y, w, h):
            raise CausalityError(
                f"read ({x},{y}) {w}x{h} reaches outside the {self.width}x{self.height} frame"
            )
        if not self.is_committed(x, y, w, h):
            raise CausalityError(f"read ({x},{y}) {w}x{h} touches uncommitted samples")
        self.note_read(x, y, w, h)
        return self.samples[y : y + h, x : x + w].copy()

    def commit_block(self, block: BlockRef, recon: np.ndarray) -> None:
        """Commit the next block in scan order at its raster position; any other block is an error.

        The raster position is where every row of the block ends its
        committed prefix at x0, under a full row (or the frame's top).
        """
        if block.scan_index != self.n_committed:
            raise CommitOrderError(
                f"block {block.scan_index} committed out of order "
                f"(expected {self.n_committed})"
            )
        if recon.shape != (block.h, block.w):
            raise ValueError(f"recon shape {recon.shape} != block {block.h}x{block.w}")
        x0, y0, w, h = block.x0, block.y0, block.w, block.h
        # extent never grows down the frame, so its first and last rows bound the block's.
        in_place = self.in_frame(x0, y0, w, h) and self.extent.item(y0) == x0 == self.extent.item(y0 + h - 1)
        if not (in_place and (y0 == 0 or self.extent.item(y0 - 1) == self.width)):
            raise CommitOrderError(f"block {block.scan_index} at ({x0},{y0}) is not at the raster position")
        self.samples[y0 : y0 + h, x0 : x0 + w] = recon
        self.extent[y0 : y0 + h] = x0 + w
        self.n_committed += 1


def reconstruct_block(
    original: np.ndarray,
    prediction: np.ndarray,
    closed_loop: bool,
    quant_step: int,
    bit_depth: int,
) -> np.ndarray:
    """Produce the reconstruction the buffer will commit for one block.

    Open loop commits the original samples.  Closed loop commits
    prediction plus the residual quantized to multiples of quant_step
    (round half up), clipped to the sample range.  Every |residual| is
    below 2^bit_depth, so larger steps are clamped to 2^(bit_depth + 1):
    both put every residual at level 0.
    """
    if not closed_loop:
        return original.astype(np.int32)
    if quant_step < 1:
        raise ValidationError(f"quant_step must be >= 1, got {quant_step}")
    quant_step = min(quant_step, 1 << (bit_depth + 1))
    # float64 holds every value below exactly: residuals and levels times
    # the step stay far below 2^53, so this is the integer arithmetic.
    levels = np.floor(np.subtract(original, prediction, dtype=np.float64) / quant_step + 0.5)
    recon = levels * quant_step + prediction
    # In-place maximum and minimum: np.clip's Python wrapper costs more than both.
    return np.minimum(np.maximum(recon, 0, out=recon), (1 << bit_depth) - 1, out=recon).astype(np.int32)
