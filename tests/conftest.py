"""Shared fixtures, buffer-building helpers and a PGM writer for input files."""

from __future__ import annotations

import numpy as np
import pytest

from intralab.frames import Frame
from intralab.grid import BlockRef, ReconBuffer, partition


def committed_buffer(samples: np.ndarray, bit_depth: int = 8) -> ReconBuffer:
    """A buffer with the whole plane committed as one block."""
    samples = np.asarray(samples)
    h, w = samples.shape
    buf = ReconBuffer(w, h, bit_depth)
    buf.commit_block(BlockRef(0, 0, w, h, 0), samples.astype(np.int32))
    return buf


def prefix_buffer(
    samples: np.ndarray, block_size: int, n_blocks: int, bit_depth: int = 8
) -> tuple[ReconBuffer, list[BlockRef]]:
    """A buffer with the first n_blocks of the partition committed.

    Returns the buffer and the full block list, so blocks[n_blocks] is
    the next one an encoder would work on.
    """
    samples = np.asarray(samples)
    h, w = samples.shape
    buf = ReconBuffer(w, h, bit_depth)
    blocks = partition(w, h, block_size)
    for block in blocks[:n_blocks]:
        region = samples[block.y0 : block.y0 + block.h, block.x0 : block.x0 + block.w]
        buf.commit_block(block, region.astype(np.int32))
    return buf, blocks


def write_pgm(frame: Frame, path: str) -> None:
    """Write a frame as binary PGM; load_frame round-trips it exactly."""
    maxval = (1 << frame.bit_depth) - 1
    header = f"P5\n{frame.width} {frame.height}\n{maxval}\n".encode("ascii")
    if maxval < 256:
        body = frame.samples.astype(np.uint8).tobytes()
    else:
        body = frame.samples.astype(">u2").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)
