import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intralab.errors import CausalityError, CommitOrderError, ValidationError
from intralab.grid import BLOCK_SIZES, BlockRef, ReconBuffer, partition, reconstruct_block

from conftest import committed_buffer, prefix_buffer
from oracles import committed_mask, mask_covers


def test_partition_exact_tiling():
    blocks = partition(64, 64, 16)
    assert len(blocks) == 16
    assert all(b.w == 16 and b.h == 16 for b in blocks)
    assert [b.scan_index for b in blocks] == list(range(16))
    assert (blocks[0].x0, blocks[0].y0) == (0, 0)
    assert (blocks[1].x0, blocks[1].y0) == (16, 0)  # raster order: x first
    assert (blocks[4].x0, blocks[4].y0) == (0, 16)


def test_partition_edge_clipping():
    blocks = partition(70, 50, 16)
    assert len(blocks) == 5 * 4
    right = [b for b in blocks if b.x0 == 64]
    bottom = [b for b in blocks if b.y0 == 48]
    assert all(b.w == 6 for b in right)
    assert all(b.h == 2 for b in bottom)
    corner = [b for b in blocks if b.x0 == 64 and b.y0 == 48]
    assert corner[0].w == 6 and corner[0].h == 2


def test_partition_rejects_bad_size():
    with pytest.raises(ValidationError):
        partition(64, 64, 7)
    with pytest.raises(ValidationError):
        partition(0, 64, 16)


@settings(max_examples=60, deadline=None)
@given(
    w=st.integers(1, 200),
    h=st.integers(1, 200),
    size=st.sampled_from(BLOCK_SIZES),
)
def test_partition_tiles_frame_exactly(w, h, size):
    blocks = partition(w, h, size)
    cover = np.zeros((h, w), dtype=np.int32)
    for b in blocks:
        assert 0 < b.w <= size and 0 < b.h <= size
        cover[b.y0 : b.y0 + b.h, b.x0 : b.x0 + b.w] += 1
    assert (cover == 1).all()
    assert [b.scan_index for b in blocks] == list(range(len(blocks)))
    # raster order: y never decreases, x increases within a row
    for prev, cur in zip(blocks, blocks[1:]):
        assert cur.y0 > prev.y0 or (cur.y0 == prev.y0 and cur.x0 > prev.x0)


def test_read_before_commit_raises():
    buf = ReconBuffer(16, 16, 8)
    with pytest.raises(CausalityError):
        buf.read_region(0, 0, 4, 4)


def test_read_after_commit_returns_copy(rng):
    samples = rng.integers(0, 256, size=(8, 8))
    buf = committed_buffer(samples)
    got = buf.read_region(2, 3, 4, 2)
    np.testing.assert_array_equal(got, samples[3:5, 2:6])
    got[:] = 0
    np.testing.assert_array_equal(buf.read_region(2, 3, 4, 2), samples[3:5, 2:6])


def test_read_out_of_frame_raises(rng):
    buf = committed_buffer(rng.integers(0, 256, size=(8, 8)))
    with pytest.raises(CausalityError):
        buf.read_region(-1, 0, 4, 4)
    with pytest.raises(CausalityError):
        buf.read_region(6, 0, 4, 4)


def test_read_partially_uncommitted_raises(rng):
    buf = ReconBuffer(8, 8, 8)
    buf.commit_block(BlockRef(0, 0, 8, 4, 0), np.ones((4, 8), dtype=np.int32))
    with pytest.raises(CausalityError):
        buf.read_region(0, 2, 4, 4)


def test_zero_area_read_ok():
    buf = ReconBuffer(8, 8, 8)
    assert buf.read_region(3, 3, 0, 4).shape == (4, 0)
    assert buf.region_available(3, 3, 0, 4)
    with pytest.raises(ValueError):
        buf.read_region(0, 0, -1, 4)


def test_region_available_semantics(rng):
    buf = ReconBuffer(8, 8, 8)
    buf.commit_block(BlockRef(0, 0, 8, 4, 0), np.zeros((4, 8), dtype=np.int32))
    assert buf.region_available(0, 0, 8, 4)
    assert not buf.region_available(0, 0, 8, 5)
    assert not buf.region_available(-1, 0, 2, 2)


def test_commit_out_of_order_raises():
    buf = ReconBuffer(16, 16, 8)
    with pytest.raises(CommitOrderError):
        buf.commit_block(BlockRef(0, 0, 8, 8, 1), np.zeros((8, 8), dtype=np.int32))


def test_commit_overlap_raises():
    buf = ReconBuffer(16, 16, 8)
    buf.commit_block(BlockRef(0, 0, 8, 8, 0), np.zeros((8, 8), dtype=np.int32))
    with pytest.raises(CommitOrderError):
        buf.commit_block(BlockRef(4, 4, 8, 8, 1), np.zeros((8, 8), dtype=np.int32))


def test_commit_outside_raster_position_raises():
    # The right scan_index in the wrong place: the first block must start
    # at (0, 0), and a block row must wait for the row above to fill.
    buf = ReconBuffer(16, 16, 8)
    with pytest.raises(CommitOrderError):
        buf.commit_block(BlockRef(8, 0, 8, 8, 0), np.zeros((8, 8), dtype=np.int32))
    buf.commit_block(BlockRef(0, 0, 8, 8, 0), np.zeros((8, 8), dtype=np.int32))
    with pytest.raises(CommitOrderError):
        buf.commit_block(BlockRef(0, 8, 8, 8, 1), np.zeros((8, 8), dtype=np.int32))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_committed_rectangles_match_the_mask(data):
    # Rectangles overhanging every edge, and empty ones, on random raster prefixes.
    fw, fh = data.draw(st.integers(1, 24)), data.draw(st.integers(1, 24))
    block_size = data.draw(st.sampled_from(BLOCK_SIZES[:3]))
    n_committed = data.draw(st.integers(0, len(partition(fw, fh, block_size))))
    samples = np.arange(fw * fh).reshape(fh, fw)
    buf, _ = prefix_buffer(samples, block_size, n_committed)
    mask = committed_mask(buf)
    for _ in range(20):
        x, y = data.draw(st.integers(-3, fw + 3)), data.draw(st.integers(-3, fh + 3))
        w, h = data.draw(st.integers(0, fw + 6)), data.draw(st.integers(0, fh + 6))
        want = mask_covers(mask, x, y, w, h)
        assert buf.region_available(x, y, w, h) == want
        if not want:
            with pytest.raises(CausalityError):
                buf.read_region(x, y, w, h)
        elif w and h:
            np.testing.assert_array_equal(buf.read_region(x, y, w, h), samples[y : y + h, x : x + w])
        else:
            assert buf.read_region(x, y, w, h).shape == (h, w)


def test_commit_shape_mismatch():
    buf = ReconBuffer(16, 16, 8)
    with pytest.raises(ValueError):
        buf.commit_block(BlockRef(0, 0, 8, 8, 0), np.zeros((4, 8), dtype=np.int32))


def test_read_hook_sees_reads(rng):
    buf = committed_buffer(rng.integers(0, 256, size=(8, 8)))
    seen = []
    buf.read_hook = lambda x, y, w, h: seen.append((x, y, w, h))
    buf.read_region(1, 2, 3, 4)
    buf.read_region(0, 0, 0, 4)  # zero-area reads are not reported
    assert seen == [(1, 2, 3, 4)]


def test_open_loop_reconstruction(rng):
    original = rng.integers(0, 256, size=(4, 4)).astype(np.int64)
    pred = np.zeros((4, 4), dtype=np.int64)
    out = reconstruct_block(original, pred, closed_loop=False, quant_step=8, bit_depth=8)
    np.testing.assert_array_equal(out, original)
    assert out.dtype == np.int32


def test_closed_loop_quantization_rounding():
    pred = np.full((1, 5), 100, dtype=np.int64)
    original = pred + np.array([[4, -4, -5, 3, 11]])
    out = reconstruct_block(original, pred, closed_loop=True, quant_step=8, bit_depth=8)
    # residual/step: 0.5 -> 1, -0.5 -> 0, -0.625 -> -1, 0.375 -> 0, 1.375 -> 1
    np.testing.assert_array_equal(out[0], [108, 100, 92, 100, 108])


def test_closed_loop_clips_to_range():
    pred = np.array([[250, 5]], dtype=np.int64)
    original = np.array([[255, 0]], dtype=np.int64) + np.array([[40, -40]])
    out = reconstruct_block(original, pred, closed_loop=True, quant_step=16, bit_depth=8)
    assert out[0, 0] == 255 and out[0, 1] == 0


def test_closed_loop_step_one_is_lossless(rng):
    original = rng.integers(0, 256, size=(4, 4)).astype(np.int64)
    pred = rng.integers(0, 256, size=(4, 4)).astype(np.int64)
    out = reconstruct_block(original, pred, closed_loop=True, quant_step=1, bit_depth=8)
    np.testing.assert_array_equal(out, original)


def test_closed_loop_rejects_bad_step():
    with pytest.raises(ValidationError):
        reconstruct_block(
            np.zeros((2, 2)), np.zeros((2, 2)), closed_loop=True, quant_step=0, bit_depth=8
        )


@pytest.mark.parametrize("bit_depth", [8, 10])
def test_closed_loop_huge_step_matches_clamped_step(rng, bit_depth):
    top = (1 << bit_depth) - 1
    original = rng.integers(0, top + 1, size=(6, 6)).astype(np.int64)
    pred = rng.integers(0, top + 1, size=(6, 6)).astype(np.int64)
    original[0, :2], pred[0, :2] = (top, 0), (0, top)  # the largest residuals of either sign
    clamp = 1 << (bit_depth + 1)
    at_clamp = reconstruct_block(original, pred, closed_loop=True, quant_step=clamp, bit_depth=bit_depth)
    np.testing.assert_array_equal(at_clamp, pred)
    for step in (clamp + 1, 2**62, 10**23):
        out = reconstruct_block(original, pred, closed_loop=True, quant_step=step, bit_depth=bit_depth)
        np.testing.assert_array_equal(out, at_clamp)
    below = reconstruct_block(original, pred, closed_loop=True, quant_step=clamp // 2, bit_depth=bit_depth)
    assert not np.array_equal(below, pred)



def _reconstruct_oracle(original, prediction, quant_step, bit_depth, overshoot):
    """Closed-loop reconstruction one sample at a time in Python ints and floats.

    overshoot counts the samples that the clip pulls back to 0 and to the top.
    """
    step = min(quant_step, 1 << (bit_depth + 1))
    top = (1 << bit_depth) - 1
    out = []
    for o, p in zip(original.ravel().tolist(), prediction.ravel().tolist()):
        recon = p + math.floor((o - p) / step + 0.5) * step
        overshoot[0] += recon < 0
        overshoot[top] += recon > top
        out.append(min(max(recon, 0), top))
    return np.array(out, dtype=np.int64).reshape(original.shape)


@pytest.mark.parametrize("bit_depth", [8, 10])
def test_closed_loop_reconstruction_matches_scalar_oracle(rng, bit_depth):
    top = (1 << bit_depth) - 1
    # Samples near both ends of the range, so p + level * step overshoots both clips.
    ends = np.r_[np.arange(0, 12), np.arange(top - 11, top + 1)]
    overshoot = {0: 0, top: 0}
    for step in (1, 2, 3, 7, 8, 16, 37, 64, 1 << (bit_depth + 1), (1 << (bit_depth + 1)) + 3, 10**6):
        for shape in ((8, 8), (4, 16), (3, 5)):
            original, prediction = (
                np.where(rng.random(shape) < 0.6, rng.choice(ends, size=shape), rng.integers(0, top + 1, size=shape))
                for _ in range(2)
            )
            want = _reconstruct_oracle(original, prediction, step, bit_depth, overshoot)
            out = reconstruct_block(original, prediction, closed_loop=True, quant_step=step, bit_depth=bit_depth)
            assert out.dtype == np.int32
            np.testing.assert_array_equal(out, want)
    assert overshoot[0] > 0 and overshoot[top] > 0
