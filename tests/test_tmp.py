import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intralab import tmp
from intralab.errors import CausalityError
from intralab.grid import BlockRef, ReconBuffer, partition
from intralab.synth import SCREEN_FIXTURES, noise_frame, tiled_glyph_frame
from intralab.tmp import (
    BlockVector,
    SearchResult,
    bv_predict,
    extended_rect,
    template_cost_at,
    template_rects,
    tmp_search,
)

from conftest import prefix_buffer
from oracles import block_cost, candidate_valid, committed_mask, extract_template, template_at_bv
from search_oracle import oracle_search


def test_template_rects_interior():
    block = BlockRef(16, 16, 8, 8, 0)
    above, left = template_rects(block, 4, 64, 64)
    assert above == (12, 12, 12, 4)  # (w + t) x t including the corner
    assert left == (12, 16, 4, 8)


def test_template_rects_clipped_near_origin():
    block = BlockRef(2, 3, 8, 8, 0)
    above, left = template_rects(block, 4, 64, 64)
    assert above == (0, 0, 10, 3)
    assert left == (0, 3, 2, 8)


def test_template_rects_absent_at_edges():
    assert template_rects(BlockRef(0, 0, 8, 8, 0), 4, 64, 64) == (None, None)
    above, left = template_rects(BlockRef(8, 0, 8, 8, 1), 4, 64, 64)
    assert above is None and left == (4, 0, 4, 8)
    above, left = template_rects(BlockRef(0, 8, 8, 8, 8), 4, 64, 64)
    assert above == (0, 4, 8, 4) and left is None


def test_extract_and_displaced_template(rng):
    samples = noise_frame(32, 32, seed=5)
    buf, blocks = prefix_buffer(samples, 8, 9)
    block = blocks[9]  # (8, 16)
    above, left = extract_template(buf, block, 4)
    np.testing.assert_array_equal(above, samples[12:16, 4:16])
    np.testing.assert_array_equal(left, samples[16:24, 4:8])
    d_above, d_left = template_at_bv(buf, block, BlockVector(0, -8), 4)
    np.testing.assert_array_equal(d_above, samples[4:8, 4:16])
    np.testing.assert_array_equal(d_left, samples[8:16, 4:8])


def test_bv_predict_copies_displaced_block(rng):
    samples = noise_frame(32, 32, seed=6)
    buf, blocks = prefix_buffer(samples, 8, 9)
    pred = bv_predict(buf, blocks[9], BlockVector(-8, -8))
    np.testing.assert_array_equal(pred, samples[8:16, 0:8])


def test_zero_vector_invalid_during_encode(rng):
    samples = noise_frame(32, 32, seed=7)
    buf, blocks = prefix_buffer(samples, 8, 9)
    assert not candidate_valid(buf, blocks[9], BlockVector(0, 0), 4)


def test_strict_vs_lenient_at_frame_edge(rng):
    samples = noise_frame(32, 32, seed=8)
    buf, blocks = prefix_buffer(samples, 8, 1)  # only block (0, 0)
    block = blocks[1]  # (8, 0): left strip only
    bv = BlockVector(-8, 0)
    # displaced left strip sits fully outside the frame
    assert candidate_valid(buf, block, bv, 4, strict_template=False)
    assert not candidate_valid(buf, block, bv, 4, strict_template=True)


def test_partially_outside_strip_invalid_both_ways(rng):
    samples = noise_frame(32, 32, seed=9)
    buf, blocks = prefix_buffer(samples, 8, 8)  # block rows 0 and 1 committed
    block = blocks[5]  # (8, 8)
    bv = BlockVector(-6, -8)
    above, _ = template_rects(block, 4, 32, 32)
    moved_x = above[0] + bv.dx
    assert moved_x < 0 < moved_x + above[2]  # strip straddles the left edge
    assert not candidate_valid(buf, block, bv, 4, strict_template=False)
    assert not candidate_valid(buf, block, bv, 4, strict_template=True)


def test_uncommitted_displaced_block_invalid(rng):
    samples = noise_frame(32, 32, seed=10)
    buf, blocks = prefix_buffer(samples, 8, 9)
    # points at blocks[10]'s area, not yet committed
    assert not candidate_valid(buf, blocks[9], BlockVector(8, 0), 4)


@settings(max_examples=150, deadline=None)
@given(
    size=st.tuples(st.integers(4, 40), st.integers(4, 40)),
    block_size=st.sampled_from([4, 8, 16]),
    t=st.sampled_from([1, 2, 4, 6]),
    data=st.data(),
)
def test_one_rectangle_check_is_the_strict_check(size, block_size, t, data):
    width, height = size
    samples = noise_frame(width, height, seed=width * 41 + height)
    n_blocks = len(partition(width, height, block_size))
    done = data.draw(st.integers(0, n_blocks - 1))
    buf, blocks = prefix_buffer(samples, block_size, done)
    block = blocks[done]
    ex, ey, ew, eh = extended_rect(block, t)
    # Mostly upward moves, so that many candidates land in the committed prefix.
    moves = st.tuples(st.integers(-block.x0 - t, width - block.x0), st.integers(-block.y0 - t, 1))
    for dx, dy in data.draw(st.lists(moves, min_size=1, max_size=12)):
        strict = candidate_valid(buf, block, BlockVector(dx, dy), t, strict_template=True)
        assert buf.region_available(ex + dx, ey + dy, ew, eh) == strict


WINDOW_CASES = [
    (32, 32, 8, 1, (5, 10, 14)),
    (32, 32, 8, 4, (5, 10, 14)),
    (40, 24, 4, 2, (13, 27, 46)),
]


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize(
    "width, height, block_size, t, done",
    [(w, h, b, t, done) for w, h, b, t, dones in WINDOW_CASES for done in dones],
)
def test_window_validity_is_candidate_validity(width, height, block_size, t, done, strict):
    # Every displacement of the full-frame window, costed or not: the search
    # may only ever cost a candidate that oracles.candidate_valid accepts.
    samples = noise_frame(width, height, seed=width * 41 + height)
    buf, blocks = prefix_buffer(samples, block_size, done)
    block = blocks[done]
    rects = [r for r in template_rects(block, t, width, height) if r is not None]
    curs = [buf.read_region(*rect).astype(np.int64) for rect in rects]
    dx_lo, dx_hi = -block.x0, width - block.w - block.x0
    dy_lo, dy_hi = -block.y0, height - block.h - block.y0
    valid, _, _ = tmp._window_bounds(buf, block, t, rects, curs, dx_lo, dx_hi, dy_lo, dy_hi, "satd", strict)
    want = [
        candidate_valid(buf, block, BlockVector(dx, dy), t, strict_template=strict)
        for dy in range(dy_lo, dy_hi + 1)
        for dx in range(dx_lo, dx_hi + 1)
    ]
    assert valid.tolist() == want


@settings(max_examples=150, deadline=None)
@given(
    size=st.tuples(st.integers(4, 48), st.integers(4, 48)),
    block_size=st.sampled_from([4, 8, 16]),
    t=st.sampled_from([1, 2, 4, 6]),
    data=st.data(),
)
def test_window_crop_drops_no_valid_candidate(size, block_size, t, data):
    # The search window stops at the last row where the displaced block's
    # bottom row can be committed: no candidate below it is valid.
    width, height = size
    samples = noise_frame(width, height, seed=width * 41 + height)
    n_blocks = len(partition(width, height, block_size))
    done = data.draw(st.integers(0, n_blocks - 1))
    buf, blocks = prefix_buffer(samples, block_size, done)
    block = blocks[done]
    dx_lo, dx_hi, dy_lo, dy_hi = tmp._search_window(buf, block, None)
    assert (dx_lo, dx_hi, dy_lo) == (-block.x0, width - block.w - block.x0, -block.y0)
    for dy in range(max(dy_lo, dy_hi + 1), height - block.h - block.y0 + 1):
        for dx in range(dx_lo, dx_hi + 1):
            for strict in (True, False):
                assert not candidate_valid(buf, block, BlockVector(dx, dy), t, strict_template=strict)


@pytest.mark.parametrize("fixture", sorted(SCREEN_FIXTURES))
def test_uncommitted_samples_never_reach_the_search(fixture):
    # The window's sample integral sums uncommitted samples as they stand,
    # so whatever they hold must change no validity, bound, later strips'
    # bound or search result.
    samples = SCREEN_FIXTURES[fixture](7, 64)
    rng = np.random.default_rng(len(fixture))
    for done in (9, 20, 35, 50):
        clean, blocks = prefix_buffer(samples, 8, done)
        dirty, _ = prefix_buffer(samples, 8, done)
        hidden = ~committed_mask(dirty)
        dirty.samples[hidden] = rng.integers(-(2**31), 2**31, size=int(hidden.sum()), dtype=np.int32)
        block = blocks[done]
        rects = [r for r in template_rects(block, 4, 64, 64) if r is not None]
        curs = [clean.read_region(*rect).astype(np.int64) for rect in rects]
        window = (-block.x0, 64 - block.w - block.x0, -block.y0, 64 - block.h - block.y0)
        for metric in ("satd", "sad"):
            for strict in (True, False):
                want = tmp._window_bounds(clean, block, 4, rects, curs, *window, metric, strict)
                got = tmp._window_bounds(dirty, block, 4, rects, curs, *window, metric, strict)
                for w, g in zip([*want[:2], *want[2]], [*got[:2], *got[2]]):
                    np.testing.assert_array_equal(g, w)
                assert tmp_search(dirty, block, None, 4, metric, strict) == tmp_search(
                    clean, block, None, 4, metric, strict
                )


def test_template_cost_matches_block_cost(rng):
    samples = noise_frame(32, 32, seed=11)
    buf, blocks = prefix_buffer(samples, 8, 10)
    block = blocks[10]  # (16, 16): both moved strips stay in frame
    bv = BlockVector(-8, -8)
    for metric in ("sad", "satd"):
        cur_a, cur_l = extract_template(buf, block, 4)
        ref_a, ref_l = template_at_bv(buf, block, bv, 4)
        want = block_cost(ref_a, cur_a, metric) + block_cost(ref_l, cur_l, metric)
        assert template_cost_at(buf, block, bv, 4, metric) == want



def test_template_costs_batch_matches_block_cost(rng):
    samples = noise_frame(32, 32, seed=15)
    buf, blocks = prefix_buffer(samples, 8, 10)
    block = blocks[10]  # (16, 16)
    # (-16, -16) moves both strips fully outside the frame: they cost nothing
    bvs = [BlockVector(-8, -8), BlockVector(-16, -16), BlockVector(0, -8)]
    cur_a, cur_l = extract_template(buf, block, 4)
    for metric in ("sad", "satd"):
        want = []
        for bv in bvs:
            total = 0
            for (x, y, w, h), cur in zip(template_rects(block, 4, 32, 32), (cur_a, cur_l)):
                x, y = x + bv.dx, y + bv.dy
                if x >= 0 and y >= 0:
                    total += block_cost(samples[y : y + h, x : x + w], cur, metric)
            want.append(total)
        assert [template_cost_at(buf, block, bv, 4, metric) for bv in bvs] == want
    with pytest.raises(CausalityError):
        for bv in (BlockVector(-8, -8), BlockVector(8, 0)):
            template_cost_at(buf, block, bv, 4, "satd")

def test_search_finds_exact_period_match():
    samples = tiled_glyph_frame(64, 64, period=8, seed=3)
    buf, blocks = prefix_buffer(samples, 8, 17)
    block = blocks[17]  # (8, 16): interior, full template
    found = tmp_search(buf, block, search_range=16, t=4, metric="satd")
    assert found is not None
    assert found.cost == 0
    np.testing.assert_array_equal(
        bv_predict(buf, block, found.bv),
        samples[block.y0 : block.y0 + 8, block.x0 : block.x0 + 8],
    )
    # nearest exact repeat: |dx| + |dy| = 8, dy = -8 preferred over dx = -8
    assert found.bv == BlockVector(0, -8)


def test_search_tie_break_prefers_smaller_dy():
    samples = tiled_glyph_frame(64, 64, period=8, seed=4)
    buf, blocks = prefix_buffer(samples, 8, 18)
    block = blocks[18]  # (16, 16): both (0,-8) and (-8,0) cost 0
    found = tmp_search(buf, block, search_range=8, t=4, metric="sad")
    assert found.bv == BlockVector(0, -8)


def test_search_none_without_template():
    buf = ReconBuffer(32, 32, 8)
    block = BlockRef(0, 0, 8, 8, 0)
    assert tmp_search(buf, block, search_range=8, t=4) is None


def test_search_none_when_strict_has_no_candidates(rng):
    samples = noise_frame(32, 32, seed=12)
    buf, blocks = prefix_buffer(samples, 8, 1)
    block = blocks[1]  # (8, 0)
    assert tmp_search(buf, block, 8, 4, "sad", strict_template=True) is None
    lenient = tmp_search(buf, block, 8, 4, "sad", strict_template=False)
    assert lenient is not None and lenient.bv == BlockVector(-8, 0)


def test_search_full_range_reaches_far_matches():
    # the only repeat of the glyph band is 80 columns away
    samples = np.zeros((16, 96), dtype=np.uint16)
    samples[:, :16] = tiled_glyph_frame(16, 16, period=8, seed=5)
    samples[:, 80:96] = samples[:, :16]
    buf, blocks = prefix_buffer(samples, 8, 23)
    block = blocks[23]  # (88, 8)
    narrow = tmp_search(buf, block, search_range=4, t=4, metric="sad", strict_template=True)
    assert narrow is None  # every nearby displaced block is uncommitted
    full = tmp_search(buf, block, search_range=None, t=4, metric="sad", strict_template=True)
    assert full is not None and full.cost == 0
    assert full.bv == BlockVector(-80, 0)


def test_search_matches_oracle_on_random_states():
    rng = np.random.default_rng(2024)
    for trial in range(12):
        size = int(rng.integers(16, 33))
        size -= size % 8
        samples = rng.integers(0, 256, size=(size, size)).astype(np.uint16)
        n_blocks = int(rng.integers(1, (size // 8) ** 2))
        buf, blocks = prefix_buffer(samples, 8, n_blocks)
        block = blocks[n_blocks]
        metric = "sad" if trial % 2 else "satd"
        strict = bool(trial % 3 == 0)
        r = int(rng.integers(4, 17))
        got = tmp_search(buf, block, r, 4, metric, strict_template=strict)
        want = oracle_search(buf, block, r, 4, metric, strict_template=strict)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert (got.bv, got.cost) == want


def test_search_range_validation(rng):
    samples = noise_frame(16, 16, seed=13)
    buf, blocks = prefix_buffer(samples, 8, 1)
    with pytest.raises(ValueError):
        tmp_search(buf, blocks[1], search_range=-1)


# --- pruned search: exact against the oracle, bounded in memory ----------


@settings(max_examples=120, deadline=None)
@given(
    width=st.integers(17, 48),
    height=st.integers(17, 48),
    block_size=st.sampled_from([4, 8, 16]),
    t=st.sampled_from([1, 2, 4, 6]),
    metric=st.sampled_from(["sad", "satd"]),
    strict=st.booleans(),
    search_range=st.one_of(st.none(), st.integers(1, 32)),
    content=st.sampled_from(["noise", "glyph4", "glyph8"]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_search_with_limit_matches_oracle(
    width, height, block_size, t, metric, strict, search_range, content, seed, data
):
    if content == "noise":
        samples = noise_frame(width, height, seed=seed)
    else:
        # a repeated glyph gives many equal-cost candidates, so the tie
        # order decides among candidates that share the cut-off bound
        samples = tiled_glyph_frame(width, height, period=int(content[5:]), seed=seed)
    n_blocks = len(partition(width, height, block_size))
    k = data.draw(st.integers(0, n_blocks - 1), label="committed blocks")
    buf, blocks = prefix_buffer(samples, block_size, k)
    block = blocks[k]

    want = oracle_search(buf, block, search_range, t, metric, strict)
    top = 0 if want is None else want[1]
    below = data.draw(
        st.one_of(
            st.none(), st.just(0), st.sampled_from([top, top + 1]), st.integers(0, 2 * top + 2)
        ),
        label="below",
    )
    if want is not None and below is not None and want[1] >= below:
        want = None  # no candidate costs less than below

    # small chunks make the bound cut-off decide on these small windows too
    chunk = data.draw(st.sampled_from([1, 7, tmp.SEARCH_CHUNK]), label="chunk")
    with mock.patch.object(tmp, "SEARCH_CHUNK", chunk):
        got = tmp_search(buf, block, search_range, t, metric, strict_template=strict, below=below)
    assert (None if got is None else (got.bv, got.cost)) == want


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("chunk", [1, 7, tmp.SEARCH_CHUNK])
def test_search_reads_its_own_template_once(chunk, strict):
    samples = noise_frame(48, 48, seed=15)
    # Range 8 keeps (-x0, -y0), which costs 0 and ends a lenient search
    # at once, out of every window.
    for k in (2, 12, 27):  # left strip only, above strip only, both
        buf, blocks = prefix_buffer(samples, 8, k)
        block = blocks[k]
        own = [r for r in template_rects(block, 4, 48, 48) if r is not None]
        notes = []
        buf.read_hook = lambda *rect: notes.append(rect)
        with mock.patch.object(tmp, "SEARCH_CHUNK", chunk):
            found = tmp_search(buf, block, 8, 4, "satd", strict_template=strict)
        assert found is not None and len(notes) > len(own)  # candidates were costed
        assert [notes.count(rect) for rect in own] == [1] * len(own)


@pytest.mark.parametrize("chunk", [1, 7, tmp.SEARCH_CHUNK])
def test_candidates_pruned_after_the_first_strip_never_read_the_second(chunk):
    samples = noise_frame(48, 48, seed=17)
    buf, blocks = prefix_buffer(samples, 8, 27)
    block = blocks[27]  # (24, 32): both strips
    above, left = template_rects(block, 4, 48, 48)
    ax, ay, aw, ah = above
    # below is the least above-strip cost of any valid candidate, so every
    # candidate's cost exceeds the limit once its above strip is costed.
    below = min(
        block_cost(samples[ay + dy : ay + dy + ah, ax + dx : ax + dx + aw], samples[ay : ay + ah, ax : ax + aw], "satd")
        for dy in range(-16, 17)
        for dx in range(-16, 17)
        if candidate_valid(buf, block, BlockVector(dx, dy), 4, strict_template=True)
    )
    notes = []
    buf.read_hook = lambda *rect: notes.append(rect)
    with mock.patch.object(tmp, "SEARCH_CHUNK", chunk):
        got = tmp_search(buf, block, 16, 4, "satd", strict_template=True, below=below)
    buf.read_hook = None
    want = oracle_search(buf, block, 16, 4, "satd", True)
    assert got is None and want is not None and want[1] >= below
    assert len([r for r in notes if r[2:] == above[2:]]) > 1  # displaced above strips were costed
    assert [r for r in notes if r[2:] == left[2:]] == [left]  # only the block's own left strip was read


def test_lenient_candidate_without_evidence_is_valid_at_cost_0():
    # Found behaviour, pinned until the spec decides it: at (-x0, -y0)
    # every displaced strip lies outside the frame, so the lenient search
    # takes the candidate at cost 0 on noise that matches nowhere.
    samples = noise_frame(32, 32, seed=16)
    buf, blocks = prefix_buffer(samples, 8, 10)
    block = blocks[10]  # (16, 8): both strips
    bv = BlockVector(-block.x0, -block.y0)
    assert candidate_valid(buf, block, bv, 4, strict_template=False)
    assert not candidate_valid(buf, block, bv, 4, strict_template=True)
    assert template_cost_at(buf, block, bv, 4, "satd") == 0
    assert tmp_search(buf, block, None, 4, "satd", strict_template=False) == SearchResult(bv, 0)
    strict = tmp_search(buf, block, None, 4, "satd", strict_template=True)
    assert strict is not None and strict.bv != bv and strict.cost > 0


def test_full_range_search_memory_is_bounded():
    samples = noise_frame(384, 384, seed=14)
    buf, blocks = prefix_buffer(samples, 16, 24 * 24 - 1)
    tracemalloc.start()
    try:
        found = tmp_search(buf, blocks[-1], search_range=None, t=4, metric="satd", strict_template=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found is not None
    assert peak <= 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_unknown_metric_rejected():
    samples = noise_frame(16, 16, seed=13)
    buf, blocks = prefix_buffer(samples, 8, 1)
    with pytest.raises(ValueError):
        tmp_search(buf, blocks[1], search_range=8, metric="ssd")
    with pytest.raises(ValueError):
        template_cost_at(buf, blocks[1], BlockVector(-8, 0), 4, "ssd")
