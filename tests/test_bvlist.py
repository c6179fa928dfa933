import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intralab.bvlist import (
    BvCandidate,
    BvPrecision,
    BvStore,
    Provenance,
    _sampling_offsets,
    build_bv_list,
    derive_ar_bvs,
    normalize_bv,
    sample_spatial_bvs,
)
from intralab import harness
from intralab.etimd import encode_block
from intralab.frames import Frame
from intralab.grid import BlockRef, partition
from intralab.synth import SCREEN_FIXTURES, noise_frame
from intralab.tmp import BlockVector

import oracles
from conftest import prefix_buffer
from oracles import candidate_valid


def test_sampling_points_exact_order():
    block = BlockRef(64, 64, 8, 8, 0)
    want = [
        (-1, 7), (7, -1), (8, -1), (-1, 8), (-1, -1),
        (-9, 7), (7, -9), (16, -9), (-9, 16), (-9, -9),
        (-17, 7), (7, -17), (24, -17), (-17, 24), (-17, -17),
    ]
    assert list(_sampling_offsets(block.w, block.h)) == want


def test_sampling_points_scale_with_block():
    block = BlockRef(64, 64, 16, 4, 0)
    points = _sampling_offsets(block.w, block.h)
    assert points[0] == (-1, 3)
    assert points[5] == (-17, 3)  # ring 1 shifts left by w
    assert points[8] == (-17, 8)  # below-left shifts down by h
    assert points[12] == (48, -9)  # above-right shifts right by 2w, up by 2h


def test_store_add_lookup_overlap():
    store = BvStore(32, 32)
    store.add(BlockRef(0, 0, 8, 8, 0), (BlockVector(-4, 0),))
    store.add(BlockRef(8, 0, 8, 8, 1))
    assert store.bvs_at(7, 7) == (BlockVector(-4, 0),)
    assert store.bvs_at(8, 7) == ()
    assert store.bvs_at(16, 0) == ()
    assert store.bvs_at(-1, 0) == ()
    assert store.bvs_at(0, 32) == ()
    with pytest.raises(ValueError):
        store.add(BlockRef(4, 4, 8, 8, 2))
    with pytest.raises(ValueError):  # a block without BVs still covers its pixels
        store.add(BlockRef(12, 4, 8, 8, 2), (BlockVector(-4, 0),))


def test_normalize_bv_floor_shift():
    assert normalize_bv(BlockVector(33, -33), BvPrecision.SIXTEENTH) == BlockVector(2, -3)
    assert normalize_bv(BlockVector(16, -16), BvPrecision.SIXTEENTH) == BlockVector(1, -1)
    assert normalize_bv(BlockVector(15, -1), BvPrecision.SIXTEENTH) == BlockVector(0, -1)
    assert normalize_bv(BlockVector(33, -33), BvPrecision.INT_PEL) == BlockVector(33, -33)


@settings(max_examples=50, deadline=None)
@given(dx=st.integers(-4096, 4096), dy=st.integers(-4096, 4096))
def test_normalize_matches_floor_division(dx, dy):
    got = normalize_bv(BlockVector(dx, dy), BvPrecision.SIXTEENTH)
    assert got == BlockVector(dx // 16, dy // 16)


def test_sample_spatial_bvs_visit_order():
    store = BvStore(64, 64)
    store.add(BlockRef(8, 16, 8, 8, 0), (BlockVector(-2, 0),))
    store.add(BlockRef(16, 8, 8, 8, 1), (BlockVector(16, -32), BlockVector(-48, 0)), BvPrecision.SIXTEENTH)
    block = BlockRef(16, 16, 8, 8, 2)
    got = sample_spatial_bvs(store, block)
    # left point first, then the two above-point BVs normalized from 1/16 units
    assert got == [BlockVector(-2, 0), BlockVector(1, -2), BlockVector(-3, 0)]


def test_derive_ar_single_level():
    store = BvStore(64, 64)
    block = BlockRef(32, 32, 8, 8, 3)
    # the block v1 points at carries v2; the block v1+v2 points at carries v3
    store.add(BlockRef(24, 24, 8, 8, 0), (BlockVector(-8, 0),))
    store.add(BlockRef(16, 24, 8, 8, 1), (BlockVector(-4, 0),))
    ar = derive_ar_bvs(store, [BlockVector(-8, -8)], block)
    assert ar == [BlockVector(-16, -8)]  # v1 + v2, and v3 is never chased


def test_derive_ar_skips_bv_free_records():
    store = BvStore(64, 64)
    store.add(BlockRef(24, 24, 8, 8, 0))
    assert derive_ar_bvs(store, [BlockVector(-8, -8)], BlockRef(32, 32, 8, 8, 1)) == []


def test_build_list_dedup_keeps_primary_tag():
    samples = noise_frame(64, 64, seed=1)
    buf, blocks = prefix_buffer(samples, 8, 20)
    block = blocks[20]  # (32, 16)
    store = BvStore(64, 64)
    # left neighbor's BV relocates to a record whose BV reproduces the
    # above neighbor's primary, so (-16, -8) arrives twice
    store.add(BlockRef(24, 16, 8, 8, 0), (BlockVector(-8, -8),))
    store.add(BlockRef(24, 8, 8, 8, 1), (BlockVector(-8, 0),))
    store.add(BlockRef(32, 8, 8, 8, 2), (BlockVector(-16, -8),))

    lst = build_bv_list(store, buf, block, t=4, n_max=20, use_ar=True)
    assert [c.bv for c in lst] == [
        BlockVector(-8, -8),
        BlockVector(-16, -8),
        BlockVector(-8, 0),
    ]
    assert all(c.provenance == Provenance.PRIMARY for c in lst)


def test_build_list_ar_provenance_and_validity():
    samples = noise_frame(64, 64, seed=2)
    buf, blocks = prefix_buffer(samples, 8, 20)
    block = blocks[20]  # (32, 16)
    store = BvStore(64, 64)
    store.add(BlockRef(24, 16, 8, 8, 0), (BlockVector(-8, -8),))
    store.add(BlockRef(24, 8, 8, 8, 1), (BlockVector(-16, 0),))
    lst = build_bv_list(store, buf, block, t=4, n_max=20, use_ar=True)
    assert BvCandidate(BlockVector(-8, -8), Provenance.PRIMARY) in lst
    assert BvCandidate(BlockVector(-24, -8), Provenance.AUTO_RELOCATED) in lst
    for cand in lst:
        assert candidate_valid(buf, block, cand.bv, 4, strict_template=True)


def test_build_list_drops_invalid_candidates():
    samples = noise_frame(64, 64, seed=3)
    buf, blocks = prefix_buffer(samples, 8, 9)
    block = blocks[9]  # (8, 8)
    store = BvStore(64, 64)
    # points into uncommitted area below
    store.add(BlockRef(0, 8, 8, 8, 0), (BlockVector(0, 16),))
    assert build_bv_list(store, buf, block, t=4) == []


def test_build_list_respects_n_max():
    samples = noise_frame(64, 64, seed=4)
    buf, blocks = prefix_buffer(samples, 8, 20)
    block = blocks[20]  # (32, 16)
    store = BvStore(64, 64)
    # left neighbor with many distinct valid BVs
    bvs = tuple(BlockVector(-8 * k, -8) for k in range(1, 4))
    store.add(BlockRef(24, 16, 8, 8, 0), bvs)
    full = build_bv_list(store, buf, block, t=4, n_max=20, use_ar=False)
    capped = build_bv_list(store, buf, block, t=4, n_max=2, use_ar=False)
    assert len(full) == 3
    assert capped == full[:2]


def test_build_list_n_max_zero_is_empty():
    samples = noise_frame(64, 64, seed=4)
    buf, blocks = prefix_buffer(samples, 8, 20)
    store = BvStore(64, 64)
    store.add(BlockRef(24, 16, 8, 8, 0), (BlockVector(-8, -8),))
    assert len(build_bv_list(store, buf, blocks[20], t=4, n_max=1)) == 1
    assert build_bv_list(store, buf, blocks[20], t=4, n_max=0) == []


def test_build_list_empty_store():
    samples = noise_frame(64, 64, seed=5)
    buf, blocks = prefix_buffer(samples, 8, 20)
    assert build_bv_list(BvStore(64, 64), buf, blocks[20], t=4) == []


def test_build_list_without_ar():
    samples = noise_frame(64, 64, seed=6)
    buf, blocks = prefix_buffer(samples, 8, 20)
    block = blocks[20]
    store = BvStore(64, 64)
    store.add(BlockRef(24, 16, 8, 8, 0), (BlockVector(-8, -8),))
    store.add(BlockRef(16, 8, 8, 8, 1), (BlockVector(-8, 0),))
    lst = build_bv_list(store, buf, block, t=4, use_ar=False)
    assert all(c.provenance == Provenance.PRIMARY for c in lst)
    assert [c.bv for c in lst] == [BlockVector(-8, -8)]


@pytest.mark.parametrize("block_size", [8, 16])
@pytest.mark.parametrize("name", sorted(SCREEN_FIXTURES))
def test_build_list_matches_the_scalar_oracle(name, block_size):
    # Before each block of an E-TIMD encode, the list equals the oracle's
    # for every n_max and with and without AR.
    cfg = harness.RunConfig(input_path="unused", width=64, height=64, block_size=block_size, tool="etimd")
    ctx = harness._context(Frame(8, SCREEN_FIXTURES[name](5, 64)), cfg)
    coded = []
    for block in partition(64, 64, block_size):
        for n_max, use_ar in itertools.product((0, 1, 3, 20), (False, True)):
            got = build_bv_list(ctx.store, ctx.buf, block, cfg.template, n_max, use_ar)
            want = oracles.build_bv_list(coded, ctx.buf, block, cfg.template, n_max, use_ar)
            assert [(c.bv, c.provenance.value) for c in got] == want, (block, n_max, use_ar)
        res = encode_block(ctx, block)
        coded.append((block, tuple(c.bv for c in res.fusion.modes if c.kind == "bv")))
