"""The batched measurement pass against the per-block oracle.

harness.encode_frame codes blocks in the causal loop and measures them
in batches of MEASURE_BATCH afterwards.  Every measured BlockResult
field must equal oracles.measure_block, the per-block measurement it
replaced, on the benchmark workloads' first frames and on hypothesis
frames.  The per-mode predictions the oracle needs are re-derived by
replaying the committed reconstructions block by block.  A hand-built
batch pins which fusion entries drive the HoG transform.  Under
perfbench's span tracer, the encode loop calls each measurement kernel
once per batch, not per block, and every name the benchmark traces runs
on the encode and replay path.  Its count pass gives the same counters
twice over one frame.  perfbench/ is only read.
"""

from __future__ import annotations

import importlib.util
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intralab import harness
from intralab.bvlist import BvStore
from intralab.etimd import (
    MEASURE_BATCH,
    TOOLS,
    BlockResult,
    EncodeContext,
    FusionSet,
    ModeCandidate,
    fuse,
    fusion_predictions,
    measure_blocks,
)
from intralab.frames import Frame
from intralab.grid import ReconBuffer, partition
from intralab.harness import RunConfig, encode_frame, validate_config
from intralab.intra import MODE_DC, MODE_PLANAR
from intralab.synth import noise_frame, tiled_glyph_frame
from intralab.tmp import BlockVector

from conftest import prefix_buffer
from oracles import measure_block
from test_reference import PERFBENCH, workloads


def assert_measured_like_oracle(frame: Frame, config: RunConfig, results: list, encoded: ReconBuffer) -> None:
    """Each result's measured fields equal the oracle's, compaction bit for bit.

    encoded is the reconstruction encode_frame returned with results.
    """
    buf = ReconBuffer(frame.width, frame.height, frame.bit_depth)
    original = frame.samples.astype(np.int64)
    assert [r.block for r in results] == partition(frame.width, frame.height, config.block_size)
    for res in results:
        block = res.block
        predictions = fusion_predictions(buf, block, res.fusion)
        np.testing.assert_array_equal(fuse(predictions, res.fusion.weights, frame.bit_depth), res.prediction)
        orig = original[block.y0 : block.y0 + block.h, block.x0 : block.x0 + block.w]
        want = measure_block(block, res.fusion, predictions, res.prediction, orig, config.use_hog_transform)
        got = {name: getattr(res, name) for name in want}
        assert got == want, f"block {block.scan_index} at ({block.x0},{block.y0})"
        buf.commit_block(block, encoded.samples[block.y0 : block.y0 + block.h, block.x0 : block.x0 + block.w])


def _frame0(name: str) -> tuple[Frame, RunConfig]:
    wl = workloads.WORKLOADS[name]
    size = workloads.SIZE
    cfg = RunConfig(input_path="unused", width=size, height=size, bit_depth=wl.bit_depth, **wl.config)
    validate_config(cfg)
    return Frame(wl.bit_depth, wl.planes(0)[0]), cfg


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_frame0_measured_like_oracle(name):
    frame, cfg = _frame0(name)
    results, encoded, _ = encode_frame(frame, cfg)
    assert len(results) > MEASURE_BATCH
    assert_measured_like_oracle(frame, cfg, results, encoded)


@settings(max_examples=40, deadline=None)
@given(
    width=st.integers(5, 44),
    height=st.integers(5, 44),
    block_size=st.sampled_from((4, 8)),
    bit_depth=st.sampled_from((8, 10)),
    tool=st.sampled_from(TOOLS),
    content=st.sampled_from(("noise", "glyph", "flat")),
    use_hog_transform=st.booleans(),
    closed_loop=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(width=44, height=37, block_size=4, bit_depth=8, tool="etimd", content="glyph",
         use_hog_transform=True, closed_loop=True, seed=3)
@example(width=30, height=30, block_size=4, bit_depth=10, tool="etimd", content="noise",
         use_hog_transform=True, closed_loop=False, seed=4)
def test_measured_fields_match_oracle(width, height, block_size, bit_depth, tool, content,
                                      use_hog_transform, closed_loop, seed):
    if content == "noise":
        samples = noise_frame(width, height, seed, bit_depth=bit_depth)
    elif content == "glyph":
        samples = tiled_glyph_frame(width, height, period=8, seed=seed, bit_depth=bit_depth)
    else:
        samples = np.full((height, width), 1 << (bit_depth - 1), dtype=np.uint16)
    frame = Frame(bit_depth, samples.astype(np.uint16))
    cfg = RunConfig(
        input_path="unused", width=width, height=height, bit_depth=bit_depth, block_size=block_size,
        tool=tool, search_range=8, use_hog_transform=use_hog_transform, closed_loop=closed_loop,
    )
    results, encoded, _ = encode_frame(frame, cfg)
    assert_measured_like_oracle(frame, cfg, results, encoded)


def test_zero_residual_compacts_perfectly():
    # Mid-grey is every empty-template default, so every prediction is exact.
    frame = Frame(8, np.full((20, 36), 128, dtype=np.uint16))
    cfg = RunConfig(input_path="unused", width=36, height=20, block_size=4, use_hog_transform=True)
    results, encoded, _ = encode_frame(frame, cfg)
    assert len(results) > MEASURE_BATCH
    assert all(r.pred_sad == r.pred_satd == r.pred_sse == 0 for r in results)
    assert all(r.compaction == 1.0 for r in results)
    assert_measured_like_oracle(frame, cfg, results, encoded)


def _entry(cost: int, mode: int | None = None, bv: tuple[int, int] | None = None) -> ModeCandidate:
    if bv is None:
        return ModeCandidate(cost=cost, mode=mode)
    return ModeCandidate(cost=cost, bv=BlockVector(*bv), list_index=0)


# Fusion entries of the third block row of a 32x32 frame of 8x8 blocks.  The
# BVs point into the committed top rows, whose horizontal stripes have HoG mode 18.
HAND_BUILT_FUSIONS = [
    [_entry(10, 30), _entry(12, MODE_PLANAR)],
    [_entry(10, MODE_DC), _entry(11, 40)],
    [_entry(10, 30), _entry(12, MODE_DC), _entry(13, bv=(0, -16))],
    [_entry(10, 50), _entry(11, bv=(0, -8))],
]


@pytest.fixture(scope="module")
def hand_built_batch():
    """The hand-built fusions coded as one batch, measured with use_hog_transform, and
    the oracle's measurement of each block."""
    samples = noise_frame(32, 32, seed=7)
    samples[:16] = np.where(np.arange(16)[:, None] // 2 % 2, 200, 40)
    cfg = RunConfig(input_path="unused", width=32, height=32, block_size=8, tool="etimd", use_hog_transform=True)
    buf, blocks = prefix_buffer(samples, 8, 8)
    ctx = EncodeContext(samples.astype(np.int64), buf, BvStore(32, 32), cfg)
    results, oracle = [], []
    for block, modes in zip(blocks[8:], HAND_BUILT_FUSIONS):
        fusion = FusionSet(modes)
        predictions = fusion_predictions(buf, block, fusion)
        prediction = fuse(predictions, fusion.weights, 8)
        orig = ctx.original[block.y0 : block.y0 + 8, block.x0 : block.x0 + 8]
        results.append(BlockResult(block=block, tool="etimd", fusion=fusion, prediction=prediction))
        oracle.append(measure_block(block, fusion, predictions, prediction, orig, True))
    measure_blocks(ctx, results)
    return [{name: getattr(res, name) for name in want} for res, want in zip(results, oracle)], oracle


def test_measure_blocks_passes_intra_entries_through(hand_built_batch):
    got, want = hand_built_batch
    assert [m["transform_modes"] for m in got[:2]] == [(30, MODE_PLANAR), (MODE_DC, 40)]
    assert got[:2] == want[:2]


def test_measure_blocks_reads_only_the_first_two_entries(hand_built_batch):
    got, want = hand_built_batch
    assert got[2]["transform_modes"] == (30, MODE_DC)  # the BV third entry is not read
    assert got[2] == want[2]


def test_measure_blocks_replaces_a_bv_second_entry(hand_built_batch):
    got, want = hand_built_batch
    assert got[3]["transform_modes"] == (50, 18)
    assert got[3] == want[3]


def test_encode_frame_memory_is_bounded():
    frame, cfg = _frame0("smallblock-closedloop")
    tracemalloc.start()
    try:
        results, _, _ = encode_frame(frame, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) == 1024
    assert peak <= 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.fixture(scope="module")
def traced_smallblock():
    """Frame 0 of smallblock-closedloop, the one workload that turns every layer on, encoded and
    replayed under spans.Tracer: its results and the calls of each traced name."""
    frame, cfg = _frame0("smallblock-closedloop")
    tracer = spans.Tracer()
    with tracer.installed():  # patches intralab's namespaces, so call through harness
        results, _, _ = harness.encode_frame(frame, cfg)
        harness.replay_frame(frame, cfg, results)
    return results, tracer.summary()["calls"]


def test_encode_loop_makes_no_per_block_measurement_call(traced_smallblock):
    results, calls = traced_smallblock
    batches = len(results) // MEASURE_BATCH + 1  # measure_blocks calls, the trailing empty one included
    assert calls["etimd.encode_block"] == len(results) == 1024 and batches == 33
    for name in ("cost.sad", "cost.satd", "hog.transform_mode_for_block"):
        assert 0 < calls[name] <= batches, name
    for name in ("transforms.apply_transform", "transforms.energy_compaction"):
        assert 0 < calls[name] <= 4 * batches, name  # one per transform class
    assert calls["cost.satd_batch"] > 0 and all(r.compaction is not None for r in results)


def test_every_traced_name_runs_on_the_program_path(traced_smallblock):
    # process_frame calls load_frame and the reporting layer around the encode
    # and replay; only tests call template_cost_at.
    outside = {"frames.load_frame", "reporting.records", "reporting.aggregates", "reporting.write_report",
               "tmp.template_cost_at"}
    traced = [name for name, *_ in spans.TRACED]
    assert outside <= set(traced)
    _, calls = traced_smallblock
    assert [name for name in traced if name not in outside and not calls[name]] == []


def test_count_pass_is_repeatable_and_counts_the_bv_list():
    # perfbench's count pass patches the bvlist functions and tmp_search; two
    # passes over one frame must agree, or run.py marks the run incorrect.
    frame, cfg = _frame0("screen-etimd")
    first, second = (spans.count_pass(lambda: harness.encode_frame(frame, cfg)[0]) for _ in range(2))
    assert first == second
    assert [name for name in ("bvlist.sampled", "bvlist.kept", "tmp.search.calls") if first[name] <= 0] == []
