import dataclasses
import math
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intralab import harness
from intralab.errors import FormatError, ReplayMismatchError, TruncatedInputError, ValidationError
from intralab.frames import Frame, load_frame, write_yuv420
from intralab.grid import BLOCK_SIZES, ReconBuffer
from intralab.harness import (
    TOOLS,
    RunConfig,
    compare_runs,
    config_from_dict,
    encode_frame,
    replay_frame,
    run_experiment,
    validate_config,
)
from intralab.reporting import Report, read_report, write_report
from intralab.synth import noise_frame, tiled_glyph_frame, ui_tiles

from conftest import write_pgm


@pytest.fixture(scope="module")
def glyph_yuv(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs") / "glyph.yuv"
    write_yuv420([tiled_glyph_frame(64, 64, period=8, seed=40)], str(path))
    return str(path)


@pytest.fixture(scope="module")
def noise_yuv(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs") / "noise.yuv"
    write_yuv420([noise_frame(64, 64, seed=41), noise_frame(64, 64, seed=42)], str(path))
    return str(path)


def cfg(path, **kw):
    kw.setdefault("input_path", str(path))
    kw.setdefault("width", 64)
    kw.setdefault("height", 64)
    kw.setdefault("block_size", 8)
    kw.setdefault("search_range", 16)
    return RunConfig(**kw)


def test_validate_config_branches(noise_yuv):
    validate_config(cfg(noise_yuv))
    bad = [
        {"tool": "hm"},
        {"metric": "mse"},
        {"input_format": "png"},
        {"block_size": 12},
        {"bit_depth": 12},
        {"width": 0},
        {"frame_start": -1},
        {"frame_count": 0},
        {"template": 0},
        {"n_max": -1},
        {"quant_step": 0},
        {"search_range": 0},
    ]
    for overrides in bad:
        with pytest.raises(ValidationError):
            validate_config(cfg(noise_yuv, **overrides))


def test_config_from_dict():
    config = config_from_dict({"input_path": "x.yuv", "width": 32, "height": 32, "tool": "timd"})
    assert config.tool == "timd" and config.block_size == 16
    with pytest.raises(ValidationError):
        config_from_dict({"input_path": "x.yuv", "blocksize": 8})
    with pytest.raises(ValidationError):
        config_from_dict({"width": 32})


def test_run_is_deterministic(glyph_yuv):
    config = cfg(glyph_yuv, tool="etimd")
    a = run_experiment(config)
    b = run_experiment(config)
    assert a.records == b.records
    assert a.aggregates == b.aggregates
    assert set(a.timing) == {"encode_s", "replay_s"}


def test_replay_reconstruction_matches_encode(glyph_yuv):
    config = cfg(glyph_yuv, tool="etimd")
    frame = load_frame(glyph_yuv, "yuv-planar", 64, 64)
    results, buf, _ = encode_frame(frame, config)
    replayed = replay_frame(frame, config, results)
    np.testing.assert_array_equal(replayed.samples, buf.samples)
    assert replayed.n_committed == buf.n_committed


def test_replay_detects_tampered_prediction(glyph_yuv):
    config = cfg(glyph_yuv, tool="timd")
    frame = load_frame(glyph_yuv, "yuv-planar", 64, 64)
    results, _, _ = encode_frame(frame, config)
    results[5].prediction = results[5].prediction + 1
    with pytest.raises(ReplayMismatchError):
        replay_frame(frame, config, results)


def test_replay_detects_flipped_tool(glyph_yuv):
    config = cfg(glyph_yuv, tool="etimd")
    frame = load_frame(glyph_yuv, "yuv-planar", 64, 64)
    results, _, _ = encode_frame(frame, config)
    # TIMD never fuses a BV, so re-deriving this block as timd must disagree
    res = next(r for r in results if r.tool == "etimd" and any(c.kind == "bv" for c in r.fusion.modes))
    res.tool = "timd"
    with pytest.raises(ReplayMismatchError, match="encoder derived"):
        replay_frame(frame, config, results)


def test_replay_rejects_unknown_block_label(glyph_yuv):
    config = cfg(glyph_yuv, tool="etimd")
    frame = load_frame(glyph_yuv, "yuv-planar", 64, 64)
    results, _, _ = encode_frame(frame, config)
    res = next(r for r in results if r.tool == "etimd")
    res.tool = "bogus"  # must not replay as etimd
    with pytest.raises(ValueError, match="bogus"):
        replay_frame(frame, config, results)


@pytest.mark.parametrize("tool", ["timd", "etimd"])
def test_replay_detects_changed_fused_cost(glyph_yuv, tool):
    config = cfg(glyph_yuv, tool=tool)
    frame = load_frame(glyph_yuv, "yuv-planar", 64, 64)
    results, _, _ = encode_frame(frame, config)
    res = next(r for r in results if r.tool == tool)
    modes = res.fusion.modes
    modes[-1] = dataclasses.replace(modes[-1], cost=modes[-1].cost + 1)
    with pytest.raises(ReplayMismatchError, match="encoder derived"):
        replay_frame(frame, config, results)


def test_replay_checks_closed_loop_reconstruction(glyph_yuv):
    config = cfg(glyph_yuv, tool="etimd", closed_loop=True, quant_step=16)
    report = run_experiment(config)
    assert "replay_s" in report.timing  # replay ran and asserted every block


@pytest.mark.parametrize("tool", ["dc-only", "intratmp", "timd", "etimd"])
def test_all_tools_replay_clean(noise_yuv, tool):
    run_experiment(cfg(noise_yuv, tool=tool))


def test_records_use_absolute_frame_index(noise_yuv):
    report = run_experiment(cfg(noise_yuv, tool="dc-only", frame_start=1, frame_count=1))
    assert {r.frame for r in report.records} == {1}


def test_parallel_matches_serial(noise_yuv):
    serial = run_experiment(cfg(noise_yuv, tool="etimd", frame_count=2, parallel=False))
    parallel = run_experiment(cfg(noise_yuv, tool="etimd", frame_count=2, parallel=True))
    assert serial.records == parallel.records


def test_n_max_zero_lists_no_bv(tmp_path):
    path = tmp_path / "tiles.yuv"
    write_yuv420([ui_tiles(3, size=64)], str(path))
    listed = run_experiment(cfg(path, tool="etimd"))
    assert max(r.bv_list_len for r in listed.records) > 0  # the fixture does list BVs
    report = run_experiment(cfg(path, tool="etimd", n_max=0))
    assert [r.bv_list_len for r in report.records] == [0] * len(report.records)
    assert not any(m.startswith("bv:") for r in report.records if r.tool == "etimd" for m in r.modes)


def test_run_memory_does_not_grow_with_frame_count(tmp_path):
    # Each frame is encoded, replayed and turned into records before the
    # next, so a frame's samples, reconstruction, BV store and block arrays
    # are gone once its records exist.  On 128x128 noise with timd and
    # 16x16 blocks the tracemalloc peak grew by ~0.09 MiB per extra frame
    # (its records); loading every frame up front grew it by ~0.12 MiB, and
    # keeping every frame's encode alive until the run ends by ~0.40 MiB.
    path = tmp_path / "noise.yuv"
    write_yuv420([noise_frame(128, 128, seed=50 + i) for i in range(6)], str(path))
    config = cfg(path, width=128, height=128, block_size=16, tool="timd")
    run_experiment(config)  # fill the per-geometry caches before measuring
    peaks = {}
    for n in (2, 6):
        tracemalloc.start()
        try:
            run_experiment(dataclasses.replace(config, frame_count=n))
            _, peaks[n] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    per_frame = (peaks[6] - peaks[2]) / 4
    assert per_frame <= 0.25 * 2**20, f"{per_frame / 2**20:.2f} MiB per extra frame"


def test_truncated_input_fails_before_any_encode(glyph_yuv):
    # glyph_yuv holds one frame; the second is checked before the first is encoded.
    with mock.patch.object(harness, "encode_frame", side_effect=AssertionError("encoded")) as encode:
        with pytest.raises(TruncatedInputError):
            run_experiment(cfg(glyph_yuv, frame_count=2))
    encode.assert_not_called()


def test_measure_replay_off_skips_timing(noise_yuv):
    report = run_experiment(cfg(noise_yuv, tool="dc-only", measure_replay=False))
    assert "replay_s" not in report.timing


def test_pgm_input(tmp_path):
    path = tmp_path / "page.pgm"
    write_pgm(Frame(8, tiled_glyph_frame(64, 64, period=8, seed=43)), str(path))
    report = run_experiment(cfg(path, input_format="pgm", tool="etimd"))
    assert report.aggregates["n_blocks"] == 64


def test_ten_bit_input(tmp_path):
    path = tmp_path / "deep.yuv"
    plane = (noise_frame(64, 64, seed=44, bit_depth=10)).astype(np.uint16)
    write_yuv420([plane], str(path), bit_depth=10)
    report = run_experiment(cfg(path, bit_depth=10, tool="timd"))
    assert report.config["bit_depth"] == 10
    assert report.aggregates["n_blocks"] == 64


def test_etimd_beats_timd_on_periodic_content(glyph_yuv):
    timd = run_experiment(cfg(glyph_yuv, tool="timd"))
    etimd = run_experiment(cfg(glyph_yuv, tool="etimd"))
    delta = compare_runs(timd, etimd)
    assert delta.wins > delta.losses
    assert delta.non_loss_rate >= 0.5
    assert delta.mean_sad_b < delta.mean_sad_a
    assert etimd.aggregates["bv_replacement_rate"] > 0


def test_compare_run_with_itself(noise_yuv):
    report = run_experiment(cfg(noise_yuv, tool="timd"))
    delta = compare_runs(report, report)
    assert (delta.wins, delta.losses, delta.ties) == (0, 0, delta.n_blocks)
    assert delta.psnr_delta_db == 0.0
    assert delta.mean_sad_change_pct == 0.0
    assert delta.tie_rate == 1.0 and delta.non_loss_rate == 1.0
    doc = delta.as_dict()
    assert doc["win_rate"] == 0.0 and doc["n_blocks"] == delta.n_blocks


def test_compare_lossless_runs_infinite_psnr(tmp_path):
    path = tmp_path / "flat.yuv"
    write_yuv420([np.full((64, 64), 128, dtype=np.uint16)], str(path))
    report = run_experiment(cfg(path, tool="dc-only"))
    assert report.aggregates["psnr_db"] == math.inf
    delta = compare_runs(report, report)
    assert delta.psnr_delta_db == 0.0  # inf - inf must not poison the delta
    assert delta.mean_sad_change_pct is None  # zero baseline SAD has no pct change


def test_compare_rejects_mismatched_grids(noise_yuv):
    a = run_experiment(cfg(noise_yuv, tool="dc-only"))
    b = run_experiment(cfg(noise_yuv, tool="dc-only", block_size=16))
    with pytest.raises(FormatError):
        compare_runs(a, b)
    c = run_experiment(cfg(noise_yuv, tool="dc-only", frame_count=2))
    with pytest.raises(FormatError):
        compare_runs(a, c)


def test_full_search_range(glyph_yuv):
    config = dataclasses.replace(cfg(glyph_yuv, tool="intratmp"), search_range=None)
    report = run_experiment(config)
    assert report.aggregates["tool_usage"].get("intratmp", 0) > 0


def test_compare_rejects_empty_runs():
    empty = Report(config={}, records=[], aggregates={"n_blocks": 0})
    with pytest.raises(FormatError):
        compare_runs(empty, empty)


class AuditedBuffer(ReconBuffer):
    """ReconBuffer that logs every read outside the blocks committed so far."""

    def __init__(self, width: int, height: int, bit_depth: int) -> None:
        super().__init__(width, height, bit_depth)
        self.committed = np.zeros((height, width), dtype=bool)
        self.violations: list[tuple[int, int, int, int]] = []
        self.read_hook = self._audit

    def _audit(self, x, y, w, h):
        inside = x >= 0 and y >= 0 and x + w <= self.width and y + h <= self.height
        if not inside or not self.committed[y : y + h, x : x + w].all():
            self.violations.append((x, y, w, h))

    def commit_block(self, block, recon):
        super().commit_block(block, recon)
        self.committed[block.y0 : block.y0 + block.h, block.x0 : block.x0 + block.w] = True


@settings(max_examples=100, deadline=None)
@given(
    width=st.integers(1, 37),
    height=st.integers(1, 37),
    bit_depth=st.sampled_from([8, 10]),
    glyphs=st.booleans(),
    seed=st.integers(0, 2**16),
    tool=st.sampled_from(TOOLS),
    block_size=st.sampled_from(BLOCK_SIZES),
    metric=st.sampled_from(["satd", "sad"]),
    template=st.sampled_from([1, 2, 4, 6]),
    search_range=st.sampled_from([1, 8, None]),
    n_max=st.sampled_from([0, 2, 6]),
    toggles=st.fixed_dictionaries(
        {
            name: st.booleans()
            for name in ("use_bv_list", "use_ar_bv", "use_hog_transform", "tmp_compete", "closed_loop")
        }
    ),
)
def test_whole_loop_is_causal_replays_and_round_trips(
    width, height, bit_depth, glyphs, seed, tool, block_size, metric, template, search_range, n_max, toggles
):
    if glyphs:
        samples = tiled_glyph_frame(width, height, period=8, seed=seed, bit_depth=bit_depth)
    else:
        samples = noise_frame(width, height, seed=seed, bit_depth=bit_depth)
    buffers: list[AuditedBuffer] = []

    def make_buffer(*args):
        buffers.append(AuditedBuffer(*args))
        return buffers[-1]

    with tempfile.TemporaryDirectory() as tmp:
        frame_path = os.path.join(tmp, "frame.pgm")
        write_pgm(Frame(bit_depth, samples), frame_path)
        config = RunConfig(
            input_path=frame_path,
            input_format="pgm",
            width=width,
            height=height,
            bit_depth=bit_depth,
            block_size=block_size,
            tool=tool,
            metric=metric,
            template=template,
            search_range=search_range,
            n_max=n_max,
            quant_step=8,
            **toggles,
        )
        with mock.patch.object(harness, "ReconBuffer", make_buffer):
            report = run_experiment(config)  # replay raises on any divergence

        encoded, replayed = buffers
        assert encoded.violations == [] and replayed.violations == []
        np.testing.assert_array_equal(encoded.samples, replayed.samples)
        assert encoded.committed.all() and replayed.committed.all()

        first, second = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
        write_report(report, first)
        loaded = read_report(first)
        write_report(loaded, second)
        assert loaded.records == report.records
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()


# The same loop on larger frames with a full-range search, in both open
# and closed loop.  Encoding and replaying the 4x4 blocks of a 96x96 noise
# frame this way takes ~18 s in the audited buffer, so this profile runs
# three 96x96 examples and six fixed draws.
_ALL_ON = {"use_bv_list": True, "use_ar_bv": True, "use_hog_transform": True, "tmp_compete": True}


@pytest.mark.parametrize("closed_loop", [False, True])
@settings(max_examples=6, deadline=None, derandomize=True)
@example(96, 96, 8, True, 7, "intratmp", 16, "satd", 4, 6, _ALL_ON)
@example(96, 96, 10, False, 8, "etimd", 16, "sad", 6, 6, _ALL_ON)
@example(96, 96, 8, True, 9, "etimd", 4, "satd", 4, 6, _ALL_ON)
@given(
    width=st.integers(38, 96),
    height=st.integers(38, 96),
    bit_depth=st.sampled_from([8, 10]),
    glyphs=st.booleans(),
    seed=st.integers(0, 2**16),
    tool=st.sampled_from(TOOLS),
    block_size=st.sampled_from(BLOCK_SIZES),
    metric=st.sampled_from(["satd", "sad"]),
    template=st.sampled_from([1, 2, 4, 6]),
    n_max=st.sampled_from([0, 2, 6]),
    toggles=st.fixed_dictionaries(
        {name: st.booleans() for name in ("use_bv_list", "use_ar_bv", "use_hog_transform", "tmp_compete")}
    ),
)
def test_whole_loop_at_larger_frames_with_full_search(
    closed_loop, width, height, bit_depth, glyphs, seed, tool, block_size, metric, template, n_max, toggles
):
    test_whole_loop_is_causal_replays_and_round_trips.hypothesis.inner_test(
        width, height, bit_depth, glyphs, seed, tool, block_size, metric, template,
        search_range=None, n_max=n_max, toggles={**toggles, "closed_loop": closed_loop},
    )


def test_whole_loop_memory_is_bounded():
    # One encode plus replay of 96x96 noise, E-TIMD with every toggle on,
    # HoG transforms, 16x16 blocks and a full-range search.  Measured on
    # Python 3.11: a 1.84 MiB tracemalloc peak in a fresh process (1.34 MiB
    # once the per-geometry caches are filled), ~0.47 s of CPU time.  The
    # 4 MiB bound leaves room for cache state left by other tests; costing
    # each search window in one batch, not in SEARCH_CHUNK candidates,
    # peaked at 11.3 MiB.
    frame = Frame(8, noise_frame(96, 96, seed=3))
    config = RunConfig(
        input_path="unused", width=96, height=96, block_size=16, tool="etimd",
        use_hog_transform=True, closed_loop=True, search_range=None,
    )
    tracemalloc.start()
    try:
        results, _, _ = encode_frame(frame, config)
        replay_frame(frame, config, results)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert {r.tool for r in results} == {"dc", "etimd", "intratmp"}
    assert peak <= 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"
