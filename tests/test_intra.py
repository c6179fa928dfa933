import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intralab import intra
from intralab.grid import BLOCK_SIZES, BlockRef, ReconBuffer, partition
from intralab.intra import (
    ALL_MODES,
    ANGULAR_MODES,
    INTRA_PRED_ANGLE,
    MODE_DC,
    MODE_DIAG,
    MODE_HOR,
    MODE_PLANAR,
    MODE_VER,
    angle_of,
    build_reference_samples,
    mode_direction,
    predict_mode,
    predict_template,
)
from intralab.cost import strip_layout

from conftest import committed_buffer, prefix_buffer
import oracles


def _line(rng, w, h, lo=0, hi=256):
    """A random reference line above ‖ corner ‖ left of an (h, w) block."""
    above = rng.integers(lo, hi, size=2 * w + 1).astype(np.int64)
    left = rng.integers(lo, hi, size=2 * h).astype(np.int64)
    return np.concatenate([above, above[:1], left])


def _above_left(line, w):
    """The 2w + 1 above samples (corner first) and the 2h left samples of a reference line."""
    return line[: 2 * w + 1], line[2 * w + 2 :]


@pytest.mark.parametrize("w,h", [(8, 8), (8, 4), (4, 8), (16, 4)])
def test_angular_matches_scalar_oracle(rng, w, h):
    line = _line(rng, w, h)
    for mode in ANGULAR_MODES:
        np.testing.assert_array_equal(
            predict_mode(line, mode, w, h), oracles.predict_block(line, mode, w, h), err_msg=f"mode {mode}"
        )


def test_angular_oracle_10bit(rng):
    line = _line(rng, 8, 8, hi=1024)
    for mode in ANGULAR_MODES:
        np.testing.assert_array_equal(predict_mode(line, mode, 8, 8), oracles.predict_block(line, mode, 8, 8))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.sampled_from([4, 8, 16, 32, 64]),
    clip=st.tuples(st.integers(0, 63), st.integers(0, 63)),
    bit_depth=st.sampled_from([8, 10]),
)
def test_block_prediction_matches_the_oracles(seed, size, clip, bit_depth):
    # Every mode of a block of a size-grid partition, clipped by the
    # frame edge to w x h, against the sample-at-a-time formulas.
    w, h = max(1, size - clip[0] % size), max(1, size - clip[1] % size)
    line = _line(np.random.default_rng(seed), w, h, hi=1 << bit_depth)
    for mode in ALL_MODES:
        np.testing.assert_array_equal(
            predict_mode(line, mode, w, h), oracles.predict_block(line, mode, w, h), err_msg=f"mode {mode}"
        )


def test_displacement_table_landmarks():
    assert len(INTRA_PRED_ANGLE) == 65
    assert angle_of(MODE_HOR) == 0 and angle_of(MODE_VER) == 0
    assert angle_of(MODE_DIAG) == -32
    assert angle_of(2) == 32 and angle_of(66) == 32
    # antisymmetry of the two half-tables around the diagonal
    for k in range(32):
        assert INTRA_PRED_ANGLE[k] == INTRA_PRED_ANGLE[64 - k]


def test_mode_direction_landmarks():
    assert mode_direction(MODE_VER) == (0, -32)
    assert mode_direction(MODE_HOR) == (-32, 0)
    assert mode_direction(MODE_DIAG) == (-32, -32)
    assert mode_direction(2) == (-32, 32)
    assert mode_direction(66) == (32, -32)


def test_pure_vertical_copies_above_row(rng):
    line = _line(rng, 8, 8)
    pred = predict_mode(line, MODE_VER, 8, 8)
    above, _ = _above_left(line, 8)
    for y in range(8):
        np.testing.assert_array_equal(pred[y], above[1:9])


def test_pure_horizontal_copies_left_column(rng):
    line = _line(rng, 8, 8)
    pred = predict_mode(line, MODE_HOR, 8, 8)
    _, left = _above_left(line, 8)
    for x in range(8):
        np.testing.assert_array_equal(pred[:, x], left[:8])


def test_mode_66_bottom_right_diagonal(rng):
    line = _line(rng, 8, 8)
    pred = predict_mode(line, 66, 8, 8)
    above, _ = _above_left(line, 8)
    for y in range(8):
        for x in range(8):
            assert pred[y, x] == above[min(x + y + 2, 16)]


def test_mode_2_matches_transposed_66(rng):
    line = _line(rng, 8, 8)
    pred = predict_mode(line, 2, 8, 8)
    _, left = _above_left(line, 8)
    for y in range(8):
        for x in range(8):
            assert pred[y, x] == left[min(x + y + 1, 15)]


def test_mode_34_top_left_diagonal(rng):
    line = _line(rng, 8, 8)
    pred = predict_mode(line, MODE_DIAG, 8, 8)
    above, left = _above_left(line, 8)
    for y in range(8):
        for x in range(8):
            if x >= y:
                assert pred[y, x] == above[x - y]
            else:
                assert pred[y, x] == left[y - x - 1]


def test_dc_rounded_mean():
    above = np.concatenate([[99], np.full(8, 10), np.full(8, 77)])
    left = np.concatenate([np.full(4, 13), np.full(4, 77)])
    line = np.concatenate([above, above[:1], left])
    # mean over 8 above + 4 left = (80 + 52 + 6) // 12
    pred = predict_mode(line, MODE_DC, 8, 4)
    np.testing.assert_array_equal(pred, np.full((4, 8), (80 + 52 + 6) // 12))
    np.testing.assert_array_equal(pred, oracles.predict_block(line, MODE_DC, 8, 4))


def test_planar_matches_scalar_formula(rng):
    w, h = 8, 4
    line = _line(rng, w, h)
    np.testing.assert_array_equal(predict_mode(line, MODE_PLANAR, w, h), oracles.predict_block(line, MODE_PLANAR, w, h))


def test_planar_on_flat_refs_is_flat():
    line = np.full(2 * 8 + 2 * 8 + 2, 42, np.int64)
    np.testing.assert_array_equal(predict_mode(line, MODE_PLANAR, 8, 8), np.full((8, 8), 42))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    w=st.sampled_from([4, 8, 16]),
    h=st.sampled_from([4, 8, 16]),
    mode=st.integers(0, 66),
)
def test_prediction_bounded_by_references(seed, w, h, mode):
    rng = np.random.default_rng(seed)
    line = _line(rng, w, h)
    pred = predict_mode(line, mode, w, h)
    assert pred.shape == (h, w)
    assert pred.min() >= line.min() and pred.max() <= line.max()


@settings(max_examples=20, deadline=None)
@given(mode=st.integers(0, 66), value=st.integers(0, 1023))
def test_constant_references_propagate(mode, value):
    line = np.full(2 * 8 + 2 * 8 + 2, value, np.int64)
    np.testing.assert_array_equal(predict_mode(line, mode, 8, 8), np.full((8, 8), value))


def test_reference_gather_inside_fully_committed(rng):
    samples = rng.integers(0, 256, size=(32, 32))
    buf = committed_buffer(samples)
    line = build_reference_samples(buf, 8, 8, 8, 8)
    above, left = _above_left(line, 8)
    np.testing.assert_array_equal(above, samples[7, 7:24])
    assert line[17] == samples[7, 7]  # the corner again, between above and left
    np.testing.assert_array_equal(left, samples[8:24, 7])


def test_reference_padding_at_right_edge(rng):
    samples = rng.integers(0, 256, size=(16, 16))
    buf = committed_buffer(samples)
    above, left = _above_left(build_reference_samples(buf, 8, 8, 8, 8), 8)
    # above positions beyond column 15 replicate the last in-frame sample
    np.testing.assert_array_equal(above[:9], samples[7, 7:16])
    assert (above[9:] == samples[7, 15]).all()
    # left positions beyond row 15 replicate downward
    np.testing.assert_array_equal(left[:8], samples[8:16, 7])
    assert (left[8:] == samples[15, 7]).all()


def test_reference_all_unavailable_pads_mid_gray():
    buf = ReconBuffer(16, 16, 8)
    line = build_reference_samples(buf, 0, 0, 8, 8)
    assert line.dtype == np.int64 and len(line) == 2 * 8 + 2 * 8 + 2
    assert (line == 128).all()
    buf10 = ReconBuffer(16, 16, 10)
    assert (build_reference_samples(buf10, 0, 0, 8, 8) == 512).all()


def test_reference_left_pads_from_above_row(rng):
    samples = rng.integers(0, 256, size=(16, 16))
    buf, blocks = prefix_buffer(samples, 8, 2)  # top two 8x8 blocks committed
    line = build_reference_samples(buf, 0, 8, 8, 8)
    above, left = _above_left(line, 8)
    np.testing.assert_array_equal(above[1:], samples[7, 0:16])
    # the whole left border and the corner (outside the frame) fill from the first above sample
    assert (left == samples[7, 0]).all()
    assert above[0] == line[17] == samples[7, 0]


def test_reference_read_hook_reports_runs(rng):
    samples = rng.integers(0, 256, size=(16, 16))
    buf = committed_buffer(samples)
    seen = []
    buf.read_hook = lambda x, y, w, h: seen.append((x, y, w, h))
    build_reference_samples(buf, 8, 8, 4, 4)
    assert (7, 7, 9, 1) in seen  # above row incl corner, clipped at x=15
    assert (7, 8, 1, 8) in seen  # left column run


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reference_samples_match_the_oracle(data):
    fw, fh = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
    bit_depth = data.draw(st.sampled_from([8, 10]))
    block_size = data.draw(st.sampled_from(BLOCK_SIZES))
    n_committed = data.draw(st.integers(0, len(partition(fw, fh, block_size))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    samples = rng.integers(0, 1 << bit_depth, size=(fh, fw))
    buf, _ = prefix_buffer(samples, block_size, n_committed, bit_depth)
    # Blocks at and next to every frame edge, and anywhere between.
    x0 = data.draw(st.sampled_from(sorted({0, 1, fw - 1, fw})) | st.integers(0, fw))
    y0 = data.draw(st.sampled_from(sorted({0, 1, fh - 1, fh})) | st.integers(0, fh))
    w, h = data.draw(st.integers(1, 48)), data.draw(st.integers(1, 48))

    notes = []
    buf.read_hook = lambda *rect: notes.append(rect)
    want = oracles.build_reference_samples(buf, x0, y0, w, h)
    want_notes, notes[:] = list(notes), []
    got = build_reference_samples(buf, x0, y0, w, h)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    assert notes == want_notes


def test_tap_caches_stay_within_their_byte_budget():
    # The module docstring states the budget: 32 MiB for the one tap
    # cache, filled with whole blocks up to 64x64 or templates up to 8 deep.
    sizes = [(w, h) for w in range(56, 65) for h in range(56, 65)]
    # A whole-block table grows with w * h, a template table with 8 * (w + 8) + 8 * h.
    blocks = [(w, h, ((0, 0, w, h),)) for w, h in sorted(sizes, key=lambda s: -s[0] * s[1])]
    templates = [(w + 8, h + 8, ((0, 0, w + 8, 8), (0, 8, 8, h))) for w, h in sorted(sizes, key=lambda s: -sum(s))]
    cache = intra._template_taps
    for fill in (blocks, templates):
        cache.cache_clear()
        try:
            held = [cache(*g) for g in fill[: intra.TEMPLATE_TAPS_ENTRIES]]
            info = cache.cache_info()
            assert info.currsize == info.maxsize
            assert sum(a.nbytes for entry in held for a in entry) <= 32 << 20
        finally:
            cache.cache_clear()


def test_import_builds_no_intra_tables():
    # The package root re-exports nothing, so frames and synth alone leave
    # the encoder, the harness and the reports unloaded.
    code = (
        "import sys\n"
        "import intralab.frames, intralab.synth\n"
        "print(sum('intralab.' + m in sys.modules for m in ('etimd', 'harness', 'reporting')))\n"
        "from intralab import cli, etimd, harness, intra\n"
        "caches = [f for f in vars(intra).values() if getattr(f, '__module__', None) == intra.__name__"
        " and hasattr(f, 'cache_info')]\n"
        "print(len(caches), sum(f.cache_info().currsize for f in caches))\n"
    )
    src = str(Path(intra.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    loaded, n_caches, filled = map(int, out.stdout.split())
    assert loaded == 0 and n_caches == 1 and filled == 0


def test_angle_of_rejects_non_angular():
    with pytest.raises(ValueError):
        angle_of(MODE_PLANAR)
    with pytest.raises(ValueError):
        angle_of(67)


def test_predict_mode_rejects_modes_outside_all_modes(rng):
    line = _line(rng, 4, 4)
    for mode in (-1, len(ALL_MODES)):
        with pytest.raises(ValueError):
            predict_mode(line, mode, 4, 4)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    t=st.sampled_from([1, 2, 4, 6]),
    size=st.sampled_from([4, 8, 16, 32, 64]),
    clip=st.tuples(st.integers(0, 63), st.integers(0, 63)),
    corner=st.tuples(st.sampled_from([0, 1, 2, 3, 8]), st.sampled_from([0, 1, 2, 3, 8])),
    bit_depth=st.sampled_from([8, 10]),
)
def test_template_prediction_matches_full_block(seed, t, size, clip, corner, bit_depth):
    # A block of a size-grid partition, clipped by the frame edge to
    # w x h, at distance (x0, y0) from the frame origin.
    w, h = max(1, size - clip[0] % size), max(1, size - clip[1] % size)
    x0, y0 = corner
    lw, ah = min(x0, t), min(y0, t)
    if lw == 0 and ah == 0:
        return
    we, he = lw + w, ah + h
    rng = np.random.default_rng(seed)
    line = _line(rng, we, he, hi=1 << bit_depth)
    mask = np.zeros((he, we), dtype=bool)
    mask[:ah] = True
    mask[ah:, :lw] = True
    strips = tuple(r for r in ((0, 0, we, ah), (0, ah, lw, h)) if r[2] and r[3])

    got = predict_template(line, we, he, strips)
    assert got.shape == (len(ALL_MODES), ah * we + h * lw)
    # Undo the cost layout so each row runs in raster order.
    raster = np.empty_like(got)
    raster[:, strip_layout(tuple((sh, sw) for _, _, sw, sh in strips)).order] = got
    ys, xs = np.nonzero(mask)
    for row, mode in zip(raster, ALL_MODES):
        want = oracles.predict_samples(line, mode, we, he, zip(xs, ys))
        np.testing.assert_array_equal(row, want, err_msg=f"mode {mode}")


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    t=st.sampled_from([1, 2, 4, 6]),
    size=st.sampled_from([4, 8, 16, 32, 64]),
    clip=st.tuples(st.integers(0, 63), st.integers(0, 63)),
    corner=st.tuples(st.sampled_from([0, 1, 2, 3, 8]), st.sampled_from([0, 1, 2, 3, 8])),
    bit_depth=st.sampled_from([8, 10]),
)
def test_tiled_template_prediction_follows_the_cost_layout(seed, t, size, clip, corner, bit_depth):
    w, h = max(1, size - clip[0] % size), max(1, size - clip[1] % size)
    x0, y0 = corner
    lw, ah = min(x0, t), min(y0, t)
    if lw == 0 and ah == 0:
        return
    we, he = lw + w, ah + h
    rng = np.random.default_rng(seed)
    line = _line(rng, we, he, hi=1 << bit_depth)
    mask = np.zeros((he, we), dtype=bool)
    mask[:ah] = True
    mask[ah:, :lw] = True
    strips = tuple(r for r in ((0, 0, we, ah), (0, ah, lw, h)) if r[2] and r[3])
    # The raster template positions of the extended block, in layout order.
    positions = np.flatnonzero(mask)[strip_layout(tuple((sh, sw) for _, _, sw, sh in strips)).order]

    ys, xs = np.divmod(positions, we)

    got = predict_template(line, we, he, strips)
    assert got.shape == (len(ALL_MODES), len(positions))
    for row, mode in zip(got, ALL_MODES):
        want = oracles.predict_samples(line, mode, we, he, zip(xs, ys))
        np.testing.assert_array_equal(row, want, err_msg=f"mode {mode}")



@pytest.mark.parametrize("pattern", ["all-1023", "alternating"])
def test_int32_template_prediction_at_extreme_10_bit_lines(pattern):
    # predict_template runs in int32; the largest 10-bit samples, alone and
    # next to 0, must predict as the int64 scalar oracle does for every
    # template depth and every block size up to the 64x64 of the overflow bound.
    for t in range(1, 9):
        for size in (4, 8, 16, 32, 64):
            we = he = size + t
            n = 2 * we + 2 * he + 2
            line = np.full(n, 1023, dtype=np.int64) if pattern == "all-1023" else np.arange(n) % 2 * 1023
            line[2 * we + 1] = line[0]  # the corner appears twice
            strips = ((0, 0, we, t), (0, t, t, size))
            mask = np.zeros((he, we), dtype=bool)
            mask[:t] = mask[t:, :t] = True
            positions = np.flatnonzero(mask)[strip_layout(((t, we), (size, t))).order]
            ys, xs = np.divmod(positions, we)
            got = predict_template(line, we, he, strips)
            assert got.dtype == np.int32
            for row, mode in zip(got, ALL_MODES):
                want = oracles.predict_samples(line, mode, we, he, zip(xs, ys))
                np.testing.assert_array_equal(row, want, err_msg=f"t {t}, size {size}, mode {mode}")
