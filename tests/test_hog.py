import numpy as np
import pytest

from intralab.hog import N_MODES, _quantize, build_hog, dominant_mode, gradient_field, transform_mode_for_block
from intralab.intra import MODE_PLANAR, mode_direction

from oracles import build_hog as oracle_build_hog
from oracles import dominant_mode as oracle_dominant_mode
from oracles import orientation_to_mode, quantize_gradients, sobel_window


def stripes(direction: str, size: int = 32, band: int = 4, lo: int = 40, hi: int = 210) -> np.ndarray:
    y, x = np.mgrid[0:size, 0:size]
    coord = {"h": y, "v": x, "rising": x + y, "falling": x - y}[direction]
    return np.where((coord // band) % 2 == 0, lo, hi).astype(np.int64)


def test_sobel_window_hand_values():
    w = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    # columns differ by +1 -> g_hor = 1+2+1 twice, rows by +3
    assert sobel_window(w) == (8, 24)
    assert sobel_window(np.full((3, 3), 7)) == (0, 0)
    with pytest.raises(ValueError):
        sobel_window(np.zeros((4, 3)))


def test_gradient_field_matches_windowed_loop(rng):
    samples = rng.integers(0, 256, size=(9, 13)).astype(np.int64)
    g_hor, g_ver = gradient_field(samples)
    assert g_hor.shape == g_ver.shape == (7, 11)
    for i in range(7):
        for j in range(11):
            assert (g_hor[i, j], g_ver[i, j]) == sobel_window(samples[i : i + 3, j : j + 3])


def test_gradient_field_degenerate_sizes():
    g_hor, g_ver = gradient_field(np.zeros((2, 40)))
    assert g_hor.size == 0 and g_ver.size == 0


def test_orientation_pure_gradients():
    assert orientation_to_mode(0, 0) is None
    assert orientation_to_mode(100, 0) == 50  # vertical edge
    assert orientation_to_mode(0, 100) == 18  # horizontal edge
    # gradient up-right -> edge along the falling diagonal, and vice versa
    assert orientation_to_mode(100, -100) == 34
    assert orientation_to_mode(100, 100) == 2  # exact tie of modes 2/66 -> lower index


def quantize(g_hor, g_ver) -> np.ndarray:
    return _quantize(np.asarray(g_hor), np.asarray(g_ver))


def test_quantize_matches_the_brute_force_oracle_on_a_gradient_box():
    g = np.arange(-64, 65)
    g_hor, g_ver = (a.ravel() for a in np.meshgrid(g, g))
    nonzero = (g_hor != 0) | (g_ver != 0)
    g_hor, g_ver = g_hor[nonzero], g_ver[nonzero]
    np.testing.assert_array_equal(quantize(g_hor, g_ver), quantize_gradients(g_hor, g_ver))
    # The box holds the gradient (dy, -dx) across each mode's direction (dx, dy),
    # which votes for that mode except 66, whose line is mode 2's (an exact tie),
    # and the sum of each two neighbouring directions, between their two lines.
    directions = np.array([mode_direction(mode) for mode in range(2, 67)])
    assert np.abs(directions).max() <= 32
    on_line = quantize(directions[:, 1], -directions[:, 0])
    assert on_line.tolist() == list(range(2, 66)) + [2]
    assert quantize([1, 64, -5], [1, 64, -5]).tolist() == [2, 2, 2]
    between = directions[:-1] + directions[1:]
    got = quantize(between[:, 1], -between[:, 0])
    assert all(mode in (m, m + 1 if m < 65 else 2) for m, mode in enumerate(got.tolist(), start=2))
    np.testing.assert_array_equal(got, quantize_gradients(between[:, 1], -between[:, 0]))


def test_histogram_empty_for_flat_and_tiny_blocks():
    assert not build_hog(np.full((16, 16), 128)).any()
    assert not build_hog(np.zeros((2, 2))).any()


def test_histogram_votes_skip_planar_dc_bins(rng):
    hog = build_hog(rng.integers(0, 256, size=(16, 16)))
    assert hog[0] == 0 and hog[1] == 0
    assert hog.sum() > 0


def test_dominant_mode_for_stripe_orientations():
    assert dominant_mode(build_hog(stripes("h"))) == 18
    assert dominant_mode(build_hog(stripes("v"))) == 50
    assert dominant_mode(build_hog(stripes("rising"))) == 2
    assert dominant_mode(build_hog(stripes("falling"))) == 34


def test_dominant_mode_edge_cases():
    assert dominant_mode(np.zeros(67, dtype=np.int64)) == -1
    hog = np.zeros(67, dtype=np.int64)
    hog[30] = 5
    hog[44] = 5
    assert dominant_mode(hog) == 30  # tie to the lower index


def _oracle_transform_mode(pred: np.ndarray) -> int:
    mode = oracle_dominant_mode(oracle_build_hog(pred))
    return MODE_PLANAR if mode is None else mode


def test_transform_modes_are_dominant_hog_modes_of_a_stack():
    stack = np.stack([stripes(d) for d in ("h", "v", "rising", "falling")])
    got = transform_mode_for_block(stack)
    assert got[0] == 18 and got[1] == 50
    assert got == [_oracle_transform_mode(pred) for pred in stack]


def test_transform_modes_flat_predictor_falls_back_to_planar():
    flat = np.full((8, 8), 77)
    assert oracle_dominant_mode(oracle_build_hog(flat)) is None
    assert transform_mode_for_block(flat[None]) == [MODE_PLANAR]


def test_stacked_histograms_match_the_single_block_oracle(rng):
    stack = rng.integers(0, 1024, size=(20, 6, 9))
    stack[3] = 500  # flat: no votes
    stack[4] = stripes("rising", size=9)[:6]
    # One gradient per 3x3 window, (1, 1), (2, 0) and (3, 1): distinct pairs whose
    # keys collide unless the radix spans the whole g_ver range.
    windows = np.zeros((3, 3, 3), dtype=np.int64)
    windows[0, 2, 2] = windows[1, 1, 2] = windows[2, 1, 2] = windows[2, 2, 2] = 1
    for samples in (stack, windows, stack[:18].reshape(2, 9, 6, 9)):
        got = build_hog(samples)
        assert got.shape == samples.shape[:-2] + (N_MODES,) and got.dtype == np.int64
        for row, block in zip(got.reshape(-1, N_MODES), samples.reshape(-1, *samples.shape[-2:])):
            np.testing.assert_array_equal(row, oracle_build_hog(block))
        modes = dominant_mode(got)
        assert modes.shape == samples.shape[:-2]
        want = [oracle_dominant_mode(row) for row in got.reshape(-1, N_MODES)]
        assert modes.ravel().tolist() == [-1 if mode is None else mode for mode in want]
    assert not build_hog(stack)[3].any() and dominant_mode(build_hog(stack))[3] == -1
    assert build_hog(np.zeros((0, 8, 8))).shape == (0, N_MODES)
    assert not build_hog(np.zeros((3, 2, 8))).any()


def test_transform_modes_of_many_blocks_match_one_at_a_time(rng):
    stack = np.stack([stripes("h", size=8), np.full((8, 8), 77), stripes("v", size=8, band=1),
                      stripes("falling", size=8), rng.integers(0, 1024, size=(8, 8))])
    got = transform_mode_for_block(stack)
    assert got == [transform_mode_for_block(pred[None])[0] for pred in stack]
    assert got == [_oracle_transform_mode(pred) for pred in stack]
    assert transform_mode_for_block(stack[:0]) == []
