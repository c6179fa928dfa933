import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from intralab.cost import (
    METRICS,
    SATD_MAX_DIFF,
    bound_pieces,
    coefficient_cost,
    hadamard_planes,
    layout_cost,
    sad,
    satd,
    satd_batch,
    strip_layout,
    tile_origins,
)

from oracles import block_cost, satd_batch_int64


def _dense_hadamard(n: int) -> np.ndarray:
    base = np.array([[1, 1], [1, -1]], dtype=np.int64)
    mat = np.array([[1]], dtype=np.int64)
    while mat.shape[0] < n:
        mat = np.kron(mat, base)
    return mat


def _oracle_tile(diff: np.ndarray) -> int:
    """Dense-matrix Hadamard cost of one full 4x4 or 8x8 tile."""
    n = diff.shape[0]
    hm = _dense_hadamard(n)
    s = int(np.abs(hm @ diff @ hm.T).sum())
    return (s + 1) >> 1 if n == 4 else (s + 2) >> 2


def test_sad_hand_value():
    a = np.array([[1, 2], [3, 4]])
    b = np.array([[4, 2], [0, 10]])
    assert sad(a - b) == 3 + 0 + 3 + 6


def test_sad_empty():
    assert sad(np.zeros((0, 4), dtype=np.int64)) == 0


def test_satd_4x4_matches_dense_oracle(rng):
    for _ in range(50):
        a = rng.integers(0, 256, size=(4, 4))
        b = rng.integers(0, 256, size=(4, 4))
        d = a - b
        assert satd(d) == _oracle_tile(d)


def test_satd_8x8_matches_dense_oracle(rng):
    for _ in range(50):
        a = rng.integers(0, 256, size=(8, 8))
        b = rng.integers(0, 256, size=(8, 8))
        d = a - b
        assert satd(d) == _oracle_tile(d)


def test_satd_16x16_uses_8x8_tiles(rng):
    a = rng.integers(0, 256, size=(16, 16))
    b = rng.integers(0, 256, size=(16, 16))
    d = a - b
    expected = sum(
        _oracle_tile(d[y : y + 8, x : x + 8]) for y in (0, 8) for x in (0, 8)
    )
    assert satd(d) == expected


def test_satd_4x12_uses_4x4_tiles(rng):
    a = rng.integers(0, 256, size=(4, 12))
    b = rng.integers(0, 256, size=(4, 12))
    d = a - b
    expected = sum(_oracle_tile(d[:, x : x + 4]) for x in (0, 4, 8))
    assert satd(d) == expected


def test_satd_8x12_prefers_4x4_over_partial_8x8(rng):
    # 12 is not a multiple of 8, so the whole area tiles as 4x4
    a = rng.integers(0, 256, size=(8, 12))
    b = rng.integers(0, 256, size=(8, 12))
    d = a - b
    expected = sum(
        _oracle_tile(d[y : y + 4, x : x + 4]) for y in (0, 4) for x in (0, 4, 8)
    )
    assert satd(d) == expected


def test_satd_remainder_strips_cost_sad(rng):
    # 6x9: 4x8 area in 4x4 tiles, bottom 2 rows and right 1 column by SAD
    a = rng.integers(0, 256, size=(6, 9))
    b = rng.integers(0, 256, size=(6, 9))
    d = a - b
    expected = (
        _oracle_tile(d[:4, :4])
        + _oracle_tile(d[:4, 4:8])
        + int(np.abs(d[4:, :]).sum())
        + int(np.abs(d[:4, 8:]).sum())
    )
    assert satd(d) == expected


def test_satd_thin_regions_fall_back_to_sad(rng):
    for shape in ((3, 10), (10, 2), (1, 1), (2, 3)):
        a = rng.integers(0, 256, size=shape)
        b = rng.integers(0, 256, size=shape)
        assert satd(a - b) == sad(a - b)


def test_satd_batch_matches_scalar(rng):
    diffs = rng.integers(-255, 256, size=(7, 8, 20))
    batch = satd_batch(diffs)
    for i in range(7):
        assert batch[i] == satd(diffs[i])
    for shape in ((7, 8, 20), (2, 3, 6, 9), (2, 3, 3, 10), (0, 4, 4)):
        d = rng.integers(0, 256, size=shape) - rng.integers(0, 256, size=shape)
        blocks = d.reshape(-1, *shape[-2:])
        for cost in (sad, satd):
            assert cost(d).shape == shape[:-2]
            assert cost(d).ravel().tolist() == [int(cost(block)) for block in blocks]


def test_satd_batch_empty():
    assert satd_batch(np.zeros((0, 4, 4))).shape == (0,)


def test_block_cost_dispatch(rng):
    a = rng.integers(0, 256, size=(4, 4))
    b = rng.integers(0, 256, size=(4, 4))
    assert block_cost(a, b, "sad") == sad(a - b)
    assert block_cost(a, b, "satd") == satd(a - b)
    with pytest.raises(ValueError):
        block_cost(a, b, "mse")


def test_shape_mismatch_rejected():
    for cost in (sad, satd):
        with pytest.raises(ValueError):
            cost(np.zeros(4, dtype=np.int64))


_diffs = arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    elements=st.integers(-1023, 1023),
)


@settings(max_examples=60, deadline=None)
@given(d=_diffs)
def test_cost_is_even_and_zero_only_for_zero_differences(d):
    zeros = np.zeros_like(d)
    for metric, cost_of in (("sad", sad), ("satd", satd)):
        cost = cost_of(d)
        assert cost == block_cost(d, zeros, metric)
        assert cost_of(-d) == cost
        assert cost >= 0
        assert (cost == 0) == bool((d == 0).all())


# --- the float32 GEMM against the int64 kernel it replaced ---------------

# 4x4 and 8x8 tilings, 4x4 with remainder strips, and thin SAD-only shapes.
_KERNEL_SHAPES = st.one_of(
    st.sampled_from([(4, 4), (8, 8), (16, 16), (4, 20), (16, 4), (8, 12), (6, 9), (12, 7), (3, 10), (10, 2), (1, 1)]),
    st.tuples(st.integers(1, 24), st.integers(1, 24)),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), bit_depth=st.sampled_from([8, 10, 12]), shape=_KERNEL_SHAPES, n=st.integers(1, 5))
def test_satd_batch_matches_int64_oracle(data, bit_depth, shape, n):
    peak = (1 << bit_depth) - 1
    diffs = data.draw(
        arrays(
            dtype=np.int64,
            shape=(n, *shape),
            elements=st.one_of(st.sampled_from([-peak, peak]), st.integers(-peak, peak)),
        )
    )
    np.testing.assert_array_equal(satd_batch(diffs), satd_batch_int64(diffs))


@pytest.mark.parametrize("bit_depth", [8, 10, 12])
@pytest.mark.parametrize("shape", [(4, 4), (8, 8), (16, 16), (4, 20), (6, 9), (3, 10)])
def test_satd_batch_exact_at_extremes(rng, bit_depth, shape):
    peak = (1 << bit_depth) - 1
    # all-peak tiles of either sign, a checkerboard, and random signs
    checker = np.where(np.indices(shape).sum(axis=0) % 2 == 0, peak, -peak)
    diffs = np.stack(
        [np.full(shape, peak), np.full(shape, -peak), checker]
        + [rng.choice([-peak, peak], size=shape) for _ in range(20)]
    ).astype(np.int64)
    np.testing.assert_array_equal(satd_batch(diffs), satd_batch_int64(diffs))


@pytest.mark.parametrize("shape", [(4, 4), (8, 8), (6, 9), (3, 10)])
def test_satd_batch_rejects_differences_beyond_bound(shape):
    assert SATD_MAX_DIFF == 4095
    for value in (SATD_MAX_DIFF + 1, -SATD_MAX_DIFF - 1):
        diffs = np.zeros((2, *shape), dtype=np.int64)
        diffs[1, -1, -1] = value
        with pytest.raises(ValueError):
            satd_batch(diffs)
    with pytest.raises(ValueError):
        satd(np.full(shape, 4096))


# --- the one template-cost kernel and its lower bound ---------------------


def _region_costs(diffs: np.ndarray, metric: str) -> np.ndarray:
    """Cost of each (h, w) difference array of an (N, h, w) batch."""
    return satd_batch(diffs) if metric == "satd" else np.abs(diffs).sum(axis=(1, 2))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), metric=st.sampled_from(METRICS), shape=_KERNEL_SHAPES)
def test_batch_cost_and_its_lower_bound(data, metric, shape):
    h, w = shape
    diffs = data.draw(arrays(dtype=np.int64, shape=(3, h, w), elements=st.integers(-1023, 1023)))
    cost_of = satd if metric == "satd" else sad
    costs = _region_costs(diffs, metric)
    assert costs.tolist() == [cost_of(d) for d in diffs]

    pieces = bound_pieces(h, w, metric)
    cover = np.zeros(shape, dtype=np.int64)
    for x, y, pw, ph, _ in pieces:
        cover[y : y + ph, x : x + pw] += 1
    assert (cover == 1).all()  # the pieces tile the region once
    for d, cost in zip(diffs, costs):
        bound = sum(
            (abs(int(d[y : y + ph, x : x + pw].sum())) + ((1 << shift) >> 1)) >> shift
            for x, y, pw, ph, shift in pieces
        )
        assert bound <= cost


def test_batch_cost_rejects_unknown_metric():
    with pytest.raises(ValueError):
        layout_cost(np.zeros((1, 16), dtype=np.int64), strip_layout(((4, 4),)), "ssd")
    with pytest.raises(ValueError):
        bound_pieces(4, 4, "ssd")


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_empty_batches_cost_nothing(metric, dtype):
    layout = strip_layout(((4, 16), (12, 4)))
    empty = (
        layout_cost(np.zeros((0, len(layout.order)), dtype), layout, metric),
        layout_cost(np.zeros((0, 64), dtype), strip_layout(((8, 8),)), metric),
        layout_cost(np.zeros((0, 72), dtype), strip_layout(((6, 12),)), metric),
        satd_batch(np.zeros((0, 8, 8), dtype)),
    )
    for got in empty:
        assert got.dtype == np.int64 and got.shape == (0,)


# --- the strip layout against the per-strip kernel ------------------------


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    t=st.sampled_from([1, 2, 4, 6]),
    size=st.sampled_from([4, 8, 16, 32, 64]),
    clip=st.tuples(st.integers(0, 63), st.integers(0, 63)),
    depths=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    metric=st.sampled_from(METRICS),
    bit_depth=st.sampled_from([8, 10]),
    extremes=st.booleans(),
    n=st.integers(1, 4),
)
def test_layout_cost_equals_per_strip_kernel(seed, t, size, clip, depths, metric, bit_depth, extremes, n):
    # The strips of a w x h block of a size-grid partition, clipped by the
    # frame edge: ah rows above and lw columns left, 0 where absent.
    w, h = max(1, size - clip[0] % size), max(1, size - clip[1] % size)
    ah, lw = min(depths[0], t), min(depths[1], t)
    shapes = tuple(shape for shape in ((ah, w + lw), (h, lw)) if shape[0] and shape[1])
    assume(shapes)
    rng = np.random.default_rng(seed)
    peak = (1 << bit_depth) - 1
    if extremes:
        strips = [rng.choice([-peak, peak], size=(n, sh, sw)) for sh, sw in shapes]
    else:
        strips = [rng.integers(-peak, peak + 1, size=(n, sh, sw)) for sh, sw in shapes]

    layout = strip_layout(shapes)
    stacked = np.concatenate([s.reshape(n, -1) for s in strips], axis=1)
    assert sorted(layout.order.tolist()) == list(range(stacked.shape[1]))
    got = layout_cost(stacked[:, layout.order], layout, metric)
    assert got.tolist() == sum(_region_costs(s, metric) for s in strips).tolist()
    oracle = satd_batch_int64 if metric == "satd" else (lambda d: np.abs(d).sum(axis=(1, 2)))
    assert got.tolist() == sum(oracle(s) for s in strips).tolist()



# --- coefficient planes against the int64 oracle, tile by tile ------------


@pytest.mark.parametrize("bit_depth", [8, 10])
def test_coefficient_planes_cost_every_tile_as_the_int64_oracle(bit_depth):
    rng = np.random.default_rng(bit_depth)
    peak = (1 << bit_depth) - 1
    h, w = 21, 26
    region = rng.integers(0, peak + 1, size=(h, w))
    # A saturated checkerboard beside its inverse: an odd move between
    # them differs by 16 * peak in a tile coefficient, the int16 extreme.
    checker = peak * (np.indices((8, 8)).sum(axis=0) % 2)
    region[:8, :8], region[:8, 8:16], region[8:16, :8] = checker, peak - checker, peak
    planes = hadamard_planes(region, bit_depth)
    assert planes.dtype == np.int16 and planes.shape == (16, h - 3, w - 3)
    assert np.abs(planes.astype(np.int64)[:, 0, 0] - planes[:, 0, 1]).max() == 16 * peak

    for tile in (4, 8):
        _, subs = tile_origins(tile, tile, "satd")  # one tile's sub-tile origins
        ys, xs = (part.ravel() for part in np.mgrid[: h - tile + 1, : w - tile + 1])
        coeffs = planes[:, subs[0][..., None] + ys, subs[1][..., None] + xs]
        for oy, ox in [(0, 0), (0, 1), (8, 0), (4, 3), (h - tile, w - tile)]:
            own = planes[:, subs[0] + oy, subs[1] + ox]
            got = coefficient_cost(coeffs.copy(), own, tile)
            diffs = [region[y : y + tile, x : x + tile] - region[oy : oy + tile, ox : ox + tile] for y, x in zip(ys, xs)]
            assert got.dtype == np.int64
            assert got.tolist() == satd_batch_int64(np.array(diffs)).tolist()


def test_tile_origins_cover_the_satd_tiles():
    assert tile_origins(3, 12, "satd")[0] == 0 and tile_origins(12, 3, "satd")[1].size == 0
    assert tile_origins(8, 8, "sad")[0] == 0 and tile_origins(8, 8, "sad")[1].size == 0
    tile, origins = tile_origins(6, 13, "satd")  # one row of three 4x4 tiles, a SAD remainder
    assert tile == 4 and origins.tolist() == [[0, 0, 0], [0, 4, 8]]
    tile, origins = tile_origins(8, 16, "satd")
    assert tile == 8 and origins.tolist() == [[[0, 0], [0, 0], [4, 4], [4, 4]], [[0, 8], [4, 12], [0, 8], [4, 12]]]


def test_coefficient_planes_reject_more_than_10_bits():
    with pytest.raises(ValueError):
        hadamard_planes(np.zeros((4, 4), dtype=np.int32), 12)
