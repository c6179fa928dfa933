import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intralab.errors import FormatError, TruncatedInputError, ValidationError
from intralab.frames import Frame, load_frame, write_yuv420

from conftest import write_pgm


def _plane(rng, w, h, bit_depth):
    return rng.integers(0, 1 << bit_depth, size=(h, w), dtype=np.uint16)


def test_yuv_roundtrip_8bit_multiframe(rng, tmp_path):
    planes = [_plane(rng, 16, 12, 8) for _ in range(3)]
    path = str(tmp_path / "seq.yuv")
    write_yuv420(planes, path)
    for i, plane in enumerate(planes):
        frame = load_frame(path, "yuv-planar", 16, 12, frame_index=i)
        assert frame.bit_depth == 8
        np.testing.assert_array_equal(frame.samples, plane)


def test_yuv_roundtrip_10bit(rng, tmp_path):
    plane = _plane(rng, 8, 6, 10)
    path = str(tmp_path / "seq10.yuv")
    write_yuv420([plane], path, bit_depth=10)
    frame = load_frame(path, "yuv-planar", 8, 6, bit_depth=10)
    np.testing.assert_array_equal(frame.samples, plane)


def test_yuv_masks_overrange_10bit(tmp_path):
    plane = np.full((4, 4), 0xFFFF, dtype=np.uint16)
    path = str(tmp_path / "hot.yuv")
    write_yuv420([plane], path, bit_depth=10)
    frame = load_frame(path, "yuv-planar", 4, 4, bit_depth=10)
    assert frame.samples.max() == 1023


def test_yuv_frame_index_past_end(rng, tmp_path):
    path = str(tmp_path / "one.yuv")
    write_yuv420([_plane(rng, 8, 8, 8)], path)
    with pytest.raises(TruncatedInputError):
        load_frame(path, "yuv-planar", 8, 8, frame_index=1)


def test_yuv_truncated_luma(tmp_path):
    path = str(tmp_path / "short.yuv")
    with open(path, "wb") as fh:
        fh.write(b"\x00" * 10)
    with pytest.raises(TruncatedInputError):
        load_frame(path, "yuv-planar", 8, 8)


def test_yuv_odd_dimensions_rejected(tmp_path):
    with pytest.raises(ValidationError):
        load_frame(str(tmp_path / "x.yuv"), "yuv-planar", 7, 8)


def test_missing_file(tmp_path):
    with pytest.raises(TruncatedInputError):
        load_frame(str(tmp_path / "absent.yuv"), "yuv-planar", 8, 8)


def test_unknown_format(tmp_path):
    with pytest.raises(FormatError):
        load_frame(str(tmp_path / "x.bin"), "y4m", 8, 8)


def test_pgm_roundtrip_8bit(rng, tmp_path):
    frame = Frame(8, _plane(rng, 10, 7, 8))
    path = str(tmp_path / "img.pgm")
    write_pgm(frame, path)
    back = load_frame(path, "pgm", 10, 7)
    np.testing.assert_array_equal(back.samples, frame.samples)


def test_pgm_roundtrip_10bit_big_endian(rng, tmp_path):
    frame = Frame(10, _plane(rng, 6, 5, 10))
    path = str(tmp_path / "img10.pgm")
    write_pgm(frame, path)
    with open(path, "rb") as fh:
        raw = fh.read()
    # two bytes per sample, most significant first
    body = raw.split(b"1023\n", 1)[1]
    first = frame.samples[0, 0]
    assert body[0] == first >> 8 and body[1] == first & 0xFF
    back = load_frame(path, "pgm", 6, 5, bit_depth=10)
    np.testing.assert_array_equal(back.samples, frame.samples)


def test_pgm_header_comments(tmp_path):
    path = str(tmp_path / "c.pgm")
    with open(path, "wb") as fh:
        fh.write(b"P5\n# a comment\n4 # inline\n2\n255\n" + bytes(range(8)))
    frame = load_frame(path, "pgm", 4, 2)
    np.testing.assert_array_equal(frame.samples, np.arange(8).reshape(2, 4))


def test_pgm_bad_magic(tmp_path):
    path = str(tmp_path / "p2.pgm")
    with open(path, "wb") as fh:
        fh.write(b"P2\n4 2\n255\n")
    with pytest.raises(FormatError):
        load_frame(path, "pgm", 4, 2)


@pytest.mark.parametrize("header", [b"P5\n+4 4\n255\n", b"P5\n4 4\n2_55\n", b"P5\n4 -4\n255\n"])
def test_pgm_header_numbers_must_be_ascii_decimal(tmp_path, header):
    # int() alone reads "+4" as 4 and "2_55" as 255.
    path = str(tmp_path / "signed.pgm")
    with open(path, "wb") as fh:
        fh.write(header + bytes(16))
    with pytest.raises(FormatError, match="not a decimal number"):
        load_frame(path, "pgm", 4, 4)


def test_pgm_dimension_mismatch(rng, tmp_path):
    path = str(tmp_path / "img.pgm")
    write_pgm(Frame(8, _plane(rng, 10, 7, 8)), path)
    with pytest.raises(ValidationError):
        load_frame(path, "pgm", 7, 10)


def test_pgm_maxval_beyond_bit_depth_is_rejected(tmp_path):
    # 256 and 1023 would wrap to 0 and 255 if masked to 8 bits.
    path = str(tmp_path / "deep.pgm")
    with open(path, "wb") as fh:
        fh.write(b"P5\n4 1\n1023\n" + np.array([0, 255, 256, 1023], dtype=">u2").tobytes())
    with pytest.raises(ValidationError, match="maxval 1023"):
        load_frame(path, "pgm", 4, 1, bit_depth=8)
    np.testing.assert_array_equal(load_frame(path, "pgm", 4, 1, bit_depth=10).samples, [[0, 255, 256, 1023]])


def test_pgm_truncated_body(tmp_path):
    path = str(tmp_path / "t.pgm")
    with open(path, "wb") as fh:
        fh.write(b"P5\n4 4\n255\n" + b"\x00" * 5)
    with pytest.raises(TruncatedInputError):
        load_frame(path, "pgm", 4, 4)


def test_pgm_rejects_frame_index(rng, tmp_path):
    path = str(tmp_path / "img.pgm")
    write_pgm(Frame(8, _plane(rng, 4, 4, 8)), path)
    with pytest.raises(ValidationError):
        load_frame(path, "pgm", 4, 4, frame_index=1)


def test_bad_geometry_rejected(tmp_path):
    with pytest.raises(ValidationError):
        load_frame(str(tmp_path / "x.yuv"), "yuv-planar", 0, 8)
    with pytest.raises(ValidationError):
        load_frame(str(tmp_path / "x.yuv"), "yuv-planar", 8, 8, bit_depth=12)
    with pytest.raises(ValidationError):
        load_frame(str(tmp_path / "x.yuv"), "yuv-planar", 8, 8, frame_index=-1)


@settings(max_examples=25, deadline=None)
@given(
    w=st.integers(1, 24),
    h=st.integers(1, 24),
    depth=st.sampled_from([8, 10]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pgm_roundtrip_property(w, h, depth, seed, tmp_path_factory):
    rng = np.random.default_rng(seed)
    samples = rng.integers(0, 1 << depth, size=(h, w), dtype=np.uint16)
    path = str(tmp_path_factory.mktemp("pgm") / "x.pgm")
    write_pgm(Frame(depth, samples), path)
    back = load_frame(path, "pgm", w, h, bit_depth=depth)
    np.testing.assert_array_equal(back.samples, samples)


@pytest.mark.parametrize(
    "width, height, frame_index",
    [(10**20, 8, 0), (8, 8, 10**20), (10**6, 10**6, 0), (2**40, 2**40, 2**40)],
)
def test_yuv_geometry_beyond_file_is_truncated(rng, tmp_path, width, height, frame_index):
    path = str(tmp_path / "one.yuv")
    write_yuv420([_plane(rng, 8, 8, 8)], path)
    with pytest.raises(TruncatedInputError):
        load_frame(path, "yuv-planar", width, height, frame_index=frame_index)


@pytest.mark.parametrize("width, height, maxval", [(10**6, 10**6, 255), (10**20, 3, 1023)])
def test_pgm_header_geometry_beyond_file_is_truncated(tmp_path, width, height, maxval):
    path = str(tmp_path / "huge.pgm")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n{maxval}\n".encode("ascii") + b"\x00" * 16)
    with pytest.raises(TruncatedInputError):
        load_frame(path, "pgm", width, height, bit_depth=10)
