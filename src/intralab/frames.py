"""Frame loading from raw video and PGM still images, and a raw video writer.

Two input formats are supported:

* ``yuv-planar`` -- raw planar YUV 4:2:0, 8-bit (one byte per sample) or
  10-bit (two bytes per sample, little-endian).  Only the luma plane is
  read; chroma planes are skipped when seeking between frames.
* ``pgm`` -- binary PGM (P5).  maxval > 255 means two bytes per sample,
  most significant byte first, as the format requires.

A PGM whose maxval needs more than the declared bit depth is rejected.
Loaded samples are always masked to the declared bit depth so malformed
high bytes cannot leak out-of-range values into the pipeline.  Both
loaders decode and mask through _decode, and _yuv_dtype is the one
yuv-planar sample type, read by the loader and by write_yuv420.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, TruncatedInputError, ValidationError

FORMATS = ("yuv-planar", "pgm")
BIT_DEPTHS = (8, 10)
# Longest PGM header token read: far above any real width, height or maxval.
_PGM_TOKEN_MAX = 32


@dataclass
class Frame:
    """A single luma plane.

    samples is a row-major (height, width) uint16 array, already masked
    to bit_depth; width and height read its shape.
    """

    bit_depth: int
    samples: np.ndarray = field(repr=False)

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    @property
    def height(self) -> int:
        return self.samples.shape[0]


def _validate_geometry(width: int, height: int, bit_depth: int) -> None:
    if width <= 0 or height <= 0:
        raise ValidationError(f"frame dimensions must be positive, got {width}x{height}")
    if bit_depth not in BIT_DEPTHS:
        raise ValidationError(f"bit_depth must be one of {BIT_DEPTHS}, got {bit_depth}")


def load_frame(
    path: str,
    fmt: str,
    width: int,
    height: int,
    bit_depth: int = 8,
    frame_index: int = 0,
) -> Frame:
    """Load one luma frame from path.

    frame_index selects a frame within a yuv-planar sequence; for pgm it
    must be 0 (a PGM file holds a single image).
    """
    _validate_geometry(width, height, bit_depth)
    if frame_index < 0:
        raise ValidationError(f"frame_index must be >= 0, got {frame_index}")
    if fmt == "yuv-planar":
        return _load_yuv420(path, width, height, bit_depth, frame_index)
    if fmt == "pgm":
        if frame_index != 0:
            raise ValidationError("pgm holds a single image; frame_index must be 0")
        return _load_pgm(path, width, height, bit_depth)
    raise FormatError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def _load_yuv420(
    path: str, width: int, height: int, bit_depth: int, frame_index: int
) -> Frame:
    if width % 2 or height % 2:
        raise ValidationError(
            f"yuv-planar 4:2:0 requires even dimensions, got {width}x{height}"
        )
    dtype = _yuv_dtype(bit_depth)
    luma_bytes = width * height * dtype.itemsize
    offset = frame_index * (luma_bytes + luma_bytes // 2)  # two quarter-size chroma planes per frame
    try:
        with open(path, "rb") as fh:
            _require_bytes(fh, path, offset, luma_bytes)
            fh.seek(offset)
            raw = fh.read(luma_bytes)
    except OSError as exc:
        raise TruncatedInputError(f"cannot read {path}: {exc}") from exc
    return _decode(raw, dtype, width, height, bit_depth)


def _yuv_dtype(bit_depth: int) -> np.dtype:
    """Raw yuv-planar sample type: one byte at 8 bits, two little-endian bytes above."""
    return np.dtype("u1" if bit_depth == 8 else "<u2")


def _decode(raw: bytes, dtype: np.dtype, width: int, height: int, bit_depth: int) -> Frame:
    """Frame of raw samples of dtype, masked to bit_depth."""
    plane = np.frombuffer(raw, dtype=dtype).astype(np.uint16)
    plane &= (1 << bit_depth) - 1
    return Frame(bit_depth, plane.reshape(height, width))


def _require_bytes(fh: io.BufferedReader, path: str, offset: int, need: int) -> None:
    """Raise TruncatedInputError, before any seek or read, unless the file holds need bytes from offset."""
    size = os.fstat(fh.fileno()).st_size
    if offset + need > size:
        raise TruncatedInputError(f"{path}: needs {need} sample bytes at offset {offset}, has {size} bytes")


def _read_pgm_number(fh: io.BufferedReader) -> int:
    """Read one whitespace-delimited header number in ASCII decimal, skipping # comments."""
    token = b""
    while True:
        ch = fh.read(1)
        if ch == b"":
            raise TruncatedInputError("pgm header ends mid-token")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = fh.read(1)
            continue
        if ch.isspace():
            if not token:
                continue
            if not token.isdigit():  # int() would also take a sign or underscores
                raise FormatError(f"pgm header token {token!r} is not a decimal number")
            return int(token)
        if len(token) == _PGM_TOKEN_MAX:
            raise FormatError(f"pgm header token longer than {_PGM_TOKEN_MAX} bytes")
        token += ch


def _load_pgm(path: str, width: int, height: int, bit_depth: int) -> Frame:
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise TruncatedInputError(f"cannot read {path}: {exc}") from exc
    with fh:
        magic = fh.read(2)
        if magic != b"P5":
            raise FormatError(f"{path}: not a binary PGM (magic {magic!r})")
        w, h, maxval = (_read_pgm_number(fh) for _ in range(3))
        if maxval <= 0 or maxval >= 65536:
            raise FormatError(f"{path}: pgm maxval {maxval} out of range")
        if (w, h) != (width, height):
            raise ValidationError(
                f"{path}: pgm is {w}x{h}, expected {width}x{height}"
            )
        if maxval >= 1 << bit_depth:
            raise ValidationError(f"{path}: pgm maxval {maxval} exceeds {bit_depth}-bit samples")
        # PGM stores two-byte samples most significant byte first.
        dtype = np.dtype("u1" if maxval < 256 else ">u2")
        need = w * h * dtype.itemsize
        _require_bytes(fh, path, fh.tell(), need)
        return _decode(fh.read(need), dtype, width, height, bit_depth)


def write_yuv420(frames: list[np.ndarray], path: str, bit_depth: int = 8) -> None:
    """Write luma planes as raw 4:2:0 with mid-gray chroma (fixture helper)."""
    dtype = _yuv_dtype(bit_depth)
    with open(path, "wb") as fh:
        for plane in frames:
            h, w = plane.shape
            fh.write(plane.astype(dtype).tobytes())
            fh.write(np.full((2, h // 2, w // 2), 1 << (bit_depth - 1), dtype=dtype).tobytes())
