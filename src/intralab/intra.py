"""Conventional 67-mode luma intra prediction.

Mode 0 is Planar, mode 1 is DC, modes 2..66 are angular with the
standard displacement table (mode 18 pure horizontal, mode 50 pure
vertical, mode 34 the top-left diagonal).  Angular prediction projects
each output sample onto the reference line at 1/32-sample precision and
applies a 2-tap linear interpolation; negative-angle modes extend the
main reference from the side reference the usual way.

All angular samples are gathered from one reference line,
above ‖ corner ‖ left: sample p of mode m is
((32 - w1) * line[i0] + w1 * line[i1] + 16) >> 5 with taps (i0, i1, w1)
that depend on the block shape alone.  _angular_taps holds the angle
math; the tap tables of all 65 modes are built on first use per block
shape (and, for template costing, per template geometry), kept in
small-dtype arrays and cached in bounded LRU caches.  predict_angular
gathers one mode over a block; predict_template gathers every mode over
the template samples of a template-extended block only, in raster order
or in the strips' cost layout (cost.strip_layout).

Reference samples come from the causal reconstruction buffer.
Unavailable positions are padded by replicating the nearest available
sample along the reference border; a fully unavailable border pads to
mid-gray, 1 << (bit_depth - 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cost import strip_layout
from .grid import ReconBuffer

MODE_PLANAR = 0
MODE_DC = 1
MODE_HOR = 18
MODE_DIAG = 34
MODE_VER = 50
ANGULAR_MODES = tuple(range(2, 67))
ALL_MODES = (MODE_PLANAR, MODE_DC) + ANGULAR_MODES

# Displacement per row step, in 1/32 sample units, for modes 2..66.
INTRA_PRED_ANGLE = (
    32, 29, 26, 23, 20, 18, 16, 14, 12, 10, 8, 6, 4, 3, 2, 1, 0,
    -1, -2, -3, -4, -6, -8, -10, -12, -14, -16, -18, -20, -23, -26, -29,
    -32,
    -29, -26, -23, -20, -18, -16, -14, -12, -10, -8, -6, -4, -3, -2, -1,
    0, 1, 2, 3, 4, 6, 8, 10, 12, 14, 16, 18, 20, 23, 26, 29, 32,
)

assert len(INTRA_PRED_ANGLE) == 65
assert INTRA_PRED_ANGLE[MODE_HOR - 2] == 0
assert INTRA_PRED_ANGLE[MODE_DIAG - 2] == -32
assert INTRA_PRED_ANGLE[MODE_VER - 2] == 0


def angle_of(mode: int) -> int:
    if not 2 <= mode <= 66:
        raise ValueError(f"mode {mode} is not angular")
    return INTRA_PRED_ANGLE[mode - 2]


def is_vertical(mode: int) -> bool:
    """Vertical-set modes read the above row as their main reference."""
    return mode >= 34


def mode_direction(mode: int) -> tuple[int, int]:
    """Prediction direction (dx, dy) in 1/32 units, y pointing down.

    A sample is predicted from the reference lying along this vector,
    e.g. mode 50 -> (0, -32) (straight up), mode 18 -> (-32, 0).
    """
    a = angle_of(mode)
    if is_vertical(mode):
        return (a, -32)
    return (-32, a)


@dataclass
class RefSamples:
    """Padded reference border of one block.

    above holds 2w + 1 samples starting at the top-left corner; left
    holds the 2h samples down the left edge (corner excluded).  The
    *_available masks record which positions held committed samples
    before padding.
    """

    above: np.ndarray
    left: np.ndarray
    above_available: np.ndarray
    left_available: np.ndarray


def _forward_fill(values: np.ndarray, available: np.ndarray, default: int) -> np.ndarray:
    if not available.any():
        return np.full_like(values, default)
    pos = np.where(available, np.arange(len(values)), -1)
    np.maximum.accumulate(pos, out=pos)
    first = int(np.argmax(available))
    pos[pos < 0] = first
    return values[pos]


def _note_runs(buf: ReconBuffer, xs: np.ndarray, ys: np.ndarray, taken: np.ndarray) -> None:
    """Report each contiguous run of actually-read border samples."""
    if buf.read_hook is None or not taken.any():
        return
    idx = np.flatnonzero(taken)
    splits = np.flatnonzero(np.diff(idx) > 1) + 1
    for run in np.split(idx, splits):
        x0, y0 = int(xs[run[0]]), int(ys[run[0]])
        x1, y1 = int(xs[run[-1]]), int(ys[run[-1]])
        buf.note_read(x0, y0, x1 - x0 + 1, y1 - y0 + 1)


def build_reference_samples(buf: ReconBuffer, x0: int, y0: int, w: int, h: int) -> RefSamples:
    """Gather and pad the reference border of the block at (x0, y0)."""
    default = 1 << (buf.bit_depth - 1)

    ax = np.arange(x0 - 1, x0 + 2 * w)
    above_avail = np.zeros(2 * w + 1, dtype=bool)
    above_vals = np.zeros(2 * w + 1, dtype=np.int64)
    if y0 - 1 >= 0:
        inside = (ax >= 0) & (ax < buf.width)
        cols = ax[inside]
        above_avail[inside] = buf.available[y0 - 1, cols]
        got = np.zeros(2 * w + 1, dtype=np.int64)
        got[inside] = buf.samples[y0 - 1, cols]
        above_vals = np.where(above_avail, got, 0)
        _note_runs(buf, ax, np.full_like(ax, y0 - 1), above_avail)

    ly = np.arange(y0, y0 + 2 * h)
    left_avail = np.zeros(2 * h, dtype=bool)
    left_vals = np.zeros(2 * h, dtype=np.int64)
    if x0 - 1 >= 0:
        inside = (ly >= 0) & (ly < buf.height)
        rows = ly[inside]
        left_avail[inside] = buf.available[rows, x0 - 1]
        got = np.zeros(2 * h, dtype=np.int64)
        got[inside] = buf.samples[rows, x0 - 1]
        left_vals = np.where(left_avail, got, 0)
        _note_runs(buf, np.full_like(ly, x0 - 1), ly, left_avail)

    # Pad along the border in one sweep: bottom of the left column up to
    # the corner, then across the above row.
    scan_vals = np.concatenate([left_vals[::-1], above_vals])
    scan_avail = np.concatenate([left_avail[::-1], above_avail])
    filled = _forward_fill(scan_vals, scan_avail, default)
    left_filled = filled[: 2 * h][::-1].copy()
    above_filled = filled[2 * h :]
    return RefSamples(above_filled, left_filled, above_avail, left_avail)


def _invert_angle(angle: int) -> int:
    return round(512 * 32 / abs(angle))


def _angular_taps(
    n_main: int, n_side: int, n_scan: int, n_base: int, angle: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Taps (i0, i1, w1) of an (n_scan, n_base) prediction over main ‖ side.

    main[0] is the corner and main runs along the main reference line;
    reads past its end clip to its last sample.  side mirrors it along
    the other border (side[0] is the corner too) and feeds the
    negative-index extension for angles below zero.  Sample (s, b) is
    ((32 - w1[s]) * cat[i0[s, b]] + w1[s] * cat[i1[s, b]] + 16) >> 5 with
    cat = main ‖ side.
    """
    proj = np.arange(1, n_scan + 1, dtype=np.int64) * angle
    pos = np.arange(n_base, dtype=np.int64)[None, :] + (proj >> 5)[:, None] + 1

    def index(p: np.ndarray) -> np.ndarray:
        out = np.minimum(p, n_main - 1)
        if angle < 0:
            j = np.minimum((-p * _invert_angle(angle) + 256) >> 9, n_side - 1)
            out = np.where(p < 0, n_main + j, out)
        return out

    return index(pos), index(pos + 1), proj & 31


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Read-only arrays, safe to hand out from a cache."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=64)
def _block_taps(w: int, h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Taps of all 65 angular modes over a (h, w) block, each (65, h, w).

    Indices point into the reference line above ‖ corner ‖ left.
    Horizontal-set modes predict the transposed block with main =
    corner ‖ left, so their indices rotate by len(above) onto that line.
    """
    n_above, n_left = 2 * w + 1, 2 * h + 1
    itype = np.min_scalar_type(n_above + n_left)
    i0 = np.empty((len(ANGULAR_MODES), h, w), dtype=itype)
    i1 = np.empty_like(i0)
    w1 = np.empty(i0.shape, dtype=np.uint8)
    for k, mode in enumerate(ANGULAR_MODES):
        if is_vertical(mode):
            a0, a1, frac = _angular_taps(n_above, n_left, h, w, angle_of(mode))
            i0[k], i1[k], w1[k] = a0, a1, frac[:, None]
        else:
            a0, a1, frac = _angular_taps(n_left, n_above, w, h, angle_of(mode))
            i0[k] = ((a0 + n_above) % (n_above + n_left)).T
            i1[k] = ((a1 + n_above) % (n_above + n_left)).T
            w1[k] = frac[None, :]
    return _frozen(i0, i1, w1)


def template_shapes(we: int, ah: int, lw: int, h: int) -> tuple[tuple[int, int], ...]:
    """(h, w) of the template strips that are present: above (ah x we), then left (h x lw)."""
    return tuple(shape for shape in ((ah, we), (h, lw)) if shape[0] and shape[1])


@lru_cache(maxsize=64)
def _template_taps(
    we: int, he: int, ah: int, lw: int, h: int, tiled: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Template positions and taps of a (he, we) template-extended block.

    keep holds the raster indices of the template samples, in raster
    order or, when tiled, in the order of the strips' cost layout; i0,
    i1 and w1 are _block_taps(we, he) at those positions, each
    (65, len(keep)).
    """
    mask = np.zeros((he, we), dtype=bool)
    mask[:ah] = True
    mask[ah : ah + h, :lw] = True
    keep = np.flatnonzero(mask)
    if tiled:
        keep = keep[strip_layout(template_shapes(we, ah, lw, h)).order]
    n = len(ANGULAR_MODES)
    return _frozen(keep, *(t.reshape(n, -1)[:, keep] for t in _block_taps(we, he)))


def _reference_line(refs: RefSamples) -> np.ndarray:
    return np.concatenate([refs.above, refs.above[:1], refs.left]).astype(np.int64, copy=False)


def _interpolate(line: np.ndarray, i0: np.ndarray, i1: np.ndarray, w1: np.ndarray) -> np.ndarray:
    v0 = line[i0]
    return ((v0 << 5) + w1 * (line[i1] - v0) + 16) >> 5


def predict_angular(refs: RefSamples, mode: int, w: int, h: int) -> np.ndarray:
    """Angular prediction of a (h, w) block from padded references."""
    angle_of(mode)  # rejects non-angular modes
    k = mode - ANGULAR_MODES[0]
    i0, i1, w1 = _block_taps(w, h)
    return _interpolate(_reference_line(refs), i0[k], i1[k], w1[k])


def predict_dc(refs: RefSamples, w: int, h: int) -> np.ndarray:
    """Constant block at the rounded mean of w above + h left references."""
    total = int(refs.above[1 : w + 1].sum()) + int(refs.left[:h].sum())
    count = w + h
    val = (total + count // 2) // count
    return np.full((h, w), val, dtype=np.int64)


def predict_planar(refs: RefSamples, w: int, h: int) -> np.ndarray:
    """Planar prediction: mean of the two linear interpolations."""
    top = refs.above[1 : w + 2].astype(np.int64)
    left = refs.left[: h + 1].astype(np.int64)
    y = np.arange(h, dtype=np.int64)[:, None]
    x = np.arange(w, dtype=np.int64)[None, :]
    pred_v = (h - 1 - y) * top[None, :w] + (y + 1) * left[h]
    pred_h = (w - 1 - x) * left[:h, None] + (x + 1) * top[w]
    num = pred_v * w + pred_h * h
    return (num + w * h) // (2 * w * h)


def predict_mode(refs: RefSamples, mode: int, w: int, h: int) -> np.ndarray:
    if mode == MODE_PLANAR:
        return predict_planar(refs, w, h)
    if mode == MODE_DC:
        return predict_dc(refs, w, h)
    return predict_angular(refs, mode, w, h)


def predict_template(
    refs: RefSamples, we: int, he: int, ah: int, lw: int, h: int, tiled: bool = False
) -> np.ndarray:
    """Template samples of every mode, one row per mode in ALL_MODES order.

    refs belong to the (he, we) template-extended block.  Each row holds
    that block's prediction at its template positions only, in raster
    order: the ah rows above the block (all we columns), then the lw
    columns left of it over its h rows.  With tiled, the row is permuted
    into the cost layout of those strips,
    strip_layout(template_shapes(we, ah, lw, h)), ready for layout_cost.
    Row m equals predict_mode(refs, ALL_MODES[m], we, he) at those
    positions; since ALL_MODES[m] == m, row m is mode m.
    """
    keep, i0, i1, w1 = _template_taps(we, he, ah, lw, h, tiled)
    out = np.empty((len(ALL_MODES), len(keep)), dtype=np.int64)
    out[MODE_PLANAR] = predict_planar(refs, we, he).ravel()[keep]
    out[MODE_DC] = predict_dc(refs, we, he).ravel()[keep]
    out[ANGULAR_MODES[0] :] = _interpolate(_reference_line(refs), i0, i1, w1)
    return out
