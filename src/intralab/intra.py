"""Conventional 67-mode luma intra prediction.

Mode 0 is Planar, mode 1 is DC, modes 2..66 are angular with the
standard displacement table (mode 18 pure horizontal, mode 50 pure
vertical, mode 34 the top-left diagonal).  Angular prediction projects
each output sample onto the reference line at 1/32-sample precision and
applies a 2-tap linear interpolation; negative-angle modes extend the
main reference from the side reference the usual way.

Every mode reads one reference line, above ‖ corner ‖ left (the
output of build_reference_samples): angular sample p of mode m is
((32 - w1) * line[i0] + w1 * line[i1] + 16) >> 5 with taps (i0, i1, w1)
that depend on the block shape alone, and _angular_taps holds the angle
math.  One bounded LRU cache, _template_taps(we, he, strips), holds the
tables, each built on first use and never at import: for the samples
of a (he, we) block under its template strips (rectangles relative to
that block), in the order of cost.strip_offsets(strips, we), the Planar
terms (four line indices and coefficients per sample) and the distinct
angular taps with the index that spreads them over 65 rows.
predict_template interpolates each distinct tap once (2,146 taps for
the 9,360 angular samples of a 16x16 block with t = 4) and spreads them
with one take; predict_mode reads one row of the table of the whole
block as its own one-strip template.

Filled with whole blocks up to 64x64 (2.6 MiB each at most) or
templates up to 8 deep (tmp.TEMPLATES), the cache holds at most 32 MiB;
TEMPLATE_TAPS_ENTRIES is chosen for that.

Samples lie below 2^bit_depth <= 2^10.  predict_template runs in
int32 and predict_mode in the line's own dtype (int64 from
build_reference_samples); neither can overflow int32: an interpolation
sum peaks at 32 * 1023 + 16, and the rounded Planar numerator of an
(h, w) block (its coefficients sum to 2 * w * h) at
2 * w * h * 1023 + w * h, below 2^31 up to 1024x1024 blocks, and at
most 10,611,648 for the largest block the tap cache is sized for, a
64x64 block extended by an 8-deep template to 72x72.

Reference samples come from the causal reconstruction buffer.  The
border is scanned from the bottom of the left column up to the corner
and then along the above row.  By grid's staircase invariant its
committed samples form one run of that scan: the above row's committed
prefix, and the top rows of the left column whose committed prefix
reaches it.  Positions before the run take its first sample, positions
after it its last, and a border with no committed sample pads to
mid-gray, 1 << (bit_depth - 1).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .cost import Rect, strip_offsets
from .grid import ReconBuffer

MODE_PLANAR = 0
MODE_DC = 1
MODE_HOR = 18
MODE_DIAG = 34
MODE_VER = 50
ANGULAR_MODES = tuple(range(2, 67))
ALL_MODES = (MODE_PLANAR, MODE_DC) + ANGULAR_MODES

# Entries of the tap cache, sized to the byte budget in the docstring.
TEMPLATE_TAPS_ENTRIES = 12

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


def build_reference_samples(buf: ReconBuffer, x0: int, y0: int, w: int, h: int) -> np.ndarray:
    """Padded reference line of the block at (x0, y0): above ‖ corner ‖ left, int64.

    above holds the 2w + 1 samples from the top-left corner along the
    row above, left the 2h samples down the left column (corner
    excluded).  The border is read into one buffer in padding scan
    order (the left column bottom-up, then the corner and the above
    row), where its committed samples form one run (see the module
    docstring), so padding extends the run's end samples outward.
    """
    n_left = 2 * h
    scan = np.full(n_left + 2 * w + 1, 1 << (buf.bit_depth - 1), dtype=np.int64)
    start, stop = len(scan), 0  # the committed run, scan[start:stop]
    if y0 >= 1:
        a, b = max(x0 - 1, 0), min(x0 + 2 * w, int(buf.extent[y0 - 1]))
        if a < b:
            buf.note_read(a, y0 - 1, b - a, 1)
            start = n_left + a - (x0 - 1)
            stop = start + b - a
            scan[start:stop] = buf.samples[y0 - 1, a:b]
    if x0 >= 1:
        n = int(np.count_nonzero(buf.extent[y0 : y0 + n_left] >= x0))
        if n:
            buf.note_read(x0 - 1, y0, 1, n)
            # Left sample y lands at scan position n_left - 1 - (y - y0).
            scan[n_left - n : n_left] = buf.samples[y0 : y0 + n, x0 - 1][::-1]
            # Row y0's prefix reaches x0, so the corner above it is committed
            # and an above run, if any, continues this one.
            start, stop = n_left - n, max(stop, n_left)
    if start < stop:
        scan[:start] = scan[start]
        scan[stop:] = scan[stop - 1]
    return np.concatenate((scan[n_left:], scan[n_left : n_left + 1], scan[n_left - 1 :: -1]))


def _invert_angle(angle: int) -> int:
    return round(512 * 32 / abs(angle))


def _angular_taps(
    n_main: int, n_side: int, s: np.ndarray, b: np.ndarray, angle: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Taps (i0, i1, w1) at scan rows s and base columns b of a prediction over main ‖ side.

    main[0] is the corner and main runs along the main reference line;
    reads past its end clip to its last sample.  side mirrors it along
    the other border (side[0] is the corner too) and feeds the
    negative-index extension for angles below zero.  Sample (s, b) is
    ((32 - w1) * cat[i0] + w1 * cat[i1] + 16) >> 5 with cat = main ‖ side;
    s and b broadcast against each other.
    """
    proj = (s + 1) * angle
    pos = b + (proj >> 5) + 1

    def index(p: np.ndarray) -> np.ndarray:
        out = np.minimum(p, n_main - 1)
        if angle < 0:
            j = np.minimum((-p * _invert_angle(angle) + 256) >> 9, n_side - 1)
            out = np.where(p < 0, n_main + j, out)
        return out

    return index(pos), index(pos + 1), proj & 31


def _mode_taps(ys: np.ndarray, xs: np.ndarray, w: int, h: int) -> np.ndarray:
    """Taps (i0, i1, w1) of all 65 angular modes at positions (ys, xs) of an (h, w) block.

    Returns one (3, 65, *shape) array; indices point into the reference
    line above ‖ corner ‖ left.  Horizontal-set modes predict the
    transposed block with main = corner ‖ left, so their scan runs along
    x and their indices rotate by len(above) onto that line.
    """
    n_above, n_left = 2 * w + 1, 2 * h + 1
    ys, xs = np.broadcast_arrays(np.asarray(ys, dtype=np.int64), np.asarray(xs, dtype=np.int64))
    taps = np.empty((3, len(ANGULAR_MODES)) + ys.shape, dtype=np.int64)
    for k, mode in enumerate(ANGULAR_MODES):
        if is_vertical(mode):
            taps[:, k] = _angular_taps(n_above, n_left, ys, xs, angle_of(mode))
        else:
            a0, a1, frac = _angular_taps(n_left, n_above, xs, ys, angle_of(mode))
            taps[:, k] = ((a0 + n_above) % (n_above + n_left), (a1 + n_above) % (n_above + n_left), frac)
    return taps


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Read-only arrays, safe to hand out from a cache."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


class TemplateTaps(NamedTuple):
    """Everything predict_template and predict_mode read for one template geometry.

    Planar sample j is (sum_k planar_coef[k, j] * line[planar_idx[k, j]]
    + we * he) // (2 * we * he).  The angular samples are the distinct
    taps (i0[u], i1[u], w1[u]) interpolated once each; sample j of
    angular mode k is distinct tap spread[k, j].
    """

    planar_idx: np.ndarray
    planar_coef: np.ndarray
    i0: np.ndarray
    i1: np.ndarray
    w1: np.ndarray
    spread: np.ndarray


@lru_cache(maxsize=TEMPLATE_TAPS_ENTRIES)
def _template_taps(we: int, he: int, strips: tuple[Rect, ...]) -> TemplateTaps:
    """Tables of the samples under strips, rectangles of a (he, we) block.

    The samples run in the strips' cost layout.  A tap whose weight w1
    is 0 reads i0 alone, so its i1 is set to i0 before the taps are made
    distinct.
    """
    ys, xs = np.divmod(strip_offsets(strips, we)[1], we)
    # Line offsets of top[x], left[he], left[y] and top[we] (top = above[1:], left after the corner).
    left0 = 2 * we + 2
    planar_idx = np.stack([1 + xs, np.full_like(xs, left0 + he), left0 + ys, np.full_like(xs, 1 + we)])
    planar_coef = np.stack([(he - 1 - ys) * we, (ys + 1) * we, (we - 1 - xs) * he, (xs + 1) * he])
    i0, i1, w1 = _mode_taps(ys, xs, we, he)
    i1 = np.where(w1 == 0, i0, i1)
    n_line = 2 * we + 2 * he + 2
    distinct, spread = np.unique((i0 * n_line + i1) * 32 + w1, return_inverse=True)
    d0, rest = np.divmod(distinct, n_line * 32)
    d1, dw = np.divmod(rest, 32)
    return TemplateTaps(*_frozen(
        planar_idx.astype(np.intp), planar_coef.astype(np.int32), d0.astype(np.intp), d1.astype(np.intp),
        dw.astype(np.int32), spread.reshape(i0.shape).astype(np.intp),
    ))


def _interpolate(line: np.ndarray, i0: np.ndarray, i1: np.ndarray, w1: np.ndarray) -> np.ndarray:
    """((32 - w1) * line[i0] + w1 * line[i1] + 16) >> 5, in place on the two gathers."""
    v0 = line[i0]
    v1 = line[i1]
    v1 -= v0
    v1 *= w1
    v0 <<= 5
    v0 += v1
    v0 += 16
    v0 >>= 5
    return v0


def _dc_value(line: np.ndarray, w: int, h: int) -> int:
    """Rounded mean of the w above and h left references of an (h, w) block."""
    total = int(line[1 : w + 1].sum()) + int(line[2 * w + 2 : 2 * w + 2 + h].sum())
    return (total + (w + h) // 2) // (w + h)


def _planar(line: np.ndarray, taps: TemplateTaps, we: int, he: int, out: np.ndarray | None = None) -> np.ndarray:
    """Planar samples of a (he, we) block at a table's positions: the mean of two linear interpolations."""
    out = np.sum(taps.planar_coef * line[taps.planar_idx], axis=0, out=out)
    out += we * he
    out //= 2 * we * he
    return out


def predict_mode(line: np.ndarray, mode: int, w: int, h: int) -> np.ndarray:
    """Prediction of one mode over an (h, w) block from its reference line."""
    if mode == MODE_DC:
        return np.full((h, w), _dc_value(line, w, h), dtype=np.int64)
    block = ((0, 0, w, h),)
    taps = _template_taps(w, h, block)
    if mode == MODE_PLANAR:
        row = _planar(line, taps, w, h)
    else:
        angle_of(mode)  # rejects modes outside ALL_MODES
        u = taps.spread[mode - ANGULAR_MODES[0]]
        row = _interpolate(line, taps.i0[u], taps.i1[u], taps.w1[u])
    out = np.empty(w * h, dtype=np.int64)
    out[strip_offsets(block, w)[1]] = row
    return out.reshape(h, w)


def predict_template(line: np.ndarray, we: int, he: int, strips: tuple[Rect, ...]) -> np.ndarray:
    """Template samples of every mode, one row per mode in ALL_MODES order.

    line belongs to the (he, we) template-extended block, and strips are
    the template's (x, y, w, h) rectangles relative to it.  Each row
    holds that block's prediction at the strips' positions only, in
    their cost layout, strip_offsets(strips, we), ready for layout_cost.
    Row m equals predict_mode(line, ALL_MODES[m], we, he) at those
    positions; since ALL_MODES[m] == m, row m is mode m.  The rows are
    int32 (see the module docstring).
    """
    taps = _template_taps(we, he, strips)
    line = line.astype(np.int32)
    out = np.empty((len(ALL_MODES), taps.spread.shape[1]), dtype=np.int32)
    _planar(line, taps, we, he, out=out[MODE_PLANAR])
    out[MODE_DC] = _dc_value(line, we, he)
    # mode="clip" lets take write straight into out; every index is in range.
    np.take(_interpolate(line, taps.i0, taps.i1, taps.w1), taps.spread, out=out[ANGULAR_MODES[0] :], mode="clip")
    return out
