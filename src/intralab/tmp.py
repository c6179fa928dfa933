"""Intra template matching prediction (IntraTMP).

A block vector (dx, dy) points at an already-reconstructed block whose
samples are copied verbatim as the prediction.  Candidates are ranked
by the matching cost between the current block's Gamma-template (an
above strip of (w + t) x t samples including the corner extension, and
a left strip of t x h samples) and the same-shaped template at the
displaced position.

Validity of a candidate is causal: the displaced block must be fully
committed.  Each template strip the current block actually has must,
at the displaced position, be either fully committed (it is costed) or
fully outside the frame (it contributes nothing); anything in between
rejects the candidate.  Strict-template mode, used when candidates must
be cost-comparable against template predictions, additionally rejects
candidates whose displaced strips fall outside the frame.

Ties in the search are broken toward smaller |dx| + |dy|, then smaller
dy, then smaller dx, making results order-independent and repeatable:
the result is the valid candidate with the least (cost, |dx| + |dy|,
dy, dx).

The search is exact but does not cost every candidate (successive
elimination, after Li & Salari, IEEE TIP 1995).  The DC coefficient of
a Hadamard tile is the sum of the tile's differences, so (|sum d| + 1)
>> 1 for a 4x4 tile, or (|sum d| + 2) >> 2 for an 8x8 tile, is a lower
bound on that tile's SATD; |sum d| bounds the SAD of the remainder
strips and, over 4x4 pieces, the sad metric.  Summed over the usable
strips this bounds a candidate's cost, and the sums come in O(1) from an
integral image of the window's committed samples.  Candidates are
costed in ascending bound order until the next bound is strictly above
the best cost found; a candidate that could tie with the best always
has a bound no higher than it, so the tie order is unaffected.

tmp_search(..., below=c) returns the best candidate among those that
cost strictly less than c, or None when no valid candidate does.
Candidates whose bound reaches c are never costed.  A caller that only
uses a result cheaper than a known cost passes that cost, which is how
the E-TIMD TMP competition runs.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cost import batch_cost, bound_pieces, check_metric
from .errors import CausalityError
from .grid import BlockRef, ReconBuffer

DEFAULT_TEMPLATE = 4
DEFAULT_SEARCH_RANGE = 64
# Candidates costed per batched kernel call; bounds the search's peak memory.
SEARCH_CHUNK = 512
_NO_LIMIT = np.iinfo(np.int64).max


class BlockVector(NamedTuple):
    dx: int
    dy: int


class SearchResult(NamedTuple):
    bv: BlockVector
    cost: int


Rect = tuple[int, int, int, int]


def template_rects(block: BlockRef, t: int, frame_w: int, frame_h: int) -> tuple[Rect | None, Rect | None]:
    """Frame-clipped (above, left) strip rectangles, None when absent."""
    x0, y0 = block.x0, block.y0
    above = None
    if y0 > 0:
        ax = max(x0 - t, 0)
        ay = max(y0 - t, 0)
        above = (ax, ay, x0 + block.w - ax, y0 - ay)
    left = None
    if x0 > 0:
        lx = max(x0 - t, 0)
        left = (lx, y0, x0 - lx, block.h)
    return above, left


def _shift(rect: Rect, bv: BlockVector) -> Rect:
    x, y, w, h = rect
    return (x + bv.dx, y + bv.dy, w, h)


def _fully_outside(rect: Rect, frame_w: int, frame_h: int) -> bool:
    x, y, w, h = rect
    return x + w <= 0 or y + h <= 0 or x >= frame_w or y >= frame_h


def bv_predict(buf: ReconBuffer, block: BlockRef, bv: BlockVector) -> np.ndarray:
    """Copy the displaced block as the prediction."""
    return buf.read_region(block.x0 + bv.dx, block.y0 + bv.dy, block.w, block.h)


def candidate_valid(
    buf: ReconBuffer,
    block: BlockRef,
    bv: BlockVector,
    t: int,
    strict_template: bool = True,
) -> bool:
    """Causality check for one candidate; (0, 0) always fails."""
    if not buf.region_available(block.x0 + bv.dx, block.y0 + bv.dy, block.w, block.h):
        return False
    for rect in template_rects(block, t, buf.width, buf.height):
        if rect is None:
            continue
        moved = _shift(rect, bv)
        if buf.region_available(*moved):
            continue
        if not strict_template and _fully_outside(moved, buf.width, buf.height):
            continue
        return False
    return True


def template_costs(
    buf: ReconBuffer,
    block: BlockRef,
    bvs: Sequence[BlockVector],
    t: int,
    metric: str,
) -> np.ndarray:
    """Matching cost of each candidate, with one batched kernel call per strip.

    A displaced strip fully outside the frame contributes nothing; any
    other displaced strip must be committed, or CausalityError is raised.
    """
    check_metric(metric)
    costs = np.zeros(len(bvs), dtype=np.int64)
    if not bvs:
        return costs
    dxs = np.array([bv.dx for bv in bvs], dtype=np.int64)
    dys = np.array([bv.dy for bv in bvs], dtype=np.int64)
    for rect in template_rects(block, t, buf.width, buf.height):
        if rect is None:
            continue
        sx, sy, sw, sh = rect
        use = np.array(
            [not _fully_outside(_shift(rect, bv), buf.width, buf.height) for bv in bvs]
        )
        if not use.any():
            continue
        for dx, dy in zip(dxs[use].tolist(), dys[use].tolist()):
            if not buf.region_available(sx + dx, sy + dy, sw, sh):
                raise CausalityError(
                    f"template strip at ({sx + dx},{sy + dy}) {sw}x{sh} is not committed"
                )
            buf.note_read(sx + dx, sy + dy, sw, sh)
        cur = buf.read_region(*rect).astype(np.int64)
        costs[use] += _strip_costs(buf, rect, cur, dxs[use], dys[use], metric)
    return costs


def template_cost_at(
    buf: ReconBuffer,
    block: BlockRef,
    bv: BlockVector,
    t: int,
    metric: str,
) -> int:
    """Matching cost of one valid candidate."""
    return int(template_costs(buf, block, [bv], t, metric)[0])


def _integral(values: np.ndarray) -> np.ndarray:
    h, w = values.shape
    ii = np.zeros((h + 1, w + 1), dtype=np.int64)
    np.cumsum(values, axis=0, out=ii[1:, 1:])
    np.cumsum(ii[1:, 1:], axis=1, out=ii[1:, 1:])
    return ii


def _box_sums(ii: np.ndarray, x: int, y: int, w: int, h: int, nx: int, ny: int) -> np.ndarray:
    """(ny, nx) sums of the w x h boxes at (x + i, y + j) of an integral image."""
    return (
        ii[y + h : y + h + ny, x + w : x + w + nx]
        - ii[y : y + ny, x + w : x + w + nx]
        - ii[y + h : y + h + ny, x : x + nx]
        + ii[y : y + ny, x : x + nx]
    )


def _strip_costs(buf, rect, cur, dxs, dys, metric):
    """Matching cost of one strip for each (dx, dy) candidate; cur is the int64 template."""
    sx, sy, sw, sh = rect
    wins = sliding_window_view(buf.samples, (sh, sw))
    return batch_cost(wins[sy + dys, sx + dxs] - cur[None], metric)


def _window_integrals(buf: ReconBuffer, x0: int, y0: int, x1: int, y1: int) -> tuple[np.ndarray, np.ndarray]:
    """Integral images of availability and of committed samples over [x0, x1) x [y0, y1).

    Positions outside the frame count as unavailable, and uncommitted
    samples as zero, so neither can reach a bound.
    """
    fx0, fy0 = max(x0, 0), max(y0, 0)
    fx1, fy1 = min(x1, buf.width), min(y1, buf.height)
    flags = buf.available[fy0:fy1, fx0:fx1]
    avail = np.zeros((y1 - y0, x1 - x0), dtype=np.int64)
    committed = np.zeros((y1 - y0, x1 - x0), dtype=np.int64)
    inner = (slice(fy0 - y0, fy1 - y0), slice(fx0 - x0, fx1 - x0))
    avail[inner] = flags
    committed[inner] = np.where(flags, buf.samples[fy0:fy1, fx0:fx1], 0)
    return _integral(avail), _integral(committed)


def _window_bounds(buf, block, rects, curs, dx_lo, dx_hi, dy_lo, dy_hi, metric, strict_template):
    """Validity, cost lower bound and per-strip usability over the (ny, nx) candidate grid."""
    nx, ny = dx_hi - dx_lo + 1, dy_hi - dy_lo + 1
    # The bounding box of every displaced rectangle; it may overhang the
    # frame by up to t samples to the left and top.
    shapes = rects + [(block.x0, block.y0, block.w, block.h)]
    bx0 = min(r[0] for r in shapes) + dx_lo
    by0 = min(r[1] for r in shapes) + dy_lo
    bx1 = max(r[0] + r[2] for r in shapes) + dx_hi
    by1 = max(r[1] + r[3] for r in shapes) + dy_hi
    avail_ii, sample_ii = _window_integrals(buf, bx0, by0, bx1, by1)

    def over_window(ii, rx, ry, rw, rh):
        return _box_sums(ii, rx + dx_lo - bx0, ry + dy_lo - by0, rw, rh, nx, ny)

    valid = over_window(avail_ii, block.x0, block.y0, block.w, block.h) == block.w * block.h
    bounds = np.zeros((ny, nx), dtype=np.int64)
    strip_use = []
    for rect, cur in zip(rects, curs):
        sx, sy, sw, sh = rect
        usable = over_window(avail_ii, *rect) == sw * sh
        if strict_template:
            valid &= usable
        else:
            xs = sx + np.arange(dx_lo, dx_hi + 1)
            ys = sy + np.arange(dy_lo, dy_hi + 1)
            x_out = (xs + sw <= 0) | (xs >= buf.width)
            y_out = (ys + sh <= 0) | (ys >= buf.height)
            valid &= usable | x_out[None, :] | y_out[:, None]
        strip_bound = np.zeros((ny, nx), dtype=np.int64)
        for px, py, pw, ph, shift in bound_pieces(sh, sw, metric):
            cur_sum = int(cur[py : py + ph, px : px + pw].sum())
            piece = np.abs(over_window(sample_ii, sx + px, sy + py, pw, ph) - cur_sum)
            if shift:
                piece += 1 << (shift - 1)
                piece >>= shift
            strip_bound += piece
        bounds += strip_bound * usable
        strip_use.append(usable.ravel())
    return valid.ravel(), bounds.ravel(), strip_use


def tmp_search(
    buf: ReconBuffer,
    block: BlockRef,
    search_range: int | None = DEFAULT_SEARCH_RANGE,
    t: int = DEFAULT_TEMPLATE,
    metric: str = "satd",
    strict_template: bool = False,
    below: int | None = None,
) -> SearchResult | None:
    """Best causal block vector within the window, or None when none exists.

    search_range None searches the whole causal area of the frame.  With
    below set, only candidates whose cost is < below compete: the result
    is the best of those under the usual tie order, or None if there are
    none.  Without it every valid candidate competes.

    The result is exact.  Every valid candidate gets an O(1) lower bound
    on its cost from integral images of the window's committed samples
    (see the module docstring).  Candidates are costed in chunks of
    SEARCH_CHUNK, in ascending bound order, until the next bound is
    strictly above the best cost found, so every candidate that could tie
    with the best is still costed.
    """
    check_metric(metric)
    x0, y0, w, h = block.x0, block.y0, block.w, block.h
    frame_w, frame_h = buf.width, buf.height
    rects = [r for r in template_rects(block, t, frame_w, frame_h) if r is not None]
    if not rects:
        return None

    if search_range is None:
        dx_lo, dx_hi = -x0, frame_w - w - x0
        dy_lo, dy_hi = -y0, frame_h - h - y0
    else:
        if search_range < 0:
            raise ValueError(f"search_range must be >= 0, got {search_range}")
        dx_lo, dx_hi = max(-search_range, -x0), min(search_range, frame_w - w - x0)
        dy_lo, dy_hi = max(-search_range, -y0), min(search_range, frame_h - h - y0)
    if dx_lo > dx_hi or dy_lo > dy_hi:
        return None
    limit = _NO_LIMIT if below is None else below - 1  # accepted costs are <= limit
    if limit < 0:
        return None

    nx = dx_hi - dx_lo + 1
    curs = [buf.read_region(*rect).astype(np.int64) for rect in rects]
    valid, bounds, strip_use = _window_bounds(
        buf, block, rects, curs, dx_lo, dx_hi, dy_lo, dy_hi, metric, strict_template
    )
    if buf.read_hook is not None:
        for (sx, sy, sw, sh), usable in zip(rects, strip_use):
            for i in np.flatnonzero(valid & usable).tolist():
                buf.note_read(sx + dx_lo + i % nx, sy + dy_lo + i // nx, sw, sh)

    sel = np.flatnonzero(valid & (bounds <= limit))
    sel = sel[np.argsort(bounds[sel], kind="stable")]
    bounds = bounds[sel]
    best = None
    start = 0
    while start < len(sel):
        stop = start + int(np.searchsorted(bounds[start : start + SEARCH_CHUNK], limit, side="right"))
        if stop == start:
            break
        chunk = sel[start:stop]
        dxs = dx_lo + chunk % nx
        dys = dy_lo + chunk // nx
        costs = np.zeros(len(chunk), dtype=np.int64)
        for rect, cur, usable in zip(rects, curs, strip_use):
            use = usable[chunk]
            if use.all():
                costs += _strip_costs(buf, rect, cur, dxs, dys, metric)
            elif use.any():
                costs[use] += _strip_costs(buf, rect, cur, dxs[use], dys[use], metric)
        l1 = np.abs(dxs) + np.abs(dys)
        i = np.lexsort((dxs, dys, l1, costs))[0]
        key = (int(costs[i]), int(l1[i]), int(dys[i]), int(dxs[i]))
        if key[0] <= limit and (best is None or key < best):
            best = key
            limit = key[0]
        start = stop
    if best is None:
        return None
    cost, _, dy, dx = best
    return SearchResult(BlockVector(dx, dy), cost)
