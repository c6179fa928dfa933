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
integral image of the window's samples, read only for strips that the
window's availability integral shows committed.  Candidates are
costed in ascending bound order until the next bound is strictly above
the best cost found; a candidate that could tie with the best always
has a bound no higher than it, so the tie order is unaffected.

Candidates are costed in the template's cost layout (cost.strip_layout):
one flat index into the sample plane (cost.strip_offsets) gathers a
whole batch of displaced templates in that order, and cost.layout_cost
costs them at once.  A candidate that can use only one of the two
strips is gathered and costed in that strip's layout.  template_cost_at
and mode evaluation read through gather_templates, which checks every
displaced strip against the committed area in one vectorised test.
Both gathers, gather_templates and the search's _costs_by_use (through
_read_templates), index the sample plane through _template_index and
note each displaced strip they read through _note_templates, so a
search notes the candidates it costs and no others.

tmp_search(..., below=c) returns the best candidate among those that
cost strictly less than c, or None when no valid candidate does.
Candidates whose bound reaches c are never costed.  A caller that only
uses a result cheaper than a known cost passes that cost, which is how
the E-TIMD TMP competition runs.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .cost import Layout, Rect, bound_pieces, check_metric, layout_cost, strip_offsets
from .errors import CausalityError
from .grid import BlockRef, ReconBuffer

DEFAULT_TEMPLATE = 4
# The template depths a run takes, which bound the intra tap caches.
TEMPLATES = tuple(range(1, 9))
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


def extended_rect(block: BlockRef, t: int) -> Rect:
    """The template-extended block: the block grown left and up by its strips' depths.

    The one definition of the template: the block and its strips
    (template_rects) tile exactly this rectangle, so a candidate passes
    the strict check iff the rectangle, displaced, is committed.
    """
    lw, ah = min(block.x0, t), min(block.y0, t)
    return (block.x0 - lw, block.y0 - ah, block.w + lw, block.h + ah)


def template_rects(block: BlockRef, t: int, frame_w: int, frame_h: int) -> tuple[Rect | None, Rect | None]:
    """The (above, left) strips of extended_rect(block, t), None when absent.

    Above is its top rows, corner included; left is its columns beside
    the block.  frame_w and frame_h are not read.
    """
    ex, ey, we, _ = extended_rect(block, t)
    ah, lw = block.y0 - ey, block.x0 - ex
    return ((ex, ey, we, ah) if ah else None), ((ex, block.y0, lw, block.h) if lw else None)


def _fully_outside(rect: Rect, dxs, dys, frame_w: int, frame_h: int):
    """Whether rect, displaced by each (dx, dy), lies wholly outside the frame."""
    x, y, w, h = rect
    return (x + w + dxs <= 0) | (y + h + dys <= 0) | (x + dxs >= frame_w) | (y + dys >= frame_h)


def bv_predict(buf: ReconBuffer, block: BlockRef, bv: BlockVector) -> np.ndarray:
    """Copy the displaced block as the prediction."""
    return buf.read_region(block.x0 + bv.dx, block.y0 + bv.dy, block.w, block.h)


def _template_index(
    width: int, strips: Sequence[Rect], dxs: np.ndarray, dys: np.ndarray
) -> tuple[Layout, np.ndarray]:
    """Layout of the strips and the flat index, into a plane of that width, of each displaced by each (dx, dy)."""
    x0, y0 = strips[0][:2]
    layout, offsets = strip_offsets(tuple((x - x0, y - y0, w, h) for x, y, w, h in strips), width)
    return layout, offsets + ((y0 + dys) * width + x0 + dxs)[:, None]


def gather_templates(
    buf: ReconBuffer, strips: Sequence[Rect], dxs: np.ndarray, dys: np.ndarray
) -> tuple[Layout, np.ndarray]:
    """Layout of the strips and their samples displaced by each (dx, dy), read causally.

    Row i holds the strips moved by (dxs[i], dys[i]) in layout order, so
    (0, 0) gives the block's own template.  Every displaced strip must
    lie inside the frame and be committed, or CausalityError is raised;
    each one is noted as a read.  One flat index reads both the
    availability and the sample plane.
    """
    xs, ys = dxs.tolist(), dys.tolist()
    moves = list(zip(xs, ys))
    for x, y, w, h in strips:
        if x + min(xs) < 0 or y + min(ys) < 0 or x + w + max(xs) > buf.width or y + h + max(ys) > buf.height:
            dx, dy = next(m for m in moves if not buf.in_frame(x + m[0], y + m[1], w, h))
            raise CausalityError(f"template strip at ({x + dx},{y + dy}) {w}x{h} leaves the frame")
    layout, index = _template_index(buf.width, strips, dxs, dys)
    committed = buf.available.ravel()[index].all(axis=1)
    if not committed.all():
        raise CausalityError(f"template displaced by {moves[int(np.argmin(committed))]} touches uncommitted samples")
    _note_templates(buf, strips, dxs, dys)
    return layout, buf.samples.ravel()[index]


def _note_templates(buf: ReconBuffer, strips: Sequence[Rect], dxs: np.ndarray, dys: np.ndarray) -> None:
    """Note each strip displaced by each (dx, dy) as a read."""
    if buf.read_hook is not None:
        for dx, dy in zip(dxs.tolist(), dys.tolist()):
            for x, y, w, h in strips:
                buf.note_read(x + dx, y + dy, w, h)


def _read_templates(
    buf: ReconBuffer, strips: Sequence[Rect], dxs: np.ndarray, dys: np.ndarray
) -> tuple[Layout, np.ndarray]:
    """Layout of the strips and the samples under them displaced by each (dx, dy), noted; nothing is checked.

    The index is freed on return, before the caller costs the rows: it is
    twice their size, and holding it through the costing of a search
    chunk slowed screen-etimd encodes by a third.
    """
    _note_templates(buf, strips, dxs, dys)
    layout, index = _template_index(buf.width, strips, dxs, dys)
    return layout, buf.samples.ravel()[index]


def _costs_by_use(
    buf: ReconBuffer,
    rects: Sequence[Rect],
    dxs: np.ndarray,
    dys: np.ndarray,
    uses: Sequence[np.ndarray],
    metric: str,
) -> np.ndarray:
    """Matching cost of each candidate over the strips it uses (uses[k]: it uses rects[k]).

    The candidates that use the same strips are read through
    _read_templates in those strips' layout, after the block's own
    template as row 0, and costed with one layout_cost call.  Nothing is
    checked: every strip a candidate uses must already be known to be
    committed.
    """
    costs = np.zeros(len(dxs), dtype=np.int64)
    # Bit k of a candidate's pattern is set when it uses rects[k].
    pattern = sum(use.astype(np.int64) << k for k, use in enumerate(uses))
    for p in np.flatnonzero(np.bincount(pattern)).tolist():
        if p == 0:
            continue  # a candidate that uses no strip costs nothing
        sel = np.flatnonzero(pattern == p)
        strips = [rect for k, rect in enumerate(rects) if p >> k & 1]
        layout, rows = _read_templates(buf, strips, np.append(0, dxs[sel]), np.append(0, dys[sel]))
        diffs = rows[1:]
        diffs -= rows[0]
        costs[sel] = layout_cost(diffs, layout, metric)
    return costs


def template_cost_at(
    buf: ReconBuffer,
    block: BlockRef,
    bv: BlockVector,
    t: int,
    metric: str,
) -> int:
    """Matching cost of one candidate, gathered and costed in the template's layout.

    A displaced strip fully outside the frame contributes nothing; any
    other displaced strip must be committed, or CausalityError is raised.
    """
    check_metric(metric)
    strips = [
        r for r in template_rects(block, t, buf.width, buf.height)
        if r is not None and not _fully_outside(r, bv.dx, bv.dy, buf.width, buf.height)
    ]
    if not strips:
        return 0
    layout, rows = gather_templates(buf, strips, np.array([0, bv.dx]), np.array([0, bv.dy]))
    return int(layout_cost(rows[1:] - rows[0], layout, metric)[0])


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


def _window_integrals(buf: ReconBuffer, x0: int, y0: int, x1: int, y1: int) -> tuple[np.ndarray, np.ndarray]:
    """Integral images of availability and of the sample plane over [x0, x1) x [y0, y1).

    Positions outside the frame count as unavailable and as zero.
    Uncommitted samples are summed as they stand: _window_bounds reads a
    sample sum only over boxes the availability integral shows committed.
    """
    fx0, fy0 = max(x0, 0), max(y0, 0)
    fx1, fy1 = min(x1, buf.width), min(y1, buf.height)
    avail = np.zeros((y1 - y0, x1 - x0), dtype=np.int64)
    samples = np.zeros((y1 - y0, x1 - x0), dtype=np.int64)
    inner = (slice(fy0 - y0, fy1 - y0), slice(fx0 - x0, fx1 - x0))
    avail[inner] = buf.available[fy0:fy1, fx0:fx1]
    samples[inner] = buf.samples[fy0:fy1, fx0:fx1]
    return _integral(avail), _integral(samples)


def _window_bounds(buf, block, t, rects, curs, dx_lo, dx_hi, dy_lo, dy_hi, metric, strict_template):
    """Validity, cost lower bound and per-strip usability over the (ny, nx) candidate grid.

    A strip is usable where, displaced, it is fully committed; its bound
    counts only there, so no uncommitted sample reaches a bound.
    """
    nx, ny = dx_hi - dx_lo + 1, dy_hi - dy_lo + 1
    # The window is the extended rectangle swept over the displacements;
    # it may overhang the frame by up to t samples to the left and top.
    ex, ey, we, he = extended_rect(block, t)
    bx0, by0 = ex + dx_lo, ey + dy_lo
    avail_ii, sample_ii = _window_integrals(buf, bx0, by0, ex + we + dx_hi, ey + he + dy_hi)

    def over_window(ii, rx, ry, rw, rh):
        return _box_sums(ii, rx + dx_lo - bx0, ry + dy_lo - by0, rw, rh, nx, ny)

    valid = over_window(avail_ii, block.x0, block.y0, block.w, block.h) == block.w * block.h
    bounds = np.zeros((ny, nx), dtype=np.int64)
    strip_use = []
    dxs, dys = np.arange(dx_lo, dx_hi + 1), np.arange(dy_lo, dy_hi + 1)[:, None]
    for rect, cur in zip(rects, curs):
        sx, sy, sw, sh = rect
        usable = over_window(avail_ii, *rect) == sw * sh
        if strict_template:
            valid &= usable
        else:
            valid &= usable | _fully_outside(rect, dxs, dys, buf.width, buf.height)
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

    search_range None is the radius max(frame_w, frame_h), which the
    frame clips to its whole causal area.  With below set, only
    candidates whose cost is < below compete: the result is the best of
    those under the usual tie order, or None if there are none.  Without
    it every valid candidate competes.

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
        search_range = max(frame_w, frame_h)
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
        buf, block, t, rects, curs, dx_lo, dx_hi, dy_lo, dy_hi, metric, strict_template
    )

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
        uses = [usable[chunk] for usable in strip_use]
        # Every chunk candidate was checked above.
        costs = _costs_by_use(buf, rects, dxs, dys, uses, metric)
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
