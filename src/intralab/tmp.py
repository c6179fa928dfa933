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
candidates whose displaced strips fall outside the frame.  So a lenient
candidate whose displaced strips all lie outside the frame, such as
(-x0, -y0), is valid at cost 0 with no sample of evidence.

Ties in the search are broken toward smaller |dx| + |dy|, then smaller
dy, then smaller dx, making results order-independent and repeatable:
the result is the valid candidate with the least (cost, |dx| + |dy|,
dy, dx).

The search is exact but does not cost every candidate (successive
elimination, after Li & Salari, IEEE TIP 1995).  Its window ends at the
last row where the displaced block can be committed: the committed
prefixes never grow down the frame (grid's staircase invariant), so one
binary search over ReconBuffer.extent finds it.  The DC coefficient of
a Hadamard tile is the sum of the tile's differences, so (|sum d| + 1)
>> 1 for a 4x4 tile, or (|sum d| + 2) >> 2 for an 8x8 tile, is a lower
bound on that tile's SATD; |sum d| bounds the SAD of the remainder
strips and, over 4x4 pieces, the sad metric.  Summed over the usable
strips this bounds a candidate's cost, and the sums come in O(1) from an
integral image of the window's samples, one plane of box sums per piece
shape, read only for strips that the buffer's committed-rectangle rule
shows committed.  Candidates are costed in ascending bound order until
the next bound is strictly above the best cost found; a candidate that
could tie with the best always has a bound no higher than it, so the tie
order is unaffected.

A template's cost is the sum of its strips' costs (cost.strip_layout),
so the search costs each strip on its own, and it costs a strip's
Hadamard tiles in the transform domain.  The transform is linear, so
a tile's SATD is the normalized absolute sum of its coefficient vector
minus the block's.  The first chunk that costs a tile builds the
window's coefficient planes (cost.hadamard_planes: the 16 coefficients
of every 4x4 tile position, one int16 plane each), over the window's
displaced strips and the block's own, displacement (0, 0).  For each
chunk of candidates and each strip, one flat index, tiles first, gathers
the strip's tile vectors (cost.tile_origins) for the candidates that use
it, and cost.coefficient_cost subtracts the block's own vectors, read
from the same planes, and sums them; an 8x8 tile is costed from its four
4x4 sub-tiles.  The strip's SAD remainder, or the whole strip under the
sad metric, is gathered as samples through one flat index into the
sample plane (cost.strip_offsets) and costed against the block's own
strip, read once per search.  Before a chunk gathers a later strip, it
drops every candidate whose exact cost so far plus the later strips'
bound is above the highest cost still accepted (partial distortion,
after Bei & Gray, IEEE Trans. Commun. 1985), so a dropped candidate's
later strips are neither gathered nor noted.  template_cost_at and mode
evaluation read through gather_templates, which checks every displaced
strip with the buffer's committed-rectangle rule, one test on ints per
strip and move, and indexes the sample plane through _template_index;
both cost through cost.layout_cost.  Both the search and gather_templates
note each displaced strip they read through _note_templates, so a
search notes its block's own strips once (through read_region) and
each displaced strip it costs, and no others.

tmp_search(..., below=c) returns the best candidate among those that
cost strictly less than c, or None when no valid candidate does.
Candidates whose bound reaches c are never costed.  A caller that only
uses a result cheaper than a known cost passes that cost, which is how
the E-TIMD TMP competition runs.
"""

from __future__ import annotations

from functools import cache, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .cost import Layout, Rect, bound_pieces, check_metric, coefficient_cost, hadamard_planes, layout_cost
from .cost import strip_layout, strip_offsets, tile_origins
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


def _template_index(width: int, strips: Sequence[Rect], starts: np.ndarray) -> tuple[Layout, np.ndarray]:
    """Layout of the strips and the flat index, into a plane of that width, of the strips moved to each start.

    starts holds the flat position of the first strip's top-left sample
    after each move.  The index is int64, numpy's intp here: numpy
    converts any other index type before it gathers, so an int32 index,
    half the size, gathers slower (a 512 x 80 strip gather from a 256 x
    256 plane: 35-63 us with int64, 106-110 us with int32; numpy 2.4 on
    a shared 2-vCPU host).
    """
    x0, y0 = strips[0][:2]
    layout, offsets = strip_offsets(tuple((x - x0, y - y0, w, h) for x, y, w, h in strips), width)
    return layout, np.add.outer(starts, offsets)


def gather_templates(buf: ReconBuffer, strips: Sequence[Rect], dxs, dys) -> tuple[Layout, np.ndarray]:
    """Layout of the strips and their samples displaced by each (dx, dy), read causally.

    dxs and dys are equal-length int sequences or 1-D integer arrays.
    Row i holds the strips moved by (dxs[i], dys[i]) in layout order, so
    (0, 0) gives the block's own template.  Every displaced strip must
    lie inside the frame and be committed, or CausalityError is raised;
    each one is noted as a read.  The check asks ReconBuffer.is_committed
    once per strip and move, on ints: the calls of a few moves cost less
    than the numpy calls of one test over all of them.
    """
    for dx, dy in zip(dxs, dys):
        for x, y, w, h in strips:
            if not buf.is_committed(x + dx, y + dy, w, h):
                raise CausalityError(
                    f"template displaced by ({dx}, {dy}) leaves the frame or touches uncommitted samples"
                )
    _note_templates(buf, strips, dxs, dys)
    x0, y0 = strips[0][:2]
    starts = np.array([(y0 + dy) * buf.width + x0 + dx for dx, dy in zip(dxs, dys)], dtype=np.int64)
    layout, index = _template_index(buf.width, strips, starts)
    return layout, buf.samples.take(index)


def _note_templates(buf: ReconBuffer, strips: Sequence[Rect], dxs, dys) -> None:
    """Note each strip displaced by each (dx, dy) as a read."""
    if buf.read_hook is not None:
        for dx, dy in zip(np.asarray(dxs).tolist(), np.asarray(dys).tolist()):
            for x, y, w, h in strips:
                buf.note_read(x + dx, y + dy, w, h)


def _strip_costs(
    buf: ReconBuffer, rect: Rect, own: np.ndarray, dxs: np.ndarray, dys: np.ndarray, metric: str,
    planes: Callable[[], np.ndarray], origin: tuple[int, int],
) -> np.ndarray:
    """Matching cost of the strip rect displaced by each (dx, dy) against own, its samples in its layout.

    Each displaced strip is noted as a read; nothing is checked, so every
    one must already be known to be committed.  Under SATD the strip's
    Hadamard tiles are costed from the window's coefficient planes, whose
    top-left sample is origin: each candidate's tile vectors are gathered,
    tiles first, and the block's own, read from the same planes at
    displacement (0, 0), are subtracted (cost.coefficient_cost).  The SAD
    remainder, or the whole strip under SAD, is gathered as samples.  The
    gather index is freed before the rows are costed: it is twice their
    size, and holding it through the costing raised a search's peak heap
    enough that the allocator handed the heap back between searches,
    which slowed screen-etimd encodes by 9-16%.
    """
    _note_templates(buf, [rect], dxs, dys)
    x, y, w, h = rect
    layout, offsets = strip_offsets(((0, 0, w, h),), buf.width)
    tile, origins = tile_origins(h, w, metric)
    costs = 0  # a strip without tiles has a SAD remainder: the whole strip
    if tile:
        coeffs = planes()
        width = coeffs.shape[2]
        coeffs = coeffs.reshape(16, -1)
        subs = (y - origin[1] + origins[0]) * width + x - origin[0] + origins[1]
        index = np.add.outer(subs, dys * width + dxs)
        costs = coefficient_cost(coeffs.take(index, axis=1), coeffs[:, subs], tile)
    rest = layout.rest if tile else 0
    if rest < len(offsets):
        index = np.add.outer((y + dys) * buf.width + x + dxs, offsets[rest:])
        diffs = buf.samples.take(index)
        del index
        diffs -= own[rest:]
        costs = costs + np.abs(diffs).sum(axis=1)
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
    layout, rows = gather_templates(buf, strips, (0, bv.dx), (0, bv.dy))
    return int(layout_cost(rows[1:] - rows[0], layout, metric)[0])


def _box_sums(ii: np.ndarray, w: int, h: int) -> np.ndarray:
    """Sums of every w x h box of an integral image's area, indexed by the box's top-left corner."""
    return ii[h:, w:] - ii[:-h, w:] - ii[h:, :-w] + ii[:-h, :-w]


def _window_integral(buf: ReconBuffer, x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
    """Integral image of the sample plane over [x0, x1) x [y0, y1).

    The window may overhang the frame only above and to the left; the
    overhang counts as zero, so the integral's leading rows and columns
    stay zero.  Uncommitted samples are summed as they stand:
    _window_bounds reads a sample sum only over boxes that the buffer's
    committed-rectangle rule (grid's staircase invariant) shows
    committed.
    """
    fx0, fy0 = max(x0, 0), max(y0, 0)
    ii = np.zeros((y1 - y0 + 1, x1 - x0 + 1), dtype=np.int64)
    inner = ii[1 + fy0 - y0 :, 1 + fx0 - x0 :]
    np.cumsum(buf.samples[fy0:y1, fx0:x1], axis=0, dtype=np.int64, out=inner)
    np.cumsum(inner, axis=1, out=inner)
    return ii


def _window_bounds(buf, block, t, rects, curs, dx_lo, dx_hi, dy_lo, dy_hi, metric, strict_template):
    """Validity, cost lower bound and later strips' bounds over the (ny, nx) candidate grid.

    A strip's bound counts only where, displaced, the strip is fully
    committed, so no uncommitted sample reaches a bound.  later[k - 1]
    is the bound of strips k onwards, as int32 (a strip's bound is at
    most its area times the largest sample, far below 2^31).  Every
    bound piece of one shape slices the same plane of box sums.
    """
    nx, ny = dx_hi - dx_lo + 1, dy_hi - dy_lo + 1
    # The window is the extended rectangle swept over the displacements;
    # it may overhang the frame by up to t samples to the left and top.
    ex, ey, we, he = extended_rect(block, t)
    sample_ii = _window_integral(buf, ex + dx_lo, ey + dy_lo, ex + we + dx_hi, ey + he + dy_hi)
    box_sums = cache(partial(_box_sums, sample_ii))
    dxs, dys = np.arange(dx_lo, dx_hi + 1), np.arange(dy_lo, dy_hi + 1)[:, None]
    valid = buf.is_committed(block.x0 + dxs, block.y0 + dys, block.w, block.h)
    piece = np.empty((ny, nx), dtype=np.int64)
    bounds, later = None, []
    # Last strip first, so that bounds holds the later strips' sum when a strip is added.
    for rect, cur in zip(rects[::-1], curs[::-1]):
        sx, sy, sw, sh = rect
        usable = buf.is_committed(sx + dxs, sy + dys, sw, sh)
        if strict_template:
            valid &= usable
        else:
            valid &= usable | _fully_outside(rect, dxs, dys, buf.width, buf.height)
        strip_bound = np.zeros((ny, nx), dtype=np.int64)
        for px, py, pw, ph, shift in bound_pieces(sh, sw, metric):
            ox, oy = sx + px - ex, sy + py - ey
            cur_sum = int(cur[py : py + ph, px : px + pw].sum())
            np.subtract(box_sums(pw, ph)[oy : oy + ny, ox : ox + nx], cur_sum, out=piece)
            np.abs(piece, out=piece)
            if shift:
                piece += 1 << (shift - 1)
                piece >>= shift
            strip_bound += piece
        strip_bound *= usable
        if bounds is None:
            bounds = strip_bound
        else:
            later.insert(0, bounds.astype(np.int32).ravel())
            bounds += strip_bound
    return valid.ravel(), bounds.ravel(), later


def _search_window(buf: ReconBuffer, block: BlockRef, search_range: int | None) -> tuple[int, int, int, int]:
    """(dx_lo, dx_hi, dy_lo, dy_hi): the displacements that may hold a valid candidate.

    They keep the displaced block within search_range and the frame, and
    its bottom row among the rows whose committed prefix is at least the
    block's width.  extent never grows down the frame, so those rows are
    the top ones, counted by one binary search.  The range may be empty.
    """
    if search_range is None:
        search_range = max(buf.width, buf.height)
    if search_range < 0:
        raise ValueError(f"search_range must be >= 0, got {search_range}")
    rows = int(np.searchsorted(-buf.extent, -block.w, side="right"))
    return (
        max(-search_range, -block.x0),
        min(search_range, buf.width - block.w - block.x0),
        max(-search_range, -block.y0),
        min(search_range, rows - block.h - block.y0),
    )


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

    The result is exact.  The window is cropped to the rows where the
    displaced block can be committed, and every valid candidate gets an
    O(1) lower bound on its cost from an integral image of the window's
    committed samples (see the module docstring).  Candidates are costed
    in chunks of SEARCH_CHUNK, in ascending bound order, until the next
    bound is strictly above the best cost found, so every candidate that
    could tie with the best is still costed.  Within a chunk the strips
    are costed in turn, and a candidate whose cost so far plus its later
    strips' bound is above that cost gathers no later strip.
    """
    check_metric(metric)
    rects = [r for r in template_rects(block, t, buf.width, buf.height) if r is not None]
    if not rects:
        return None
    dx_lo, dx_hi, dy_lo, dy_hi = _search_window(buf, block, search_range)
    if dx_lo > dx_hi or dy_lo > dy_hi:
        return None
    limit = _NO_LIMIT if below is None else below - 1  # accepted costs are <= limit
    if limit < 0:
        return None

    nx = dx_hi - dx_lo + 1
    # The coefficient planes cover the window's strips and the block's own
    # (displacement (0, 0)); only a chunk that costs a tile builds them.
    ex, ey, we, he = extended_rect(block, t)
    origin = max(ex + dx_lo, 0), max(ey + dy_lo, 0)
    window = buf.samples[origin[1] : ey + he + max(dy_hi, 0), origin[0] : ex + we + dx_hi]
    planes = cache(partial(hadamard_planes, window, buf.bit_depth))
    curs = [buf.read_region(*rect) for rect in rects]
    owns = [cur.ravel()[strip_layout((cur.shape,)).order] for cur in curs]
    valid, bounds, later = _window_bounds(
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
        start = stop
        costs = np.zeros(len(chunk), dtype=np.int64)
        for k, (rect, own) in enumerate(zip(rects, owns)):
            if k:
                # Partial distortion: a candidate whose cost so far plus the
                # later strips' bound is above limit cannot be accepted.
                keep = np.flatnonzero(costs + later[k - 1][chunk] <= limit)
                chunk, costs = chunk[keep], costs[keep]
                if not len(chunk):
                    break
            dxs, dys = dx_lo + chunk % nx, dy_lo + chunk // nx
            # A valid candidate's strip is committed unless it lies wholly
            # outside the frame, which only a lenient candidate's may.
            use = slice(None)
            if not strict_template:
                use = ~_fully_outside(rect, dxs, dys, buf.width, buf.height)
            costs[use] += _strip_costs(buf, rect, own, dxs[use], dys[use], metric, planes, origin)
        if not len(costs) or (low := int(costs.min())) > limit:
            continue
        # Only the survivors tied at the least cost can hold the chunk's best key.
        tied = np.flatnonzero(costs == low)
        dxs, dys = dxs[tied], dys[tied]
        l1 = np.abs(dxs) + np.abs(dys)
        i = np.lexsort((dxs, dys, l1))[0]
        key = (low, int(l1[i]), int(dys[i]), int(dxs[i]))
        if best is None or key < best:
            best = key
            limit = key[0]
    if best is None:
        return None
    cost, _, dy, dx = best
    return SearchResult(BlockVector(dx, dy), cost)
