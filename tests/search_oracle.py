"""Plain-loop reference implementation of the template-matching search.

Deliberately written with scalar loops and per-candidate region reads,
sharing no code with the vectorized search it checks.  Used by both the
unit tests and the acceptance suite.
"""

from __future__ import annotations

from oracles import block_cost, committed_mask, mask_covers
from intralab.grid import BlockRef, ReconBuffer
from intralab.tmp import BlockVector


def _strips(block: BlockRef, t: int, fw: int, fh: int) -> list[tuple[int, int, int, int]]:
    out = []
    if block.y0 > 0:
        ax = max(block.x0 - t, 0)
        ay = max(block.y0 - t, 0)
        out.append((ax, ay, block.x0 + block.w - ax, block.y0 - ay))
    if block.x0 > 0:
        lx = max(block.x0 - t, 0)
        out.append((lx, block.y0, block.x0 - lx, block.h))
    return out


def oracle_search(
    buf: ReconBuffer,
    block: BlockRef,
    search_range: int | None,
    t: int,
    metric: str,
    strict_template: bool,
) -> tuple[BlockVector, int] | None:
    fw, fh = buf.width, buf.height
    strips = _strips(block, t, fw, fh)
    if not strips:
        return None

    if search_range is None:
        dx_range = range(-block.x0, fw - block.w - block.x0 + 1)
        dy_range = range(-block.y0, fh - block.h - block.y0 + 1)
    else:
        dx_range = range(
            max(-search_range, -block.x0),
            min(search_range, fw - block.w - block.x0) + 1,
        )
        dy_range = range(
            max(-search_range, -block.y0),
            min(search_range, fh - block.h - block.y0) + 1,
        )

    mask = committed_mask(buf)
    best = None
    for dy in dy_range:
        for dx in dx_range:
            if not mask_covers(mask, block.x0 + dx, block.y0 + dy, block.w, block.h):
                continue
            cost = 0
            ok = True
            for sx, sy, sw, sh in strips:
                mx, my = sx + dx, sy + dy
                if mask_covers(mask, mx, my, sw, sh):
                    cur = buf.samples[sy : sy + sh, sx : sx + sw]
                    ref = buf.samples[my : my + sh, mx : mx + sw]
                    cost += block_cost(ref, cur, metric)
                    continue
                outside = mx + sw <= 0 or my + sh <= 0 or mx >= fw or my >= fh
                if outside and not strict_template:
                    continue
                ok = False
                break
            if not ok:
                continue
            key = (cost, abs(dx) + abs(dy), dy, dx)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    cost, _, dy, dx = best
    return BlockVector(dx, dy), cost
