"""Block-vector candidate lists for E-TIMD.

BVs originate in already-coded blocks: an IntraTMP-coded block carries
its search result, an E-TIMD-coded block carries whatever BV modes took
part in its fusion.  For the current block, candidates are gathered by
sampling the vectors each committed block used at five adjacent
positions (left, above, above-right, below-left, above-left) and at two
outward rings of the same five positions offset by k*w horizontally and
k*h vertically, k in {1, 2}.

On top of the sampled primaries, each primary v is auto-relocated: the
block covering the displaced block's top-left pixel contributes its
own BVs v_sec, yielding candidates v + v_sec (a single derivation
level).  Sub-pel BVs (1/16 units) are normalized to integer pixels by
an arithmetic shift of 4 bits toward negative infinity when the store
takes them.

build_bv_list makes one ordered pass: a dict keyed by vector, filled
with the primaries in visit order and then with the AR-BVs of the
distinct primaries, keeps each vector's first occurrence and its
provenance.  The candidates that pass the causal availability check for
the current block (displaced block plus its full template) are taken in
that order, up to n_max.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import islice

import numpy as np

from .grid import BlockRef, ReconBuffer
from .tmp import BlockVector, extended_rect

DEFAULT_N_MAX = 20


class BvPrecision(str, Enum):
    INT_PEL = "int"
    SIXTEENTH = "sixteenth"


class Provenance(str, Enum):
    PRIMARY = "primary"
    AUTO_RELOCATED = "auto-relocated"


@dataclass(frozen=True)
class BvCandidate:
    bv: BlockVector
    provenance: Provenance


class BvStore:
    """Pixel-position lookup of the integer-pel BVs each committed block used.

    _owner maps each pixel of the (height, width) frame to its block's
    entry in _bvs; its shape is the store's only record of the frame size.
    """

    def __init__(self, width: int, height: int):
        # Entry 0 is the empty tuple of every pixel no committed block covers.
        self._owner = np.zeros((height, width), dtype=np.int32)
        self._bvs: list[tuple[BlockVector, ...]] = [()]

    def add(
        self, block: BlockRef, bvs: Iterable[BlockVector] = (), precision: BvPrecision = BvPrecision.INT_PEL
    ) -> None:
        """Record a committed block and the BVs its prediction used, given in precision units.

        bvs is non-empty exactly when the prediction used a BV (IntraTMP
        copy, or BV modes inside an E-TIMD fusion).
        """
        region = self._owner[block.y0 : block.y0 + block.h, block.x0 : block.x0 + block.w]
        if region.any():
            raise ValueError(f"block {block.scan_index} overlaps a block already in the store")
        region[:] = len(self._bvs)
        self._bvs.append(tuple(normalize_bv(bv, precision) for bv in bvs))

    def bvs_at(self, x: int, y: int) -> tuple[BlockVector, ...]:
        """Integer-pel BVs of the block covering pixel (x, y); () where no block does."""
        height, width = self._owner.shape
        if 0 <= x < width and 0 <= y < height:
            return self._bvs[self._owner.item(y, x)]
        return ()


def normalize_bv(bv: BlockVector, precision: BvPrecision) -> BlockVector:
    """Integer-pel form of a stored BV (floor shift for 1/16-pel input)."""
    if precision == BvPrecision.INT_PEL:
        return bv
    return BlockVector(bv.dx >> 4, bv.dy >> 4)


@lru_cache(maxsize=64)
def _sampling_offsets(w: int, h: int) -> tuple[tuple[int, int], ...]:
    """The sampling points of any (h, w) block, relative to its origin, in visit order."""
    base = [(-1, h - 1), (w - 1, -1), (w, -1), (-1, h), (-1, -1)]
    points = list(base)
    for k in (1, 2):
        for px, py in base:
            ox = -k * w if px < 0 else (k * w if px >= w else 0)
            oy = -k * h if py < 0 else (k * h if py >= h else 0)
            points.append((px + ox, py + oy))
    return tuple(points)


def sample_spatial_bvs(store: BvStore, block: BlockRef) -> list[BlockVector]:
    """BVs of the blocks under the sampling points, in visit order.

    Duplicates are kept here; the list builder deduplicates downstream.
    """
    out: list[BlockVector] = []
    for px, py in _sampling_offsets(block.w, block.h):
        out += store.bvs_at(block.x0 + px, block.y0 + py)
    return out


def derive_ar_bvs(store: BvStore, primaries: list[BlockVector], block: BlockRef) -> list[BlockVector]:
    """Auto-relocated candidates: primary + BVs of the block it points at.

    A single derivation level: the outputs are not themselves chased.
    """
    return [BlockVector(v.dx + sec.dx, v.dy + sec.dy)
            for v in primaries for sec in store.bvs_at(block.x0 + v.dx, block.y0 + v.dy)]


def build_bv_list(
    store: BvStore,
    buf: ReconBuffer,
    block: BlockRef,
    t: int,
    n_max: int = DEFAULT_N_MAX,
    use_ar: bool = True,
) -> list[BvCandidate]:
    """Candidate list for the current block: primaries, then AR-BVs, in one ordered pass.

    Insertion order is the list order, so the first occurrence of a
    vector wins and a primary that is also derivable by relocation keeps
    Primary provenance.  AR-BVs derive from the distinct primaries: a
    repeated primary relocates to the vectors its first occurrence
    already gave.  Every survivor passes the strict causal check
    (displaced block and full template committed), and the list is
    truncated to n_max.
    """
    tagged = dict.fromkeys(sample_spatial_bvs(store, block), Provenance.PRIMARY)
    if use_ar:
        for bv in derive_ar_bvs(store, list(tagged), block):
            tagged.setdefault(bv, Provenance.AUTO_RELOCATED)
    # The displaced block and its strips together cover the displaced
    # template-extended block, so one rectangle check is the strict check.
    ex, ey, ew, eh = extended_rect(block, t)
    kept = (
        BvCandidate(bv, prov) for bv, prov in tagged.items() if buf.region_available(ex + bv.dx, ey + bv.dy, ew, eh)
    )
    return list(islice(kept, n_max))
