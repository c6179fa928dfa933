"""Block-vector candidate lists for E-TIMD.

BVs originate in already-coded blocks: an IntraTMP-coded block carries
its search result, an E-TIMD-coded block carries whatever BV modes took
part in its fusion.  For the current block, candidates are gathered by
sampling the coding records at five adjacent positions (left, above,
above-right, below-left, above-left) and at two outward rings of the
same five positions offset by k*w horizontally and k*h vertically,
k in {1, 2}.

On top of the sampled primaries, each primary v is auto-relocated: the
record covering the displaced block's top-left pixel contributes its
own BVs v_sec, yielding candidates v + v_sec (a single derivation
level).  Sub-pel BVs (1/16 units) are normalized to integer pixels by
an arithmetic shift of 4 bits toward negative infinity before use.

The final list keeps first occurrences, drops candidates that fail the
causal availability check for the current block (displaced block plus
its full template), and truncates to n_max entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .grid import BlockRef, ReconBuffer
from .tmp import BlockVector, extended_rect

DEFAULT_N_MAX = 20


class RecordTool(str, Enum):
    INTRA_TMP = "intratmp"
    ETIMD = "etimd"
    OTHER = "other"


class BvPrecision(str, Enum):
    INT_PEL = "int"
    SIXTEENTH = "sixteenth"


class Provenance(str, Enum):
    PRIMARY = "primary"
    AUTO_RELOCATED = "auto-relocated"


@dataclass(frozen=True)
class CodingRecord:
    """How one committed block was predicted.

    bvs is non-empty exactly when the block's prediction used a BV
    (IntraTMP copy, or BV modes inside an E-TIMD fusion).  precision
    declares the unit of the stored vectors.
    """

    block: BlockRef
    tool: RecordTool
    bvs: tuple[BlockVector, ...] = ()
    precision: BvPrecision = BvPrecision.INT_PEL


@dataclass(frozen=True)
class BvCandidate:
    bv: BlockVector
    provenance: Provenance


class BvStore:
    """Pixel-position lookup over the coding records committed so far."""

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self._owner = np.full((height, width), -1, dtype=np.int32)
        self.records: list[CodingRecord] = []

    def add(self, record: CodingRecord) -> None:
        b = record.block
        region = self._owner[b.y0 : b.y0 + b.h, b.x0 : b.x0 + b.w]
        if (region != -1).any():
            raise ValueError(f"record for block {b.scan_index} overlaps an existing record")
        region[:] = len(self.records)
        self.records.append(record)

    def owner_at(self, x: int, y: int) -> int:
        """Index into records of the record covering pixel (x, y); -1 outside the committed area."""
        if 0 <= x < self.width and 0 <= y < self.height:
            return self._owner.item(y, x)
        return -1


def normalize_bv(bv: BlockVector, precision: BvPrecision) -> BlockVector:
    """Integer-pel form of a stored BV (floor shift for 1/16-pel input)."""
    if precision == BvPrecision.INT_PEL:
        return bv
    return BlockVector(bv.dx >> 4, bv.dy >> 4)


def _int_pel_bvs(record: CodingRecord) -> tuple[BlockVector, ...]:
    """The record's BVs normalized to integer pels."""
    if record.precision == BvPrecision.INT_PEL:
        return record.bvs
    return tuple(normalize_bv(bv, record.precision) for bv in record.bvs)


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
    """Normalized BVs of the records under the sampling points, in visit order.

    Duplicates are kept here; the list builder deduplicates downstream.
    """
    out: list[BlockVector] = []
    for px, py in _sampling_offsets(block.w, block.h):
        idx = store.owner_at(block.x0 + px, block.y0 + py)
        if idx >= 0:
            out += _int_pel_bvs(store.records[idx])
    return out


def derive_ar_bvs(store: BvStore, primaries: list[BlockVector], block: BlockRef) -> list[BlockVector]:
    """Auto-relocated candidates: primary + BVs of the block it points at.

    A single derivation level: the outputs are not themselves chased.
    """
    out: list[BlockVector] = []
    for v in primaries:
        idx = store.owner_at(block.x0 + v.dx, block.y0 + v.dy)
        if idx >= 0:
            for sec in _int_pel_bvs(store.records[idx]):
                out.append(BlockVector(v.dx + sec.dx, v.dy + sec.dy))
    return out


def build_bv_list(
    store: BvStore,
    buf: ReconBuffer,
    block: BlockRef,
    t: int,
    n_max: int = DEFAULT_N_MAX,
    use_ar: bool = True,
) -> list[BvCandidate]:
    """Candidate list for the current block: primaries, then AR-BVs.

    First occurrence wins on duplicates, so a primary that is also
    derivable by relocation keeps Primary provenance.  Every survivor
    passes the strict causal check (displaced block and full template
    committed), and the list is truncated to n_max.
    """
    primaries = sample_spatial_bvs(store, block)
    tagged = [(bv, Provenance.PRIMARY) for bv in primaries]
    if use_ar:
        tagged += [(bv, Provenance.AUTO_RELOCATED) for bv in derive_ar_bvs(store, primaries, block)]
    # The displaced block and its strips together cover the displaced
    # template-extended block, so one rectangle check is the strict check.
    ex, ey, ew, eh = extended_rect(block, t)
    out: list[BvCandidate] = []
    seen: set[BlockVector] = set()
    for bv, prov in tagged:
        if len(out) == n_max:
            break
        if bv in seen:
            continue
        seen.add(bv)
        if not buf.region_available(ex + bv.dx, ey + bv.dy, ew, eh):
            continue
        out.append(BvCandidate(bv, prov))
    return out
