"""Template-based intra mode derivation, baseline and enhanced.

Both tools predict the block's Gamma-template with every candidate and
rank candidates by template loss against the committed reconstruction,
so encoder and decoder can derive the same modes without signaling.

Baseline TIMD considers the 65 angular modes: the best one is primary,
the second-best joins when its loss is strictly below twice the best,
and the better of Planar/DC joins as an extra mode under the same
2x bound.

E-TIMD throws block-vector candidates into the same pool.  The global
best is primary, the runner-up joins under a strict 1.5x bound, and
whenever two modes were selected a third is added unconditionally: the
cheapest of Planar, DC and the not-yet-selected BV candidates.  Equal
costs rank Angular (ascending index) before Planar before DC before
BV (list order), which makes derivation deterministic.

The pool stays on arrays: evaluate_candidates returns a read-only
CandidatePool of int64 costs (ALL_MODES order, then BV-list order) that
builds a ModeCandidate, whose kind follows from its mode or BV, only for
an entry that is read.  Both selectors rank with one np.lexsort over the
cost and the tie place of _tie_keys, accept a pool or any candidate list,
and build candidates only for the selected modes; "not yet selected"
means by position in the pool.

A candidate's label() is its written form in block records: ang:N,
planar, dc or bv:dx:dy.  label_kind maps a label back to its kind, so
the grammar has this one owner.

A FusionSet is its modes; its weights follow the loss-proportional rule:
each mode's weight is the sum of the other selected losses over (N-1)
times the total, so a cheaper template predicts a larger share.
Selection and weights are scale-invariant in the losses.

derive_fusion derives a block's fusion set from the decoder-visible
part of an EncodeContext, the per-frame coding state of encoder and
replay alike, and commit_fusion predicts, reconstructs and commits it.

Screen content repeats, and so do its pools.  pool_costs costs a pool
from every input of it: the template-extended block's size (we, he),
the template strips relative to it, the metric, the padded reference
line, and every gathered template row (the block's own, then each
listed BV's), packed together as uint16, which holds any 8- or 10-bit
sample.  A function of its arguments alone is exact under any cache,
so EncodeContext.memo is functools.lru_cache(POOL_MEMO_ENTRIES) of it,
and derive_fusion hands that to evaluate_candidates.  The samples are
read, checked and noted before the call, so a hit skips only
predict_template and layout_cost, and selection runs as on a miss.
harness._context builds a fresh memo for each frame and each side:
replay derives from its own state, never from the encoder's pools, and
nothing carries over between frames.  On the perfbench inputs (variants
1, 3 and 6), 69.6% of the screen-etimd pools and 65.4% of the
smallblock-closedloop pools are hits, and none of the natural-timd
pools.  POOL_MEMO_ENTRIES = 256 keeps both rates at their unbounded
value; 64 entries drop smallblock-closedloop, with 1,024 pools a frame,
to 55.0%.  Those memos held at most 0.5 MB of keys and costs; an entry
of a 64x64 block with t = 8 and 20 listed BVs holds 47 KB, so a full
memo of those holds about 12 MB.

The causal encode loop keeps only what the next block depends on.
encode_block derives, predicts, fuses, reconstructs, commits and records
one block, counts its BV list, and returns its BlockResult unmeasured.
What nothing downstream reads is measured after the fact: measure_blocks
fills in a batch of those with prediction SAD, SATD and squared error
and, with use_hog_transform, the transform modes, class and energy
compaction (reconstruct_block quantizes in the pixel domain and the BV
store holds only the BVs each fusion used, so neither waits for them).
The transform modes are the first two fusion entries, each BV entry
replaced by the HoG mode of its predictor, which measure_blocks reads
back with bv_predict, exact since no committed sample is ever rewritten.

harness.encode_frame measures every MEASURE_BATCH coded blocks.  Each
measure_blocks call has a fixed cost, and every coded block it holds
stays alive until it runs; on smallblock-closedloop frames throughput
levels off from 16 blocks per batch and the memory peak grows from 64,
so 32 sits between the two.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .bvlist import BvCandidate, BvStore, Provenance, build_bv_list
from .cost import Rect, layout_cost, sad, satd, strip_layout
from .grid import BlockRef, ReconBuffer, reconstruct_block
from .hog import transform_mode_for_block
from .intra import (
    ALL_MODES,
    MODE_DC,
    MODE_PLANAR,
    build_reference_samples,
    predict_mode,
    predict_template,
)
from .tmp import (
    BlockVector,
    SearchResult,
    bv_predict,
    extended_rect,
    gather_templates,
    template_rects,
    tmp_search,
)
from .transforms import TRANSFORM_SIZES, apply_transform, energy_compaction, transform_class

if TYPE_CHECKING:
    from .harness import RunConfig

# The RunConfig.tool values.  Any tool codes a block dc that has no template
# or whose IntraTMP search found nothing, and dc-only codes every block dc.
TOOLS = ("etimd", "timd", "intratmp", "dc-only")

# Coded blocks per measure_blocks call in harness.encode_frame (see the module docstring).
MEASURE_BATCH = 32

# Pools an EncodeContext's memo holds (see the module docstring).
POOL_MEMO_ENTRIES = 256

_KIND_RANK = {"angular": 0, "planar": 1, "dc": 2, "bv": 3}
_MODE_KIND = {MODE_PLANAR: "planar", MODE_DC: "dc"}


@dataclass(slots=True)
class ModeCandidate:
    """One pool entry with its template loss: an intra mode, or a BV when bv is set (list_index -1 if unlisted)."""

    cost: int
    mode: int | None = None
    bv: BlockVector | None = None
    list_index: int = -1

    @property
    def kind(self) -> str:
        return _MODE_KIND.get(self.mode, "angular") if self.bv is None else "bv"

    def label(self) -> str:
        if self.kind == "angular":
            return f"ang:{self.mode}"
        if self.kind == "bv":
            return f"bv:{self.bv.dx}:{self.bv.dy}"
        return self.kind


def label_kind(label: str) -> str:
    """The kind of the candidate whose label() is label."""
    head = label.split(":", 1)[0]
    return "angular" if head == "ang" else head


class CandidatePool(Sequence[ModeCandidate]):
    """Read-only pool of template losses: ALL_MODES order, then BV-list order.

    A ModeCandidate is built only when an entry is indexed or iterated.
    costs is a read-only int64 view of the costs given.
    """

    def __init__(self, costs: np.ndarray, bv_list: Sequence[BvCandidate] = ()) -> None:
        if len(costs) != len(ALL_MODES) + len(bv_list):
            raise ValueError("costs must cover ALL_MODES and then every listed BV")
        self.costs = np.asarray(costs, dtype=np.int64).view()
        self.costs.flags.writeable = False
        self.bv_list = tuple(bv_list)

    def __len__(self) -> int:
        return len(self.costs)

    def __getitem__(self, i: int) -> ModeCandidate:
        cost = self.costs.item(i)  # raises IndexError past either end, which ends iteration
        i = operator.index(i) % len(self.costs)
        if i < len(ALL_MODES):
            return ModeCandidate(cost, ALL_MODES[i])
        j = i - len(ALL_MODES)
        return ModeCandidate(cost, None, self.bv_list[j].bv, j)


def _tie_keys(candidates: Sequence[ModeCandidate]) -> tuple[np.ndarray, np.ndarray]:
    """Kind rank of each candidate and its place in the tie order: by kind rank, then by sub.

    sub is the intra mode or the BV list index; equal keys keep their order.
    """
    ranks = np.array([_KIND_RANK[c.kind] for c in candidates], dtype=np.int64)
    subs = np.array([c.mode if c.bv is None else c.list_index for c in candidates], dtype=np.int64)
    places = np.empty(len(ranks), dtype=np.int64)
    places[np.lexsort((subs, ranks))] = np.arange(len(ranks))
    return ranks, places


@lru_cache(maxsize=64)
def _pool_rank_keys(n_bv: int) -> tuple[np.ndarray, np.ndarray]:
    """_tie_keys of every entry of a pool with n_bv listed BVs; the keys read no vector."""
    bvs = [ModeCandidate(0, None, BlockVector(0, 0), j) for j in range(n_bv)]
    ranks, places = _tie_keys([ModeCandidate(0, mode) for mode in ALL_MODES] + bvs)
    ranks.flags.writeable = places.flags.writeable = False  # shared by every caller
    return ranks, places


@dataclass
class FusionSet:
    """Selected modes in ascending template-cost order; their weights derive from their costs."""

    modes: list[ModeCandidate]

    @property
    def weights(self) -> list[float]:
        return compute_weights([c.cost for c in self.modes])


def compute_weights(losses: Sequence[float]) -> list[float]:
    """Loss-proportional fusion weights.

    A single mode takes weight 1; an all-zero loss vector degenerates to
    uniform weights.  Weights always sum to 1.
    """
    n = len(losses)
    if n == 0:
        raise ValueError("no losses")
    if n == 1:
        return [1.0]
    total = float(sum(losses))
    if total == 0.0:
        return [1.0 / n] * n
    return [(total - float(l)) / ((n - 1) * total) for l in losses]


def fuse(predictions: Sequence[np.ndarray], weights: Sequence[float], bit_depth: int) -> np.ndarray:
    """Weighted sum of predictions, rounded half up and clipped to range."""
    if len(predictions) != len(weights) or not predictions:
        raise ValueError("predictions and weights must pair up")
    # The float64 sum runs in mode order from the first product, as 0.0 + p == p.
    acc = np.multiply(predictions[0], float(weights[0]), dtype=np.float64)
    for pred, w in zip(predictions[1:], weights[1:]):
        acc += np.multiply(pred, float(w), dtype=np.float64)
    out = np.floor(acc + 0.5)
    # In-place maximum and minimum: np.clip's Python wrapper costs more than both.
    return np.minimum(np.maximum(out, 0, out=out), (1 << bit_depth) - 1, out=out).astype(np.int32)


def pool_costs(we: int, he: int, strips: tuple[Rect, ...], metric: str, samples: bytes) -> np.ndarray:
    """Costs of the pool these inputs make: ALL_MODES order, then one per BV row.

    samples packs, as uint16, the 2 * (we + he + 1) samples of the padded
    reference line of the (he, we) template-extended block and then its
    gathered template rows (the block's own first); strips are the
    template's rectangles relative to that block.  The costs depend on
    these arguments alone, which is what lets EncodeContext.memo cache
    them.
    """
    layout = strip_layout(tuple((h, w) for _, _, w, h in strips))
    samples = np.frombuffer(samples, dtype=np.uint16)
    n_line = 2 * (we + he + 1)
    preds = predict_template(samples[:n_line], we, he, strips)
    rows = samples[n_line:].reshape(-1, preds.shape[1])
    diffs = np.concatenate((preds, rows[1:])) if len(rows) > 1 else preds
    diffs -= rows[0]
    return layout_cost(diffs, layout, metric)


def evaluate_candidates(
    buf: ReconBuffer,
    block: BlockRef,
    t: int,
    metric: str,
    bv_list: Sequence[BvCandidate] = (),
    costing: Callable[..., np.ndarray] = pool_costs,
) -> CandidatePool:
    """Template losses for Planar, DC, all angular modes, and listed BVs.

    Every candidate is costed on the identical template geometry: the
    frame-clipped above/left strips of the block, in their cost layout.
    Mode candidates predict only those samples, all 67 at once, as part
    of the template-extended block predicted from its own references,
    placed by the same strips made relative to it.
    The block's template and every listed BV's displaced template come
    from one gather, which raises CausalityError unless each displaced
    strip is committed, and all 67 + len(bv_list) rows are costed with
    one layout_cost call, so a BV costs the same as on either side of
    the TMP competition.  The pool holds the costs in ALL_MODES order,
    then in BV-list order.  costing is pool_costs or a cache of it; the
    samples are read and checked before it is called.
    """
    rects = [r for r in template_rects(block, t, buf.width, buf.height) if r is not None]
    if not rects:
        raise ValueError("block has no template; fall back to DC instead")

    ex, ey, we, he = extended_rect(block, t)
    strips = tuple((x - ex, y - ey, w, h) for x, y, w, h in rects)
    line = build_reference_samples(buf, ex, ey, we, he)
    _, rows = gather_templates(buf, rects, [0, *(c.bv.dx for c in bv_list)], [0, *(c.bv.dy for c in bv_list)])
    packed = np.empty(len(line) + rows.size, dtype=np.uint16)
    packed[: len(line)], packed[len(line) :] = line, rows.ravel()
    return CandidatePool(costing(we, he, strips, metric, packed.tobytes()), bv_list)


def _ranking(candidates: Sequence[ModeCandidate]) -> tuple[list[int], list[int], np.ndarray]:
    """Positions of a pool or candidate list in ranking order, the kind rank at each rank, and the costs.

    The one ranking rule sorts on the cost, then on the tie place of _tie_keys.
    """
    if isinstance(candidates, CandidatePool):
        cost = candidates.costs
        kind_rank, place = _pool_rank_keys(len(candidates.bv_list))
    else:
        cost = np.array([c.cost for c in candidates], dtype=np.int64)
        kind_rank, place = _tie_keys(candidates)
    order = np.lexsort((place, cost))
    return order.tolist(), kind_rank[order].tolist(), cost


def _first_rank(ranks: list[int], kind: str, start: int = 0) -> int:
    """The first rank from start that holds a candidate of kind, or len(ranks) if none does."""
    try:
        return ranks.index(_KIND_RANK[kind], start)
    except ValueError:
        return len(ranks)


def _fusion_of(candidates: Sequence[ModeCandidate], order: list[int], picked: list[int]) -> FusionSet:
    """FusionSet of the picked ranks, in ranking order; builds only those candidates."""
    return FusionSet([candidates[order[r]] for r in sorted(picked)])


def select_modes_timd(candidates: Sequence[ModeCandidate]) -> FusionSet:
    """Baseline selection: best angular, 2x-gated runner-up, 2x-gated extra."""
    order, ranks, cost = _ranking(candidates)
    first = _first_rank(ranks, "angular")
    if first == len(ranks):
        raise ValueError("TIMD needs angular candidates")
    second = _first_rank(ranks, "angular", first + 1)
    extra = min(_first_rank(ranks, "planar"), _first_rank(ranks, "dc"))
    best = cost.item(order[first])
    picked = [first] + [r for r in (second, extra) if r < len(ranks) and cost.item(order[r]) < 2 * best]
    return _fusion_of(candidates, order, picked)


def select_modes_etimd(candidates: Sequence[ModeCandidate]) -> FusionSet:
    """Enhanced selection over the merged angular + Planar/DC + BV pool.

    Runner-up joins iff strictly below 1.5x the primary loss (exact in
    integers as 2*L_sec < 3*L_fir); a third mode -- the cheapest member
    of {Planar, DC} or the BV list not yet selected (by pool position)
    -- joins unconditionally whenever two modes were selected.
    """
    order, ranks, cost = _ranking(candidates)
    if not ranks:
        raise ValueError("empty candidate pool")
    if len(ranks) < 2 or 2 * cost.item(order[1]) >= 3 * cost.item(order[0]):
        return _fusion_of(candidates, order, [0])
    # The two selected modes hold ranks 0 and 1, so the third is the first
    # later rank of a Planar, DC or BV candidate: of any kind but angular.
    third = next((r for r in range(2, len(ranks)) if ranks[r] != _KIND_RANK["angular"]), None)
    return _fusion_of(candidates, order, [0, 1] if third is None else [0, 1, third])


@dataclass
class BlockResult:
    """Everything the harness records about one encoded block."""

    block: BlockRef
    tool: str
    fusion: FusionSet
    prediction: np.ndarray = field(repr=False)
    pred_sad: int = 0
    pred_satd: int = 0
    pred_sse: int = 0
    bv_list_len: int = 0
    n_primary: int = 0
    n_ar: int = 0
    transform_modes: tuple[int, ...] | None = None
    transform_class_name: str | None = None
    compaction: float | None = None


@dataclass
class EncodeContext:
    """Mutable per-frame coding state of the encoder and the replay.

    original holds the source samples as loaded; every reader widens
    them.  memo is the lru_cache of pool_costs that derive_fusion costs
    its pools through.
    """

    original: np.ndarray
    buf: ReconBuffer
    store: BvStore
    config: RunConfig
    memo: Callable[..., np.ndarray] = field(default_factory=lambda: lru_cache(POOL_MEMO_ENTRIES)(pool_costs))


def fusion_predictions(buf: ReconBuffer, block: BlockRef, fusion: FusionSet) -> list[np.ndarray]:
    line = None
    preds = []
    for cand in fusion.modes:
        if cand.kind == "bv":
            preds.append(bv_predict(buf, block, cand.bv))
        else:
            if line is None:
                line = build_reference_samples(buf, block.x0, block.y0, block.w, block.h)
            preds.append(predict_mode(line, cand.mode, block.w, block.h))
    return preds


def derive_fusion(ctx: EncodeContext, block: BlockRef, tool: str) -> tuple[FusionSet, list[BvCandidate]]:
    """Decoder-side fusion set and BV list of a block signalled as dc, timd or etimd.

    Reads only the committed reconstruction and the BV store, never the
    source, so the encoder and the replay reach the same answer.
    """
    if tool == "dc":
        return FusionSet([ModeCandidate(cost=0, mode=MODE_DC)]), []
    if tool not in ("timd", "etimd"):
        raise ValueError(f"unknown block label {tool!r}; expected dc, timd or etimd")
    cfg, buf = ctx.config, ctx.buf
    bv_list: list[BvCandidate] = []
    if tool == "etimd" and cfg.use_bv_list:
        bv_list = build_bv_list(ctx.store, buf, block, cfg.template, cfg.n_max, use_ar=cfg.use_ar_bv)
    cands = evaluate_candidates(buf, block, cfg.template, cfg.metric, bv_list, ctx.memo)
    select = select_modes_timd if tool == "timd" else select_modes_etimd
    return select(cands), bv_list


def commit_fusion(ctx: EncodeContext, block: BlockRef, fusion: FusionSet) -> np.ndarray:
    """Predict, fuse, reconstruct, commit, and store the fusion's BVs of one block.

    Returns the fused prediction.
    """
    cfg, buf = ctx.config, ctx.buf
    prediction = fuse(fusion_predictions(buf, block, fusion), fusion.weights, buf.bit_depth)
    orig = ctx.original[block.y0 : block.y0 + block.h, block.x0 : block.x0 + block.w]
    buf.commit_block(block, reconstruct_block(orig, prediction, cfg.closed_loop, cfg.quant_step, buf.bit_depth))
    ctx.store.add(block, [c.bv for c in fusion.modes if c.kind == "bv"])
    return prediction


def _search_fusion(found: SearchResult) -> FusionSet:
    return FusionSet([ModeCandidate(cost=found.cost, bv=found.bv)])


def derive_block_modes(ctx: EncodeContext, block: BlockRef) -> tuple[str, FusionSet, list[BvCandidate]]:
    """Encoder choices on top of derive_fusion: tool, IntraTMP search, TMP competition.

    Returns the block label, the fusion set and the BV candidate list;
    a block the template-matching search codes is labelled intratmp.
    """
    cfg = ctx.config
    has_template = any(template_rects(block, cfg.template, ctx.buf.width, ctx.buf.height))
    tool = cfg.tool if cfg.tool != "dc-only" and has_template else "dc"

    if tool == "intratmp":
        found = tmp_search(
            ctx.buf, block, cfg.search_range, cfg.template, cfg.metric, strict_template=False
        )
        if found is not None:
            return "intratmp", _search_fusion(found), []
        tool = "dc"
    fusion, bv_list = derive_fusion(ctx, block, tool)
    if tool == "etimd" and cfg.use_bv_list and cfg.tmp_compete:
        found = tmp_search(
            ctx.buf,
            block,
            cfg.search_range,
            cfg.template,
            cfg.metric,
            strict_template=True,
            below=fusion.modes[0].cost,
        )
        if found is not None:
            return "intratmp", _search_fusion(found), bv_list
    return tool, fusion, bv_list


def encode_block(ctx: EncodeContext, block: BlockRef) -> BlockResult:
    """Derive modes, then predict, reconstruct, commit, and record one block; measure nothing."""
    tool, fusion, bv_list = derive_block_modes(ctx, block)
    return BlockResult(
        block=block,
        tool=tool,
        fusion=fusion,
        prediction=commit_fusion(ctx, block, fusion),
        bv_list_len=len(bv_list),
        n_primary=sum(1 for c in bv_list if c.provenance == Provenance.PRIMARY),
        n_ar=sum(1 for c in bv_list if c.provenance == Provenance.AUTO_RELOCATED),
    )


def measure_blocks(ctx: EncodeContext, results: list[BlockResult]) -> list[BlockResult]:
    """Fill in the measured fields of a batch of coded blocks; returns their results in order.

    The blocks are stacked per shape, and each stack's residuals, source
    minus prediction, are formed once: one sad, one satd and one
    squared-error sum read that residual stack, and so do the transforms.
    With use_hog_transform, a block's transform modes are its first two
    fusion entries: each stack's BV entries among them read their
    predictors back from the reconstruction, and one
    transform_mode_for_block call maps those to HoG modes.  Each (shape,
    transform class) of transform size then gets one apply_transform and
    one energy_compaction call over its k = h*w/4 lowest frequencies.
    """
    by_shape: dict[tuple[int, int], list[BlockResult]] = defaultdict(list)
    for res in results:
        by_shape[(res.block.h, res.block.w)].append(res)
    for (h, w), group in by_shape.items():
        origs = np.stack([ctx.original[r.block.y0 : r.block.y0 + h, r.block.x0 : r.block.x0 + w] for r in group])
        preds = np.stack([r.prediction for r in group])
        residuals = origs - preds
        sads, satds = sad(residuals).tolist(), satd(residuals).tolist()
        sses = (residuals * residuals).sum(axis=(1, 2)).tolist()
        for res, measured in zip(group, zip(sads, satds, sses)):
            res.pred_sad, res.pred_satd, res.pred_sse = measured
        if not ctx.config.use_hog_transform:
            continue
        leads = [res.fusion.modes[:2] for res in group]
        modes = [[c.mode for c in lead] for lead in leads]
        bvs = [(n, j) for n, lead in enumerate(leads) for j, c in enumerate(lead) if c.kind == "bv"]
        if bvs:
            bv_preds = np.stack([bv_predict(ctx.buf, group[n].block, leads[n][j].bv) for n, j in bvs])
            for (n, j), mode in zip(bvs, transform_mode_for_block(bv_preds)):
                modes[n][j] = mode
        classes = [transform_class(m[0]) for m in modes]
        for res, m, klass in zip(group, modes, classes):
            res.transform_modes, res.transform_class_name = tuple(m), klass.name
        if h not in TRANSFORM_SIZES or w not in TRANSFORM_SIZES:
            continue
        for klass in set(classes):
            rows = [n for n, c in enumerate(classes) if c is klass]
            compactions = energy_compaction(apply_transform(residuals[rows], klass), max(1, h * w // 4))
            for n, compaction in zip(rows, compactions.tolist()):
                group[n].compaction = compaction
    return results
