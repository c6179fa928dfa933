"""Spans and counts around intralab's public functions, from outside the program.

The modules import each other's functions by name (``from .x import y``),
so a function is replaced in every intralab module namespace that holds it,
and methods are replaced on their class.  ``Tracer`` records one span per
call (name, start, end, parent) in memory; ``count_pass`` installs only
counters and the ``ReconBuffer.read_hook``, and is run apart from the timed
passes because the hook costs a Python call per template-search candidate.
"""

from __future__ import annotations

import inspect
import os
import statistics
import sys
import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Iterator

from intralab import bvlist, cost, etimd, frames, grid, harness, hog, intra, reporting, tmp, transforms

# Called after each traced call with (counts, args, kwargs, result).
CountFn = Callable[[Counter, tuple, dict, Any], None]


def _count_satd_batch(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    size = int(args[0].size)
    counts["cost.satd_batch.samples"] += size
    counts["cost.satd_batch.bytes_computed"] += 8 * size  # int64 differences, from the shape


def _count_read_region(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["grid.read_region.samples"] += int(result.size)


def _count_load_frame(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["frames.load_frame.bytes"] += int(result.samples.size) * (1 if result.bit_depth == 8 else 2)


def _count_candidates(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["etimd.candidates_costed"] += len(result)


def _count_report_bytes(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["reporting.write_report.bytes"] += os.path.getsize(args[1])


# (span name, owner, attribute, counter).  Several attributes may share a span name.
TRACED: list[tuple[str, Any, str, CountFn | None]] = [
    ("harness.encode_frame", harness, "encode_frame", None),
    ("harness.replay_frame", harness, "replay_frame", None),
    ("frames.load_frame", frames, "load_frame", _count_load_frame),
    ("tmp.search", tmp, "tmp_search", None),
    ("tmp.template_cost_at", tmp, "template_cost_at", None),
    ("cost.satd_batch", cost, "satd_batch", _count_satd_batch),
    ("cost.satd", cost, "satd", None),
    ("cost.sad", cost, "sad", None),
    ("intra.predict_mode", intra, "predict_mode", None),
    ("intra.build_reference_samples", intra, "build_reference_samples", None),
    ("etimd.encode_block", etimd, "encode_block", None),
    ("etimd.derive_block_modes", etimd, "derive_block_modes", None),
    ("etimd.evaluate_candidates", etimd, "evaluate_candidates", _count_candidates),
    ("etimd.select_modes", etimd, "select_modes_etimd", None),
    ("etimd.select_modes", etimd, "select_modes_timd", None),
    ("etimd.fusion", etimd, "fusion_predictions", None),
    ("etimd.fusion", etimd, "fuse", None),
    ("bvlist.build", bvlist, "build_bv_list", None),
    ("grid.read_region", grid.ReconBuffer, "read_region", _count_read_region),
    ("grid.commit_block", grid.ReconBuffer, "commit_block", None),
    ("grid.reconstruct_block", grid, "reconstruct_block", None),
    ("hog.transform_mode_for_block", hog, "transform_mode_for_block", None),
    ("transforms.apply_transform", transforms, "apply_transform", None),
    ("transforms.energy_compaction", transforms, "energy_compaction", None),
    ("reporting.records", reporting.BlockRecord, "from_result", None),
    ("reporting.aggregates", reporting, "compute_aggregates", None),
    ("reporting.write_report", reporting, "write_report", _count_report_bytes),
]


@contextmanager
def patched(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace owner.attr by make(original) wherever intralab holds it, then restore."""
    original = owner.__dict__[attr]
    undo: list[tuple[Any, Any]] = []
    if isinstance(owner, type):
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))
        undo.append((owner, original))
    else:
        wrapped = make(original)
        for name, module in list(sys.modules.items()):
            if (name == "intralab" or name.startswith("intralab.")) and module.__dict__.get(attr) is original:
                setattr(module, attr, wrapped)
                undo.append((module, original))
    try:
        yield
    finally:
        for target, value in undo:
            setattr(target, attr, value)


@contextmanager
def patched_all(patches: list[tuple[Any, str, Callable[[Callable], Callable]]]) -> Iterator[None]:
    with ExitStack() as stack:
        for owner, attr, make in patches:
            stack.enter_context(patched(owner, attr, make))
        yield


class Tracer:
    """In-memory span recorder; spans are (name, start, end, parent index)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str, fn: Callable, count: CountFn | None = None) -> Callable:
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self) -> Iterator[None]:
        patches = [
            (owner, attr, lambda fn, n=name, c=count: self.span(n, fn, c))
            for name, owner, attr, count in TRACED
        ]
        with patched_all(patches):
            yield

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    def summary(self) -> dict[str, Any]:
        """Per-name calls, total and self seconds; self seconds per layer inside encode_frame.

        Self time is a span's duration minus its children's durations
        (children of a synchronous call nest inside it).
        """
        spans = self.spans
        n = len(spans)
        child = [0.0] * n
        top = [0] * n
        for i, (_, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                top[i] = top[parent]
            else:
                top[i] = i
        calls: Counter = Counter()
        total: Counter = Counter()
        self_s: Counter = Counter()
        encode_layer_self: Counter = Counter()
        for i, (name, start, end, _) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - child[i]
            if spans[top[i]][0] == "harness.encode_frame":
                encode_layer_self[name.split(".")[0]] += dur - child[i]
        return {
            "calls": calls,
            "total": total,
            "self": self_s,
            "encode_layer_self": encode_layer_self,
            "spans": n,
        }


def _search_window(buf: grid.ReconBuffer, block: grid.BlockRef, search_range: int | None, t: int) -> int:
    """Candidate positions in tmp_search's window, by the same arithmetic."""
    if not any(tmp.template_rects(block, t, buf.width, buf.height)):
        return 0
    x0, y0, w, h = block.x0, block.y0, block.w, block.h
    if search_range is None:
        nx, ny = buf.width - w + 1, buf.height - h + 1
    else:
        nx = min(search_range, buf.width - w - x0) - max(-search_range, -x0) + 1
        ny = min(search_range, buf.height - h - y0) - max(-search_range, -y0) + 1
    return max(nx, 0) * max(ny, 0)


def count_pass(encode: Callable[[], list]) -> Counter:
    """Run encode() with counters on template search and the BV list.

    Costed candidates come from ReconBuffer.read_hook: tmp_search reports
    each displaced template strip it costs, and each distinct displacement
    is one costed candidate.  Sampled BVs are the primaries plus the
    auto-relocated BVs before deduplication.
    """
    counts: Counter = Counter()
    search_sig = inspect.signature(tmp.tmp_search)

    def wrap_search(fn):
        def wrapper(*args, **kwargs):
            bound = search_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            buf, block = bound.arguments["buf"], bound.arguments["block"]
            t = bound.arguments["t"]
            # The above and left strips differ in shape for blocks of 8 and up,
            # so the shape of a read names the strip it displaces.
            origin = {(r[2], r[3]): (r[0], r[1]) for r in tmp.template_rects(block, t, buf.width, buf.height) if r}
            seen: set[tuple[int, int]] = set()

            def hook(x: int, y: int, w: int, h: int) -> None:
                sx, sy = origin.get((w, h), (x, y))
                if (x, y) != (sx, sy):
                    seen.add((x - sx, y - sy))

            previous, buf.read_hook = buf.read_hook, hook
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.read_hook = previous
            counts["tmp.search.calls"] += 1
            counts["tmp.window_candidates"] += _search_window(buf, block, bound.arguments["search_range"], t)
            counts["tmp.costed_candidates"] += len(seen)
            return result

        return wrapper

    def wrap_sampled(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["bvlist.sampled"] += len(result)
            return result

        return wrapper

    def wrap_build(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["bvlist.kept"] += len(result)
            counts["bvlist.kept_ar"] += sum(1 for c in result if c.provenance == bvlist.Provenance.AUTO_RELOCATED)
            return result

        return wrapper

    def wrap_select(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["bvlist.fused"] += sum(1 for c in result.modes if c.kind == "bv")
            return result

        return wrapper

    patches = [
        (tmp, "tmp_search", wrap_search),
        (bvlist, "sample_spatial_bvs", wrap_sampled),
        (bvlist, "derive_ar_bvs", wrap_sampled),
        (bvlist, "build_bv_list", wrap_build),
        (etimd, "select_modes_etimd", wrap_select),
    ]
    with patched_all(patches):
        results = encode()
    counts["tmp.compete_wins"] += sum(1 for r in results if r.tool == "intratmp")
    return counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(
    spans: list[tuple[str, float, float, int]],
    summary: dict[str, Any],
    counts: Counter,
    passes: Counter,
    untraced_encode_s: float,
    synth_s: float,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced run plus one count pass."""
    calls, self_s, total = summary["calls"], summary["self"], summary["total"]
    traced_encode_s = total["harness.encode_frame"]
    enc_self = summary["encode_layer_self"]
    block_ms = [1000.0 * (end - start) for name, start, end, _ in spans if name == "etimd.encode_block"]

    def c(name: str) -> tuple[float, str]:
        return float(calls[name]), "count"

    def s(name: str) -> tuple[float, str]:
        return float(self_s[name]), "s"

    def n(name: str, source: Counter, unit: str = "count") -> tuple[float, str]:
        return float(source[name]), unit

    def pct_of_encode(layer: str) -> tuple[float, str]:
        return 100.0 * _ratio(enc_self[layer], traced_encode_s), "%"

    return {
        "tmp.search.calls": c("tmp.search"),
        "tmp.search.self_s": s("tmp.search"),
        "tmp.window_candidates": n("tmp.window_candidates", passes),
        "tmp.costed_candidates": n("tmp.costed_candidates", passes),
        "tmp.costed_ratio": (_ratio(passes["tmp.costed_candidates"], passes["tmp.window_candidates"]), "ratio"),
        "tmp.compete_win_rate": (_ratio(passes["tmp.compete_wins"], passes["tmp.search.calls"]), "ratio"),
        "tmp.template_cost_at.calls": c("tmp.template_cost_at"),
        "tmp.template_cost_at.self_s": s("tmp.template_cost_at"),
        "cost.satd_batch.calls": c("cost.satd_batch"),
        "cost.satd_batch.self_s": s("cost.satd_batch"),
        "cost.satd_batch.samples": n("cost.satd_batch.samples", counts),
        "cost.satd_batch.bytes_computed": n("cost.satd_batch.bytes_computed", counts, "bytes"),
        "cost.satd.self_s": s("cost.satd"),
        "cost.sad.self_s": s("cost.sad"),
        "intra.predict_mode.calls": c("intra.predict_mode"),
        "intra.predict_mode.self_s": s("intra.predict_mode"),
        "intra.build_reference_samples.calls": c("intra.build_reference_samples"),
        "intra.build_reference_samples.self_s": s("intra.build_reference_samples"),
        "etimd.encode_block.calls": c("etimd.encode_block"),
        "etimd.encode_block.ms_p50": (_percentile(block_ms, 50), "ms"),
        "etimd.encode_block.ms_p95": (_percentile(block_ms, 95), "ms"),
        "etimd.derive_block_modes.self_s": s("etimd.derive_block_modes"),
        "etimd.evaluate_candidates.calls": c("etimd.evaluate_candidates"),
        "etimd.evaluate_candidates.self_s": s("etimd.evaluate_candidates"),
        "etimd.candidates_costed": n("etimd.candidates_costed", counts),
        "etimd.select_modes.self_s": s("etimd.select_modes"),
        "etimd.fusion.self_s": s("etimd.fusion"),
        "bvlist.build.calls": c("bvlist.build"),
        "bvlist.build.self_s": s("bvlist.build"),
        "bvlist.sampled": n("bvlist.sampled", passes),
        "bvlist.kept": n("bvlist.kept", passes),
        "bvlist.kept_ratio": (_ratio(passes["bvlist.kept"], passes["bvlist.sampled"]), "ratio"),
        "bvlist.ar_share": (_ratio(passes["bvlist.kept_ar"], passes["bvlist.kept"]), "ratio"),
        "bvlist.fused_ratio": (_ratio(passes["bvlist.fused"], passes["bvlist.kept"]), "ratio"),
        "grid.read_region.calls": c("grid.read_region"),
        "grid.read_region.samples": n("grid.read_region.samples", counts),
        "grid.read_region.self_s": s("grid.read_region"),
        "grid.commit_block.self_s": s("grid.commit_block"),
        "grid.reconstruct_block.self_s": s("grid.reconstruct_block"),
        "hog.transform_mode_for_block.calls": c("hog.transform_mode_for_block"),
        "hog.transform_mode_for_block.self_s": s("hog.transform_mode_for_block"),
        "transforms.apply_transform.self_s": s("transforms.apply_transform"),
        "transforms.energy_compaction.self_s": s("transforms.energy_compaction"),
        "frames.load_frame.s": (float(total["frames.load_frame"]), "s"),
        "frames.load_frame.bytes": n("frames.load_frame.bytes", counts, "bytes"),
        "synth.generate_s": (synth_s, "s"),
        "reporting.records_s": (float(total["reporting.records"]), "s"),
        "reporting.aggregates_s": (float(total["reporting.aggregates"]), "s"),
        "reporting.write_report.s": (float(total["reporting.write_report"]), "s"),
        "reporting.write_report.bytes": n("reporting.write_report.bytes", counts, "bytes"),
        "trace.encode_pct.tmp": pct_of_encode("tmp"),
        "trace.encode_pct.cost": pct_of_encode("cost"),
        "trace.encode_pct.intra": pct_of_encode("intra"),
        "trace.spans": (float(summary["spans"]), "count"),
        "trace.overhead_pct": (100.0 * _ratio(traced_encode_s - untraced_encode_s, untraced_encode_s), "%"),
    }
