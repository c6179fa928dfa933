"""Experiment harness: run configuration, frame encoding, replay, A/B deltas.

A run encodes one or more frames block by block, records everything in
a Report, and optionally replays the whole frame the way a decoder
would: re-deriving the fused modes from the committed reconstruction
alone and checking they match what the encoder chose.  Encode and
replay share one state, a fresh etimd.EncodeContext from _context, and
one path: derive_fusion derives a dc/timd/etimd block's fusion from
decoder-visible state only, and commit_fusion predicts, reconstructs
and commits every block.  TIMD-style derivation only works if both
sides reach the same answer, so the replay is asserted, not sampled.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from operator import attrgetter
from typing import Any

import numpy as np

from .bvlist import DEFAULT_N_MAX, BvStore
from .cost import METRICS
from .errors import FormatError, ReplayMismatchError, ValidationError
from .etimd import (
    MEASURE_BATCH,
    TOOLS,
    BlockResult,
    EncodeContext,
    commit_fusion,
    derive_fusion,
    encode_block,
    measure_blocks,
)
from .frames import BIT_DEPTHS, FORMATS, Frame, load_frame
from .grid import BLOCK_SIZES, ReconBuffer, partition
from .reporting import JSON_TYPE_CHECKS, BlockRecord, Report, compute_aggregates
from .tmp import DEFAULT_SEARCH_RANGE, DEFAULT_TEMPLATE, TEMPLATES


def _one_of(default: Any, choices: tuple) -> Any:
    return field(default=default, metadata={"choices": choices})


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one experiment run.

    A field with "choices" metadata takes only those values.  The `run`
    flags, their choices and the validation all derive from these fields.
    search_range None means the full causal area.
    """

    input_path: str
    input_format: str = _one_of("yuv-planar", FORMATS)
    width: int = 0
    height: int = 0
    bit_depth: int = _one_of(8, BIT_DEPTHS)
    frame_start: int = 0
    frame_count: int = 1
    block_size: int = _one_of(16, BLOCK_SIZES)
    tool: str = _one_of("etimd", TOOLS)
    metric: str = _one_of("satd", METRICS)
    use_bv_list: bool = True
    use_ar_bv: bool = True
    use_hog_transform: bool = False
    tmp_compete: bool = True
    closed_loop: bool = False
    quant_step: int = 8
    search_range: int | None = DEFAULT_SEARCH_RANGE
    template: int = _one_of(DEFAULT_TEMPLATE, TEMPLATES)
    n_max: int = DEFAULT_N_MAX
    parallel: bool = False
    measure_replay: bool = True


def validate_config(config: RunConfig) -> None:
    def require(ok: bool, message: str) -> None:
        if not ok:
            raise ValidationError(message)

    for f in fields(config):
        if "choices" in f.metadata:
            choices = f.metadata["choices"]
            require(getattr(config, f.name) in choices, f"{f.name} must be one of {choices}")
    require(config.width >= 1 and config.height >= 1, "width and height must be positive")
    require(config.frame_start >= 0, "frame_start must be >= 0")
    require(config.frame_count >= 1, "frame_count must be >= 1")
    require(0 <= config.n_max <= sys.maxsize, f"n_max must be >= 0 and <= {sys.maxsize}")
    require(config.quant_step >= 1, "quant_step must be >= 1")
    require(
        config.search_range is None or config.search_range >= 1,
        "search_range must be None (full) or >= 1",
    )


def config_from_dict(values: dict[str, Any]) -> RunConfig:
    """Build a RunConfig from a plain dict, rejecting unknown keys and
    values whose type does not match the field's annotation."""
    annotations = {f.name: f.type for f in fields(RunConfig)}
    unknown = sorted(set(values) - set(annotations))
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    if "input_path" not in values:
        raise ValidationError("config needs input_path")
    for name, value in values.items():
        if not JSON_TYPE_CHECKS[annotations[name]](value):
            raise ValidationError(f"config value {name}={value!r} must be {annotations[name]}")
    return RunConfig(**values)


def _context(frame: Frame, config: RunConfig) -> EncodeContext:
    """Fresh coding state of one frame and side: nothing committed, no BV recorded, no pool memoized."""
    buf = ReconBuffer(frame.width, frame.height, frame.bit_depth)
    return EncodeContext(frame.samples, buf, BvStore(frame.width, frame.height), config)


def encode_frame(
    frame: Frame, config: RunConfig
) -> tuple[list[BlockResult], ReconBuffer, BvStore]:
    """Encode every block of one frame in raster-scan order.

    Each block is coded in turn; the coded blocks are measured in
    batches of MEASURE_BATCH, which nothing in the loop waits for.
    """
    ctx = _context(frame, config)
    results: list[BlockResult] = []
    batch: list[BlockResult] = []
    for block in partition(frame.width, frame.height, config.block_size):
        batch.append(encode_block(ctx, block))
        if len(batch) == MEASURE_BATCH:
            results += measure_blocks(ctx, batch)
            batch = []
    results += measure_blocks(ctx, batch)
    return results, ctx.buf, ctx.store


def replay_frame(frame: Frame, config: RunConfig, results: list[BlockResult]) -> ReconBuffer:
    """Re-derive every block decoder-side and check it matches the encode.

    intratmp blocks carry their BV as coded side info; dc, timd and etimd
    fusions are re-derived by derive_fusion off the committed
    reconstruction and must agree mode-for-mode before commit_fusion
    commits the block.
    """
    ctx = _context(frame, config)
    for res in results:
        block = res.block
        if res.tool == "intratmp":
            fusion = res.fusion
        else:
            fusion, _ = derive_fusion(ctx, block, res.tool)
            if fusion != res.fusion:
                raise ReplayMismatchError(
                    f"block {block.scan_index} at ({block.x0},{block.y0}): "
                    f"encoder derived {res.fusion}, replay derived {fusion}"
                )
        prediction = commit_fusion(ctx, block, fusion)
        if not np.array_equal(prediction, res.prediction):
            raise ReplayMismatchError(
                f"block {block.scan_index} at ({block.x0},{block.y0}): prediction diverged"
            )
    return ctx.buf


def run_experiment(config: RunConfig) -> Report:
    """Encode the configured frames and assemble the full report.

    The last frame loads first, so truncated input fails before any
    encode.  run_frame loads one frame and takes it through encode,
    replay and records, serially or in a thread pool, so only frames in
    flight stay resident; timing["encode_s"] and ["replay_s"] sum its times.
    """
    validate_config(config)

    def load(i: int) -> Frame:
        return load_frame(config.input_path, config.input_format, config.width, config.height,
                          bit_depth=config.bit_depth, frame_index=config.frame_start + i)

    load(config.frame_count - 1)

    def run_frame(i: int) -> tuple[list[BlockRecord], float, float]:
        frame = load(i)
        t0 = time.perf_counter()
        results, _, _ = encode_frame(frame, config)
        t1 = time.perf_counter()
        if config.measure_replay:
            replay_frame(frame, config, results)
        t2 = time.perf_counter()
        return [BlockRecord.from_result(config.frame_start + i, res) for res in results], t1 - t0, t2 - t1

    if config.parallel and config.frame_count > 1:
        # frames are independent runs, so cross-frame threading is safe
        with ThreadPoolExecutor() as pool:
            runs = list(pool.map(run_frame, range(config.frame_count)))
    else:
        runs = [run_frame(i) for i in range(config.frame_count)]
    records = [rec for frame_records, _, _ in runs for rec in frame_records]
    timing = {"encode_s": sum(run[1] for run in runs)}
    if config.measure_replay:
        timing["replay_s"] = sum(run[2] for run in runs)
    return Report(
        config=asdict(config),
        records=records,
        aggregates=compute_aggregates(records, config.bit_depth),
        timing=timing,
    )


@dataclass
class RunDelta:
    """Block-matched comparison of run B against baseline run A."""

    n_blocks: int
    wins: int
    losses: int
    ties: int
    mean_sad_a: float
    mean_sad_b: float
    mean_sad_change_pct: float | None
    mean_satd_a: float
    mean_satd_b: float
    mean_satd_change_pct: float | None
    psnr_a_db: float
    psnr_b_db: float
    psnr_delta_db: float
    enc_time_ratio_pct: float | None
    replay_time_ratio_pct: float | None
    sad_deltas: list[int]

    @property
    def win_rate(self) -> float:
        return self.wins / self.n_blocks

    @property
    def tie_rate(self) -> float:
        return self.ties / self.n_blocks

    @property
    def non_loss_rate(self) -> float:
        return (self.wins + self.ties) / self.n_blocks

    def as_dict(self) -> dict[str, Any]:
        doc = asdict(self)
        doc["win_rate"] = self.win_rate
        doc["tie_rate"] = self.tie_rate
        doc["non_loss_rate"] = self.non_loss_rate
        return doc


def _pct_change(a: float, b: float) -> float | None:
    if a == 0:
        return None
    return 100.0 * (b - a) / a


def _ratio_pct(a: float | None, b: float | None) -> float | None:
    if a is None or b is None or a == 0:
        return None
    return 100.0 * b / a


def compare_runs(a: Report, b: Report) -> RunDelta:
    """Per-block deltas between two runs over the identical grid.

    Raises FormatError, as for any other unusable report, unless both
    runs partitioned the same frames into the same blocks, and at least
    one.  Lower prediction SAD in run B counts as a win for B.
    """
    if len(a.records) != len(b.records):
        raise FormatError("runs cover different block counts")
    if not a.records:
        raise FormatError("runs hold no blocks to compare")
    grid = attrgetter("frame", "scan_index", "x0", "y0", "w", "h")
    if any(grid(ra) != grid(rb) for ra, rb in zip(a.records, b.records)):
        raise FormatError("runs cover different block grids")

    sad_deltas = [rb.pred_sad - ra.pred_sad for ra, rb in zip(a.records, b.records)]
    wins = sum(1 for d in sad_deltas if d < 0)
    losses = sum(1 for d in sad_deltas if d > 0)
    ties = len(sad_deltas) - wins - losses

    n = len(a.records)
    mean_sad_a = sum(r.pred_sad for r in a.records) / n
    mean_sad_b = sum(r.pred_sad for r in b.records) / n
    mean_satd_a = sum(r.pred_satd for r in a.records) / n
    mean_satd_b = sum(r.pred_satd for r in b.records) / n
    psnr_a = float(a.aggregates["psnr_db"])
    psnr_b = float(b.aggregates["psnr_db"])
    psnr_delta = 0.0 if psnr_a == psnr_b else psnr_b - psnr_a

    return RunDelta(
        n_blocks=n,
        wins=wins,
        losses=losses,
        ties=ties,
        mean_sad_a=mean_sad_a,
        mean_sad_b=mean_sad_b,
        mean_sad_change_pct=_pct_change(mean_sad_a, mean_sad_b),
        mean_satd_a=mean_satd_a,
        mean_satd_b=mean_satd_b,
        mean_satd_change_pct=_pct_change(mean_satd_a, mean_satd_b),
        psnr_a_db=psnr_a,
        psnr_b_db=psnr_b,
        psnr_delta_db=psnr_delta,
        enc_time_ratio_pct=_ratio_pct(a.timing.get("encode_s"), b.timing.get("encode_s")),
        replay_time_ratio_pct=_ratio_pct(a.timing.get("replay_s"), b.timing.get("replay_s")),
        sad_deltas=sad_deltas,
    )
