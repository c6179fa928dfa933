"""Benchmark for intralab: encode, replay and report frames in a closed loop.

    python3 perfbench/run.py --workload screen-etimd --seed 1 --seconds 36 --trace 0

Set-up runs ``setup_frames.py`` in fresh interpreters (the median of
several is ``setup_s``).  The loop then loads one frame of the workload's
cycle, encodes it, replays it, writes its report, and only then starts the
next frame, until the next frame would end after ``--seconds``.  Every
frame's ``pred_hash`` values are checked against ``reference/<workload>.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each frame
untraced, then traced, then twice through the count pass, and prints the
per-layer metrics.  The last line of standard output is one JSON object.
The program runs in this process with no worker threads.
"""

from __future__ import annotations

import os

# Cap BLAS threads before numpy loads: at most the 2 cores of the reference box.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(os.cpu_count() or 1, 2))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import CYCLE, SIZE, WORKLOADS, variant_of  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "reference"
SETUP_REPEATS = 7
MIN_FRAMES = 2  # mean_pred_sad covers the first MIN_FRAMES frames of every run
EXIT_NO_PROGRAM = 2
EXIT_SETUP_FAILED = 3


@dataclass
class FrameOutcome:
    slot: int
    n_blocks: int
    encode_s: float
    replay_s: float
    frame_s: float
    pred_hashes: list[str]
    sum_pred_sad: int
    records: list
    replay_error: str | None


def frame_config(wl, path: str, slot: int):
    from intralab.harness import RunConfig, validate_config

    cfg = RunConfig(
        input_path=path,
        width=SIZE,
        height=SIZE,
        bit_depth=wl.bit_depth,
        frame_start=slot,
        parallel=False,
        **wl.config,
    )
    validate_config(cfg)
    return cfg


def process_frame(wl, path: str, slot: int, report_path: str) -> FrameOutcome:
    """One turn of the closed loop, the way ``intralab run`` does it in-process."""
    from intralab import errors, frames, harness, reporting

    cfg = frame_config(wl, path, slot)
    t0 = time.perf_counter()
    frame = frames.load_frame(path, "yuv-planar", SIZE, SIZE, bit_depth=wl.bit_depth, frame_index=slot)
    t1 = time.perf_counter()
    results, _, _ = harness.encode_frame(frame, cfg)
    t2 = time.perf_counter()
    replay_error = None
    try:
        harness.replay_frame(frame, cfg, results)
    except errors.IntralabError as exc:
        replay_error = f"{type(exc).__name__}: {exc}"
    t3 = time.perf_counter()
    records = [reporting.BlockRecord.from_result(slot, r) for r in results]
    report = reporting.Report(
        config=asdict(cfg),
        records=records,
        aggregates=reporting.compute_aggregates(records, cfg.bit_depth),
        timing={"encode_s": t2 - t1, "replay_s": t3 - t2},
    )
    reporting.write_report(report, report_path)
    t4 = time.perf_counter()
    return FrameOutcome(
        slot=slot,
        n_blocks=len(results),
        encode_s=t2 - t1,
        replay_s=t3 - t2,
        frame_s=t4 - t0,
        pred_hashes=[r.pred_hash for r in records],
        sum_pred_sad=sum(r.pred_sad for r in records),
        records=records,
        replay_error=replay_error,
    )


def frame_reference(outcome: FrameOutcome) -> dict:
    """What reference.json stores for one frame.

    digest is a SHA-1 over every block's pred_hash in scan order; tags holds
    the first 4 hex digits of each pred_hash, to count mismatching blocks.
    """
    return {
        "n_blocks": outcome.n_blocks,
        "digest": hashlib.sha1("\n".join(outcome.pred_hashes).encode("ascii")).hexdigest(),
        "tags": "".join(h[:4] for h in outcome.pred_hashes),
        "sum_pred_sad": outcome.sum_pred_sad,
    }


def failed_blocks(outcome: FrameOutcome, expected: dict) -> int:
    """Blocks whose replay failed or whose pred_hash differs from the reference."""
    got = frame_reference(outcome)
    if outcome.replay_error is not None or got["n_blocks"] != expected["n_blocks"]:
        return outcome.n_blocks
    if got["digest"] == expected["digest"] and got["sum_pred_sad"] == expected["sum_pred_sad"]:
        return 0
    tags, want = got["tags"], expected["tags"]
    mismatched = sum(1 for i in range(0, len(tags), 4) if tags[i : i + 4] != want[i : i + 4])
    return max(mismatched, 1)


def setup(workload: str, seed: int, out: Path) -> list[float]:
    """Run the cold-start set-up SETUP_REPEATS times; return each wall time."""
    times = []
    cmd = [sys.executable, str(HERE / "setup_frames.py"), "--workload", workload, "--seed", str(seed), "--out", str(out)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(EXIT_SETUP_FAILED)
    return times


def run_loop(seconds: float, step, min_frames: int) -> None:
    """Call step(i) for frame i until the next frame would end past `seconds`."""
    start = time.perf_counter()
    durations: list[float] = []
    i = 0
    while True:
        t0 = time.perf_counter()
        step(i)
        durations.append(time.perf_counter() - t0)
        i += 1
        elapsed = time.perf_counter() - start
        if i >= min_frames and elapsed + statistics.median(durations) > seconds:
            return


def end_to_end(wl, refs: list, path: str, work: Path, seconds: float, setup_times: list[float]) -> dict:
    from intralab import reporting

    outcomes: list[FrameOutcome] = []

    def step(i: int) -> None:
        outcome = process_frame(wl, path, i % CYCLE, str(work / "report.json"))
        if i >= MIN_FRAMES:
            outcome.records = []
        outcomes.append(outcome)

    run_loop(seconds, step, MIN_FRAMES)
    attempted = sum(o.n_blocks for o in outcomes)
    failed = sum(failed_blocks(o, refs[o.slot]) for o in outcomes)
    first = [r for o in outcomes[:MIN_FRAMES] for r in o.records]
    mean_sad = reporting.compute_aggregates(first, wl.bit_depth)["mean_pred_sad"]
    expected_sad = sum(refs[o.slot]["sum_pred_sad"] for o in outcomes[:MIN_FRAMES]) / len(first)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "encode_blocks_per_s": (attempted / sum(o.encode_s for o in outcomes), "blocks/s"),
        "replay_blocks_per_s": (attempted / sum(o.replay_s for o in outcomes), "blocks/s"),
        "frame_s": (statistics.median(o.frame_s for o in outcomes), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "mean_pred_sad": (mean_sad, "sad"),
    }
    notes = [
        f"frames {len(outcomes)}, blocks {attempted}",
        f"setup_s is the median of {len(setup_times)} cold set-ups",
        f"encode_blocks_per_s and replay_blocks_per_s cover all {len(outcomes)} frames; frame_s is their median",
        f"mean_pred_sad covers the first {MIN_FRAMES} frames ({len(first)} blocks)",
        f"failed_block_share {failed / attempted:.6g} (failed blocks / blocks attempted)",
    ]
    notes.append("encode_s per frame: " + " ".join(f"{o.encode_s:.3f}" for o in outcomes))
    notes.append("replay_s per frame: " + " ".join(f"{o.replay_s:.3f}" for o in outcomes))
    notes += [f"frame slot {o.slot}: replay failed: {o.replay_error}" for o in outcomes if o.replay_error]
    return {
        "correct": failed == 0 and mean_sad == expected_sad,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
    }


def per_layer(wl, variant: int, refs: list, path: str, work: Path, seconds: float, spans_out: Path) -> dict:
    import numpy as np
    from intralab import frames, harness

    import spans

    tracer = spans.Tracer()
    synth_start = time.perf_counter()
    planes = wl.planes(variant)
    synth_s = time.perf_counter() - synth_start
    correct = True
    notes = []
    outcomes: list[FrameOutcome] = []
    untraced_encode_s = 0.0
    passes = None

    def step(i: int) -> None:
        nonlocal untraced_encode_s, passes, correct
        slot = i % CYCLE
        frame = frames.load_frame(path, "yuv-planar", SIZE, SIZE, bit_depth=wl.bit_depth, frame_index=slot)
        if not np.array_equal(frame.samples, planes[slot]):
            correct = False
            notes.append(f"frame slot {slot} does not match its synthesized plane")
        cfg = frame_config(wl, path, slot)
        # The count passes go first so that the untraced and the traced
        # encode both run after the allocator has grown to the frame's needs.
        first, second = (spans.count_pass(lambda: harness.encode_frame(frame, cfg)[0]) for _ in range(2))
        if first != second:
            correct = False
            notes.append(f"frame slot {slot}: count passes differ: {dict(first - second)} vs {dict(second - first)}")
        passes = first if passes is None else passes + first
        t0 = time.perf_counter()
        harness.encode_frame(frame, cfg)
        untraced_encode_s += time.perf_counter() - t0
        with tracer.installed():
            outcomes.append(process_frame(wl, path, slot, str(work / "report.json")))

    run_loop(seconds, step, 1)
    tracer.write(str(spans_out))
    attempted = sum(o.n_blocks for o in outcomes)
    failed = sum(failed_blocks(o, refs[o.slot]) for o in outcomes)
    metrics = spans.layer_metrics(tracer.spans, tracer.summary(), tracer.counts, passes, untraced_encode_s, synth_s)
    notes.insert(0, f"traced frames {len(outcomes)}, blocks {attempted}; spans written to {spans_out}")
    notes.append(f"etimd.encode_block percentiles over {int(metrics['etimd.encode_block.calls'][0])} blocks")
    return {"correct": correct and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics, "notes": notes}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # The program is built from this checkout's src/; never from elsewhere.
    sys.path.insert(0, str(SRC))
    try:
        import intralab
    except ImportError as exc:
        print(f"cannot import intralab from {SRC}: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if Path(intralab.__file__).resolve().parent != SRC / "intralab":
        print(f"intralab was imported from {intralab.__file__}, not from {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    wl = WORKLOADS[args.workload]
    variant = variant_of(args.seed)
    refs = json.loads((REFERENCES / f"{wl.name}.json").read_text(encoding="utf-8"))[str(variant)]

    scratch = ROOT / ".perfbench_work"
    work = scratch / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        frames_path = work / "frames.yuv"
        setup_times = setup(wl.name, args.seed, frames_path)
        if args.trace:
            spans_out = scratch / f"spans-{wl.name}.tsv"
            result = per_layer(wl, variant, refs, str(frames_path), work, args.seconds, spans_out)
        else:
            result = end_to_end(wl, refs, str(frames_path), work, args.seconds, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {wl.name}, seed {args.seed} (input variant {variant}), trace {args.trace}")
    for note in result.pop("notes"):
        print(f"  {note}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:40s} {value:16.6f} {unit}")
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
