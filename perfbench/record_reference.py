"""Record the expected per-frame outputs that run.py checks against.

For every input variant of a workload, encodes, replays and reports each
frame of the cycle and stores ``run.frame_reference`` of it in
``reference/<workload>.json``.  Run it only at a commit whose outputs are
known to be right; the stored file is what later commits must reproduce.

    python3 perfbench/record_reference.py --workload natural-timd
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import run
from workloads import VARIANTS, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args()

    sys.path.insert(0, str(run.SRC))
    from intralab.frames import write_yuv420

    wl = WORKLOADS[args.workload]
    work = run.ROOT / ".perfbench_work" / f"record-{wl.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    variants = {}
    try:
        for variant in range(VARIANTS):
            path = str(work / "frames.yuv")
            planes = wl.planes(variant)
            write_yuv420(planes, path, bit_depth=wl.bit_depth)
            frames = []
            for slot in range(len(planes)):
                outcome = run.process_frame(wl, path, slot, str(work / "report.json"))
                if outcome.replay_error is not None:
                    print(f"variant {variant} slot {slot}: {outcome.replay_error}", file=sys.stderr)
                    return 1
                frames.append(run.frame_reference(outcome))
                print(f"{wl.name} variant {variant} slot {slot}: {frames[-1]['digest']}", flush=True)
            variants[str(variant)] = frames
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = run.REFERENCES / f"{wl.name}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(variants, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
