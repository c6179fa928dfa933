"""Benchmark set-up, run in a fresh interpreter so its time counts a cold start.

Imports intralab from the checkout, synthesizes the workload's frame cycle,
writes it with ``write_yuv420`` and reads every frame back with
``load_frame``.  Exits 0 only if each frame round-trips exactly.

    python3 perfbench/setup_frames.py --workload screen-etimd --seed 1 --out frames.yuv
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from intralab.frames import load_frame, write_yuv420  # noqa: E402
from workloads import SIZE, WORKLOADS, variant_of  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    wl = WORKLOADS[args.workload]
    planes = wl.planes(variant_of(args.seed))
    write_yuv420(planes, args.out, bit_depth=wl.bit_depth)
    for i, plane in enumerate(planes):
        frame = load_frame(args.out, "yuv-planar", SIZE, SIZE, bit_depth=wl.bit_depth, frame_index=i)
        if not np.array_equal(frame.samples, plane):
            print(f"frame {i} of {args.out} did not round-trip", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
