"""A/B sweep: E-TIMD against baseline TIMD on the screen fixtures.

Encodes every fixture with both tools under identical settings and
prints one comparison row per fixture plus a summary.  Reports land in
--out as JSON when given, ready for `python -m intralab compare`.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from intralab.cli import parse_search_range
from intralab.cost import METRICS
from intralab.errors import ValidationError
from intralab.frames import write_yuv420
from intralab.harness import RunConfig, compare_runs, run_experiment, validate_config
from intralab.reporting import write_report
from intralab.synth import SCREEN_FIXTURES


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="directory for per-run JSON reports")
    parser.add_argument("--size", type=int, default=256, help="fixture width and height")
    parser.add_argument("--seed", type=int, default=0, help="base seed for fixture content")
    parser.add_argument("--block-size", type=int, default=16)
    parser.add_argument("--metric", default="satd", choices=METRICS)
    parser.add_argument("--search-range", default="64", help='window radius in samples, or "full"')
    parser.add_argument("--no-ar-bv", action="store_true", help="disable auto-relocated candidates")
    parser.add_argument("--no-compete", action="store_true", help="disable the IntraTMP switch")
    args = parser.parse_args(argv)
    if args.size < 2 or args.size % 2 or args.seed < 0:
        parser.exit(2, "error: --size must be even and >= 2 (4:2:0 fixtures), and --seed >= 0\n")
    try:
        base = RunConfig(
            input_path="",
            width=args.size,
            height=args.size,
            block_size=args.block_size,
            metric=args.metric,
            search_range=parse_search_range(args.search_range),
            use_ar_bv=not args.no_ar_bv,
            tmp_compete=not args.no_compete,
            measure_replay=False,
        )
        validate_config(base)
    except ValidationError as exc:
        parser.exit(2, f"error: {exc}\n")

    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)

    print(f"{'fixture':14s} {'timd SAD':>10s} {'etimd SAD':>10s} {'delta%':>8s} {'W/L/T':>12s} {'PSNR dB':>8s}")
    strict = 0
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, builder) in enumerate(sorted(SCREEN_FIXTURES.items())):
            path = Path(tmp) / f"{name}.yuv"
            write_yuv420([builder(seed=args.seed + i, size=args.size)], str(path))
            baseline = run_experiment(replace(base, input_path=str(path), tool="timd"))
            enhanced = run_experiment(replace(base, input_path=str(path), tool="etimd"))
            delta = compare_runs(baseline, enhanced)
            strict += delta.mean_sad_b < delta.mean_sad_a
            pct = f"{delta.mean_sad_change_pct:+.1f}" if delta.mean_sad_change_pct is not None else "n/a"
            psnr = f"{delta.psnr_delta_db:+.2f}" if delta.psnr_delta_db else "0.00"
            print(
                f"{name:14s} {delta.mean_sad_a:10.1f} {delta.mean_sad_b:10.1f} {pct:>8s} "
                f"{delta.wins:4d}/{delta.losses}/{delta.ties} {psnr:>8s}"
            )
            if out:
                write_report(baseline, str(out / f"{name}-timd.json"))
                write_report(enhanced, str(out / f"{name}-etimd.json"))

    print(f"\nstrictly better mean SAD on {strict}/{len(SCREEN_FIXTURES)} fixtures, {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
