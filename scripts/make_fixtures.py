"""Write the synthetic test content to disk as raw video files.

Produces one single-frame yuv-planar file per screen fixture, a tiled
random-glyph frame, and a multi-frame noise sequence.  The files feed
the CLI directly:

    python scripts/make_fixtures.py --out fixtures
    python -m intralab run --input fixtures/ui-tiles.yuv --width 256 --height 256
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from intralab.frames import write_yuv420
from intralab.synth import SCREEN_FIXTURES, noise_frame, tiled_glyph_frame


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="fixtures", help="output directory")
    parser.add_argument("--size", type=int, default=256, help="fixture width and height")
    parser.add_argument("--seed", type=int, default=0, help="base seed for all generators")
    parser.add_argument("--noise-frames", type=int, default=4, help="frames in the noise sequence")
    args = parser.parse_args(argv)
    if args.size < 2 or args.size % 2 or args.seed < 0 or args.noise_frames < 1:
        parser.exit(2, "error: --size must be even and >= 2 (4:2:0 files), --seed >= 0 and --noise-frames >= 1\n")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for i, (name, builder) in enumerate(sorted(SCREEN_FIXTURES.items())):
        path = out / f"{name}.yuv"
        write_yuv420([builder(seed=args.seed + i, size=args.size)], str(path))
        print(f"{path}  {args.size}x{args.size}  1 frame")

    glyph = out / "tiled-glyph.yuv"
    write_yuv420([tiled_glyph_frame(args.size, args.size, period=8, seed=args.seed)], str(glyph))
    print(f"{glyph}  {args.size}x{args.size}  1 frame")

    noise = out / "noise.yuv"
    frames = [noise_frame(args.size, args.size, seed=args.seed + 100 + i) for i in range(args.noise_frames)]
    write_yuv420(frames, str(noise))
    print(f"{noise}  {args.size}x{args.size}  {args.noise_frames} frames")
    return 0


if __name__ == "__main__":
    sys.exit(main())
