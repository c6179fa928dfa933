"""In-process CPU-time A/B of two intralab trees on a perfbench workload.

Copies each tree's src/intralab into a temporary directory as the
packages intralab_a and intralab_b (every import inside the package is
relative, so a renamed copy is a package of its own) and imports both
into this process, --first one first.  After one untimed frame per
package, which fills their lazy caches, each round encodes and
replays every frame of the workload's input variants with both
packages, once a before b and once b before a, and sums each package's
CPU time.  One row is printed per round, then the medians; a ratio is
b over a, so below 1 means b is faster.  The script also checks that
both trees derive the same fusion labels and reconstructions.

The frames and configs come from perfbench/workloads.py, which is read
and not changed; its planes are synthesized with this checkout's
intralab.  Alternating both trees in one process on the same frames
puts them under the same host load, which swings the wall-clock
benchmark by tens of percent.

    python scripts/ab_cpu.py --a path/to/parent --workload screen-etimd
    python scripts/ab_cpu.py --a path/to/parent --b . --workload natural-timd --first b --rounds 5
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("a", "b")


def _workloads():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load(name: str):
    """The harness and frames modules of the package name."""
    return importlib.import_module(f"{name}.harness"), importlib.import_module(f"{name}.frames")


def _run(package, wl, plane: np.ndarray, size: int) -> tuple[float, float, list, np.ndarray]:
    """CPU seconds of one encode and one replay, the fusion labels and the replayed samples."""
    harness, frames = package
    cfg = harness.RunConfig(input_path="unused", width=size, height=size, bit_depth=wl.bit_depth, **wl.config)
    frame = frames.Frame(wl.bit_depth, plane)
    t0 = time.process_time()
    results, _, _ = harness.encode_frame(frame, cfg)
    t1 = time.process_time()
    replayed = harness.replay_frame(frame, cfg, results)
    t2 = time.process_time()
    labels = [[c.label() for c in r.fusion.modes] for r in results]
    return t1 - t0, t2 - t1, labels, replayed.samples


def main(argv: list[str] | None = None) -> int:
    workloads = _workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", type=Path, required=True, help="tree whose src/intralab is side a")
    parser.add_argument("--b", type=Path, default=ROOT, help="tree whose src/intralab is side b (default: this one)")
    parser.add_argument("--workload", default="screen-etimd", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--variants", type=int, nargs="+", default=[1, 3, 6], help="perfbench input variants")
    parser.add_argument("--frames", type=int, default=workloads.CYCLE, help="frames of each variant")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--first", choices=SIDES, default="a", help="the package imported first")
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    planes = [p.astype(np.uint16) for v in args.variants for p in wl.planes(v)[: args.frames]]
    trees = {"a": args.a.resolve(), "b": args.b.resolve()}
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        for side, tree in trees.items():
            shutil.copytree(tree / "src" / "intralab", Path(tmp) / f"intralab_{side}",
                            ignore=shutil.ignore_patterns("__pycache__"))
        sys.path.insert(0, tmp)
        try:
            order = (args.first, "b" if args.first == "a" else "a")
            packages = {side: _load(f"intralab_{side}") for side in order}
            for side in order:  # fill each package's lazy caches before any timing
                _run(packages[side], wl, planes[0], workloads.SIZE)
            print(f"{args.workload}: {len(planes)} frames, {order[0]} imported first; CPU s per round")
            print(f"{'round':>5s} {'enc a':>8s} {'enc b':>8s} {'b/a':>6s} {'rep a':>8s} {'rep b':>8s} {'b/a':>6s}")
            enc_ratios, rep_ratios = [], []
            for n in range(args.rounds):
                enc, rep = dict.fromkeys(SIDES, 0.0), dict.fromkeys(SIDES, 0.0)
                for plane in planes:
                    for sides in (SIDES, SIDES[::-1]):
                        out = {}
                        for side in sides:
                            e, r, *out[side] = _run(packages[side], wl, plane, workloads.SIZE)
                            enc[side] += e
                            rep[side] += r
                        same &= out["a"][0] == out["b"][0] and np.array_equal(out["a"][1], out["b"][1])
                enc_ratios.append(enc["b"] / enc["a"])
                rep_ratios.append(rep["b"] / rep["a"])
                print(f"{n:5d} {enc['a']:8.3f} {enc['b']:8.3f} {enc_ratios[-1]:6.3f} "
                      f"{rep['a']:8.3f} {rep['b']:8.3f} {rep_ratios[-1]:6.3f}")
        finally:
            sys.path.remove(tmp)
            for name in [m for m in sys.modules if m.split(".")[0] in ("intralab_a", "intralab_b")]:
                del sys.modules[name]
    print(f"median b/a: encode x{statistics.median(enc_ratios):.3f}, replay x{statistics.median(rep_ratios):.3f}")
    print(f"same results: {'yes' if same else 'NO'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
