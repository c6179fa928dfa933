"""In-process CPU-time A/B of two intralab trees on a perfbench workload.

Copies each tree's src/intralab into a temporary directory as the
packages intralab_a and intralab_b (every import inside the package is
relative, so a renamed copy is a package of its own) and imports both
into this process, --first one first.  After one untimed frame per
package, which fills their lazy caches, each round encodes and
replays every frame of the workload's input variants with both
packages, once a before b and once b before a, and sums each package's
CPU time.  One row is printed per round, then each package's minor
page faults over those rounds (ru_minflt read around each of its
encode-and-replay runs), which show an allocator that hands memory back
to the system and faults it in again, then the medians; a ratio is
b over a, so below 1 means b is faster.  The script also checks that
both trees give the same reconstructions and, for every block, the same
report record (reporting.BlockRecord: tool, fusion labels, weights and
costs, prediction SAD, SATD and squared error, transform fields and
pred_hash), built after the timed encode and replay.  After the timed
rounds, one untimed encode per package counts the displaced template
strips that its tmp_search costs, as noted through ReconBuffer.read_hook,
which shows a change in search work without timing noise.  With
--stages, --rounds more runs each encode and replay every frame once
per package, the two taking turns frame by frame.  They time the
encode's search stages (ENCODE_STAGES) and the stages of the
decoder-side derive-and-commit path (REPLAY_STAGES), and the script
prints each one's CPU microseconds per block, the median over the runs.
A stage's time includes the stages it calls, each of which adds its own
two clock reads.

The frames and configs come from perfbench/workloads.py, which is read
and not changed; its planes are synthesized with this checkout's
intralab.  Alternating both trees in one process on the same frames
puts them under the same host load, which swings the wall-clock
benchmark by tens of percent.

    python scripts/ab_cpu.py --a path/to/parent --workload screen-etimd
    python scripts/ab_cpu.py --a path/to/parent --b . --workload natural-timd --first b --rounds 5
    python scripts/ab_cpu.py --a path/to/parent --workload smallblock-closedloop --variants 1 --rounds 3 --stages
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import inspect
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections.abc import Callable, Iterator
from contextlib import ExitStack, contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("a", "b")
# (module, function) of each stage that --stages times, in print order:
# the search stages of the encode, then the derive-and-commit stages of
# the replay.  A stage that a tree lacks reads 0.
ENCODE_STAGES = (
    ("tmp", "tmp_search"),
    ("tmp", "_window_bounds"),
    ("cost", "hadamard_planes"),
    ("tmp", "_strip_costs"),
)
REPLAY_STAGES = (
    ("etimd", "evaluate_candidates"),
    ("tmp", "gather_templates"),
    ("etimd", "pool_costs"),
    ("intra", "build_reference_samples"),
    ("etimd", "commit_fusion"),
    ("grid", "reconstruct_block"),
    ("etimd", "fuse"),
    ("etimd", "fusion_predictions"),
    ("bvlist", "build_bv_list"),
    ("etimd", "select_modes_etimd"),
    ("etimd", "select_modes_timd"),
)


def _workloads():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load(name: str) -> SimpleNamespace:
    """The package's name and its harness, frames, reporting and tmp modules."""
    modules = ("harness", "frames", "reporting", "tmp")
    return SimpleNamespace(name=name, **{module: importlib.import_module(f"{name}.{module}") for module in modules})


def _frame(package, wl, plane: np.ndarray, size: int) -> tuple:
    """The package's Frame of the plane and RunConfig of the workload."""
    cfg = package.harness.RunConfig(input_path="unused", width=size, height=size, bit_depth=wl.bit_depth, **wl.config)
    return package.frames.Frame(wl.bit_depth, plane), cfg


def _run(package, wl, plane: np.ndarray, size: int) -> tuple[float, float, int, list, np.ndarray]:
    """CPU seconds of one encode and one replay, the minor page faults of both, each block's report record as a dict, and the replayed samples."""
    harness = package.harness
    frame, cfg = _frame(package, wl, plane, size)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.process_time()
    results, _, _ = harness.encode_frame(frame, cfg)
    t1 = time.process_time()
    replayed = harness.replay_frame(frame, cfg, results)
    t2 = time.process_time()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    records = [vars(package.reporting.BlockRecord.from_result(0, r)) for r in results]
    return t1 - t0, t2 - t1, faults, records, replayed.samples


@contextmanager
def _replaced(package, original: Callable, attr: str, replacement: Callable) -> Iterator[None]:
    """Replace original by replacement in every module of the package that holds it as attr, then restore."""
    holders = [module for name, module in sys.modules.items()
               if name.split(".")[0] == package.name and getattr(module, attr, None) is original]
    for module in holders:
        setattr(module, attr, replacement)
    try:
        yield
    finally:
        for module in holders:
            setattr(module, attr, original)


def _strips_costed(package, wl, planes: list[np.ndarray], size: int) -> int:
    """Displaced template strips that tmp_search costs over one run of each plane.

    A search notes its block's own strips and each displaced strip it
    costs through ReconBuffer.read_hook; tmp_search is replaced in every
    module of the package that holds it by one that counts the notes
    other than the block's own strips.
    """
    search = package.tmp.tmp_search
    signature = inspect.signature(search)
    count = 0

    def counted(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        buf, block, t = (bound.arguments[name] for name in ("buf", "block", "t"))
        own = set(package.tmp.template_rects(block, t, buf.width, buf.height))

        def hook(*rect):
            nonlocal count
            count += rect not in own

        previous, buf.read_hook = buf.read_hook, hook
        try:
            return search(*args, **kwargs)
        finally:
            buf.read_hook = previous

    with _replaced(package, search, "tmp_search", counted):
        for plane in planes:
            _run(package, wl, plane, size)
    return count


def _stage_times(packages: dict, wl, planes: list[np.ndarray], size: int) -> dict[str, dict[str, float]]:
    """Each side's CPU microseconds per block of one encode and one replay of each plane and of each stage in them.

    The rows are "encode", ENCODE_STAGES, "replay" and REPLAY_STAGES.
    The sides take turns frame by frame, in alternating order.  Every
    stage function is replaced in every module of the package that holds
    it by one that sums its CPU time.
    """
    names = ["encode"] + [n for _, n in ENCODE_STAGES] + ["replay"] + [n for _, n in REPLAY_STAGES]
    spent = {side: dict.fromkeys(names, 0.0) for side in packages}

    def timed(sums: dict[str, float], name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            start = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                sums[name] += time.process_time() - start

        return wrapper

    def wrapped(stack: ExitStack, side: str, stages: tuple) -> None:
        package = packages[side]
        for module, name in stages:
            fn = getattr(importlib.import_module(f"{package.name}.{module}"), name, None)
            if fn is not None:
                stack.enter_context(_replaced(package, fn, name, timed(spent[side], name, fn)))

    blocks = 0
    for n, plane in enumerate(planes):
        for side in SIDES[:: 1 - 2 * (n % 2)]:
            harness = packages[side].harness
            frame, cfg = _frame(packages[side], wl, plane, size)
            with ExitStack() as stack:
                wrapped(stack, side, ENCODE_STAGES)
                results, _, _ = timed(spent[side], "encode", harness.encode_frame)(frame, cfg)
            with ExitStack() as stack:
                wrapped(stack, side, REPLAY_STAGES)
                timed(spent[side], "replay", harness.replay_frame)(frame, cfg, results)
        blocks += len(results)
    return {side: {name: 1e6 * s / blocks for name, s in sums.items()} for side, sums in spent.items()}


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
    parser.add_argument("--stages", action="store_true",
                        help="also time each of ENCODE_STAGES and REPLAY_STAGES over --rounds more runs")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.frames < 1 or min(args.variants) < 0:
        parser.exit(2, "error: --rounds and --frames must be >= 1 and --variants >= 0\n")
    trees = {"a": args.a.resolve(), "b": args.b.resolve()}
    for side, tree in trees.items():
        if not (tree / "src" / "intralab").is_dir():
            parser.exit(2, f"error: --{side} {tree} has no src/intralab\n")

    wl = workloads.WORKLOADS[args.workload]
    planes = [p.astype(np.uint16) for v in args.variants for p in wl.planes(v)[: args.frames]]
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
            faults = dict.fromkeys(SIDES, 0)
            for n in range(args.rounds):
                enc, rep = dict.fromkeys(SIDES, 0.0), dict.fromkeys(SIDES, 0.0)
                for plane in planes:
                    for sides in (SIDES, SIDES[::-1]):
                        out = {}
                        for side in sides:
                            e, r, f, *out[side] = _run(packages[side], wl, plane, workloads.SIZE)
                            enc[side] += e
                            rep[side] += r
                            faults[side] += f
                        same &= out["a"][0] == out["b"][0] and np.array_equal(out["a"][1], out["b"][1])
                enc_ratios.append(enc["b"] / enc["a"])
                rep_ratios.append(rep["b"] / rep["a"])
                print(f"{n:5d} {enc['a']:8.3f} {enc['b']:8.3f} {enc_ratios[-1]:6.3f} "
                      f"{rep['a']:8.3f} {rep['b']:8.3f} {rep_ratios[-1]:6.3f}")
            print(f"minor page faults (timed rounds): a {faults['a']:,}, b {faults['b']:,}")
            strips = {side: _strips_costed(packages[side], wl, planes, workloads.SIZE) for side in SIDES}
            if args.stages:
                runs = [_stage_times(packages, wl, planes, workloads.SIZE) for _ in range(args.rounds)]
                stages = {side: {name: statistics.median(run[side][name] for run in runs) for name in runs[0][side]}
                          for side in SIDES}
        finally:
            sys.path.remove(tmp)
            for name in [m for m in sys.modules if m.split(".")[0] in ("intralab_a", "intralab_b")]:
                del sys.modules[name]
    if args.stages:
        print(f"stages: CPU us per block, median of {args.rounds} more encodes and replays of every frame")
        print(f"{'stage':<24s} {'a':>8s} {'b':>8s} {'b/a':>6s}")
        for name, a in stages["a"].items():
            b = stages["b"][name]
            if a or b:
                print(f"{name:<24s} {a:8.1f} {b:8.1f} " + (f"{b / a:6.3f}" if a else f"{'-':>6s}"))
    print(f"displaced strips costed (untimed encode): a {strips['a']:,}, b {strips['b']:,}")
    print(f"median b/a: encode x{statistics.median(enc_ratios):.3f}, replay x{statistics.median(rep_ratios):.3f}")
    print(f"same results: {'yes' if same else 'NO'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
