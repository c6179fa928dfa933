"""Derived results pinned against the benchmark's recorded references.

For every benchmark workload, frame 0 of input variant 0 is rebuilt
through perfbench/workloads.py, encoded and replayed with that
workload's config, and the SHA-1 of its pred_hash list and its summed
prediction SAD must equal the first frame of variant 0 in
perfbench/reference/<workload>.json.  The names the benchmark binds
must stay: every attribute perfbench/spans.py traces, and the RunConfig
fields perfbench/run.py sets.  perfbench/ is only read.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from intralab.frames import load_frame, write_yuv420
from intralab.harness import RunConfig, encode_frame, replay_frame, validate_config
from intralab.reporting import BlockRecord

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through sys.modules
    spec.loader.exec_module(module)
    return module


workloads = _load_perfbench("workloads")


def test_every_traced_name_exists():
    # spans.patched reads owner.__dict__[attr], so a missing name crashes --trace 1.
    spans = _load_perfbench("spans")
    missing = [(name, attr) for name, owner, attr, _ in spans.TRACED if attr not in vars(owner)]
    assert missing == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_config_is_accepted(name):
    # As perfbench/run.py:frame_config builds it, for the last frame of the cycle.
    wl = workloads.WORKLOADS[name]
    size = workloads.SIZE
    cfg = RunConfig(
        input_path="frames.yuv",
        width=size,
        height=size,
        bit_depth=wl.bit_depth,
        frame_start=workloads.CYCLE - 1,
        parallel=False,
        **wl.config,
    )
    validate_config(cfg)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_frame0_matches_benchmark_reference(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    size = workloads.SIZE
    path = str(tmp_path / "frame0.yuv")
    write_yuv420(wl.planes(0)[:1], path, bit_depth=wl.bit_depth)
    cfg = RunConfig(input_path=path, width=size, height=size, bit_depth=wl.bit_depth, **wl.config)
    validate_config(cfg)
    frame = load_frame(path, "yuv-planar", size, size, bit_depth=wl.bit_depth, frame_index=0)

    results, _, _ = encode_frame(frame, cfg)
    replay_frame(frame, cfg, results)

    hashes = [BlockRecord.from_result(0, r).pred_hash for r in results]
    got = {
        "n_blocks": len(results),
        "digest": hashlib.sha1("\n".join(hashes).encode("ascii")).hexdigest(),
        "sum_pred_sad": sum(r.pred_sad for r in results),
    }
    reference = json.loads((PERFBENCH / "reference" / f"{name}.json").read_text(encoding="utf-8"))
    want = reference["0"][0]
    assert got == {key: want[key] for key in got}
