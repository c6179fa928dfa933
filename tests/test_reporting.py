import csv
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from intralab.errors import FormatError
from intralab.etimd import BlockResult, FusionSet, ModeCandidate, label_kind
from intralab.frames import Frame
from intralab.grid import BlockRef
from intralab.harness import RunConfig, encode_frame
from intralab.reporting import (
    _CSV_COLUMNS,
    BlockRecord,
    Report,
    compute_aggregates,
    prediction_hash,
    read_report,
    write_report,
)
from intralab.synth import SCREEN_FIXTURES
from intralab.tmp import BlockVector


def make_record(**overrides):
    base = dict(
        frame=0,
        scan_index=0,
        x0=0,
        y0=0,
        w=8,
        h=8,
        tool="etimd",
        modes=["ang:30", "bv:-8:0"],
        weights=[0.75, 0.25],
        costs=[10, 30],
        pred_sad=100,
        pred_satd=120,
        pred_sse=50,
        bv_list_len=3,
        n_primary=2,
        n_ar=1,
        transform_modes=[30, 30],
        transform_class="H",
        compaction=0.9,
        pred_hash="abc123def456",
    )
    base.update(overrides)
    return BlockRecord(**base)


def test_prediction_hash_shape_and_sensitivity(rng):
    pred = rng.integers(0, 256, size=(8, 8)).astype(np.int32)
    h = prediction_hash(pred)
    assert len(h) == 12 and all(c in "0123456789abcdef" for c in h)
    assert h == prediction_hash(pred.copy())
    bumped = pred.copy()
    bumped[3, 3] += 1
    assert h != prediction_hash(bumped)


def test_record_from_result(rng):
    pred = rng.integers(0, 256, size=(4, 8)).astype(np.int32)
    fusion = FusionSet(
        [
            ModeCandidate(cost=10, mode=30),
            ModeCandidate(cost=30, bv=BlockVector(-8, 0), list_index=0),
        ],
    )
    res = BlockResult(
        block=BlockRef(8, 16, 8, 4, 5),
        tool="etimd",
        fusion=fusion,
        prediction=pred,
        pred_sad=100,
        pred_satd=120,
        pred_sse=50,
        bv_list_len=3,
        n_primary=2,
        n_ar=1,
    )
    rec = BlockRecord.from_result(7, res)
    assert (rec.frame, rec.scan_index, rec.x0, rec.y0, rec.w, rec.h) == (7, 5, 8, 16, 8, 4)
    assert rec.modes == ["ang:30", "bv:-8:0"]
    assert rec.costs == [10, 30]
    assert rec.weights == [0.75, 0.25]
    assert rec.transform_modes is None and rec.transform_class is None
    assert rec.pred_hash == prediction_hash(pred)


def test_aggregates_empty():
    assert compute_aggregates([]) == {"n_blocks": 0}


def test_aggregates_hand_case():
    records = [
        make_record(pred_sad=100, pred_sse=50, modes=["ang:30", "bv:-8:0"], tool="etimd"),
        make_record(
            scan_index=1,
            x0=8,
            tool="dc",
            modes=["dc"],
            weights=[1.0],
            costs=[0],
            pred_sad=20,
            pred_satd=40,
            pred_sse=14,
            transform_class=None,
            compaction=None,
        ),
    ]
    agg = compute_aggregates(records, bit_depth=8)
    assert agg["n_blocks"] == 2
    assert agg["mean_pred_sad"] == 60.0
    assert agg["psnr_db"] == pytest.approx(10 * math.log10(255**2 * 128 / 64))
    assert agg["tool_usage"] == {"dc": 1, "etimd": 1}
    assert agg["primary_kind_usage"] == {"angular": 1, "dc": 1}
    assert agg["bv_replacement_rate"] == 0.5
    assert agg["mean_primary_cost"] == 10.0  # dc blocks carry no template cost
    assert agg["transform_class_usage"] == {"H": 1}
    assert agg["mean_compaction"] == 0.9


@pytest.mark.parametrize("fixture", sorted(SCREEN_FIXTURES))
def test_label_grammar_round_trips_through_aggregates(fixture):
    # Each 64x64 fixture (seed 7) codes all four kinds and 2-7 intratmp
    # blocks with 8x8 E-TIMD, so every branch of the grammar is written.
    cfg = RunConfig(input_path="unused", width=64, height=64, block_size=8, tool="etimd")
    results, _, _ = encode_frame(Frame(8, SCREEN_FIXTURES[fixture](7, 64).astype(np.uint16)), cfg)
    entries = [c for r in results for c in r.fusion.modes]
    assert {c.kind for c in entries} == {"angular", "planar", "dc", "bv"}
    assert any(r.tool == "intratmp" for r in results)
    for c in entries:
        assert label_kind(c.label()) == c.kind, c.label()

    agg = compute_aggregates([BlockRecord.from_result(0, r) for r in results])
    kinds = [r.fusion.modes[0].kind for r in results]
    assert agg["primary_kind_usage"] == {k: kinds.count(k) for k in sorted(set(kinds))}
    n_fused = sum(any(c.kind == "bv" for c in r.fusion.modes) for r in results)
    assert agg["bv_replacement_rate"] == n_fused / len(results)


def test_aggregates_lossless_psnr_and_depth_scale():
    records = [make_record(pred_sse=0)]
    assert compute_aggregates(records)["psnr_db"] == math.inf
    noisy = [make_record(pred_sse=64)]
    agg8 = compute_aggregates(noisy, bit_depth=8)
    agg10 = compute_aggregates(noisy, bit_depth=10)
    assert agg10["psnr_db"] == pytest.approx(agg8["psnr_db"] + 20 * math.log10(4))


def make_report(records):
    return Report(
        config={"tool": "etimd", "width": 16},
        records=records,
        aggregates=compute_aggregates(records),
        timing={"encode_s": 0.125},
    )


def test_json_round_trip(tmp_path):
    report = make_report([make_record(), make_record(scan_index=1, x0=8)])
    path = str(tmp_path / "run.json")
    write_report(report, path)
    assert read_report(path) == report


def test_json_round_trip_preserves_infinity(tmp_path):
    report = make_report([make_record(pred_sse=0)])
    path = str(tmp_path / "lossless.json")
    write_report(report, path)
    assert read_report(path).aggregates["psnr_db"] == math.inf


def test_write_is_deterministic(tmp_path):
    report = make_report([make_record()])
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    write_report(report, p1)
    write_report(report, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_json_document_layout(tmp_path):
    path = str(tmp_path / "run.json")
    write_report(make_report([make_record()]), path)
    doc = json.load(open(path))
    assert list(doc) == ["schema", "config", "timing", "aggregates", "records"]
    assert doc["schema"] == 1
    assert doc["records"][0]["modes"] == ["ang:30", "bv:-8:0"]


def test_csv_export(tmp_path):
    report = make_report(
        [make_record(), make_record(scan_index=1, x0=8, transform_modes=None, compaction=None)]
    )
    path = str(tmp_path / "run.csv")
    write_report(report, path, fmt="csv")
    rows = list(csv.reader(open(path, newline="")))
    assert rows[0] == list(_CSV_COLUMNS)
    assert len(rows) == 3
    first = dict(zip(rows[0], rows[1]))
    assert first["modes"] == "ang:30|bv:-8:0"
    assert first["weights"] == "0.75|0.25"
    assert first["costs"] == "10|30"
    assert first["compaction"] == "0.9"
    second = dict(zip(rows[0], rows[2]))
    assert second["transform_modes"] == "" and second["compaction"] == ""


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_report(make_report([]), str(tmp_path / "x.bin"), fmt="bin")


def test_read_rejects_non_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("frame,scan_index\n0,0\n")
    with pytest.raises(FormatError):
        read_report(str(path))


def test_read_rejects_wrong_schema(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"schema": 0, "records": [], "config": {}, "aggregates": {}, "timing": {}}))
    with pytest.raises(FormatError):
        read_report(str(path))


@pytest.mark.parametrize("schema", [True, 1.0, "1"])
def test_read_rejects_schema_that_only_equals_one(tmp_path, schema):
    path = tmp_path / "loose.json"
    path.write_text(json.dumps({"schema": schema, "records": [], "config": {}, "aggregates": {}, "timing": {}}))
    with pytest.raises(FormatError):
        read_report(str(path))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r.pop("pred_hash"),
        lambda r: r.update(surprise=1),
        lambda r: r.update(pred_sad="100"),
        lambda r: r.update(modes="ang:30"),
        lambda r: r.update(costs=[10, 1.5]),
        lambda r: r.update(compaction=True),
    ],
    ids=["missing", "unknown", "str-for-int", "str-for-list", "float-in-int-list", "bool-for-float"],
)
def test_read_rejects_malformed_record(tmp_path, mutate):
    path = tmp_path / "bad.json"
    write_report(make_report([make_record()]), str(path))
    doc = json.loads(path.read_text())
    mutate(doc["records"][0])
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        read_report(str(path))


def test_read_rejects_missing_report_keys(tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"schema": 1, "records": [asdict(make_record())]}))
    with pytest.raises(FormatError):
        read_report(str(path))
    path.write_text(json.dumps({"schema": 1, "records": {}, "config": {}, "aggregates": {}, "timing": {}}))
    with pytest.raises(FormatError):
        read_report(str(path))


def test_read_accepts_config_with_retired_seed(tmp_path):
    report = Report(
        config={"tool": "etimd", "width": 16, "seed": 0},
        records=[make_record()],
        aggregates=compute_aggregates([make_record()]),
        timing={"encode_s": 0.125},
    )
    path = str(tmp_path / "old.json")
    write_report(report, path)
    assert read_report(path).config["seed"] == 0
