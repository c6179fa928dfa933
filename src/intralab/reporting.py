"""Per-block records, run aggregates, and report serialization.

A report is the unit of comparison between runs: a schema-versioned
JSON document holding the resolved configuration, one record per
encoded block, aggregate statistics, and wall-clock timings.  CSV
export flattens the records for spreadsheet work; JSON is the only
format read back.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Sequence

import numpy as np

from .errors import FormatError, IntralabError
from .etimd import BlockResult, label_kind

SCHEMA_VERSION = 1


def prediction_hash(prediction: np.ndarray) -> str:
    """Short content hash of a prediction block, for replay checks."""
    return hashlib.sha1(np.ascontiguousarray(prediction, dtype="<u2").tobytes()).hexdigest()[:12]


@dataclass
class BlockRecord:
    """Flat, JSON-ready summary of one encoded block."""

    frame: int
    scan_index: int
    x0: int
    y0: int
    w: int
    h: int
    tool: str
    modes: list[str]
    weights: list[float]
    costs: list[int]
    pred_sad: int
    pred_satd: int
    pred_sse: int
    bv_list_len: int
    n_primary: int
    n_ar: int
    transform_modes: list[int] | None
    transform_class: str | None
    compaction: float | None
    pred_hash: str

    @classmethod
    def from_result(cls, frame_index: int, result: BlockResult) -> "BlockRecord":
        b = result.block
        return cls(
            frame=frame_index,
            scan_index=b.scan_index,
            x0=b.x0,
            y0=b.y0,
            w=b.w,
            h=b.h,
            tool=result.tool,
            modes=[c.label() for c in result.fusion.modes],
            weights=[float(w) for w in result.fusion.weights],
            costs=[int(c.cost) for c in result.fusion.modes],
            pred_sad=result.pred_sad,
            pred_satd=result.pred_satd,
            pred_sse=result.pred_sse,
            bv_list_len=result.bv_list_len,
            n_primary=result.n_primary,
            n_ar=result.n_ar,
            transform_modes=list(result.transform_modes) if result.transform_modes else None,
            transform_class=result.transform_class_name,
            compaction=result.compaction,
            pred_hash=prediction_hash(result.prediction),
        )


_CSV_COLUMNS = tuple(f.name for f in fields(BlockRecord))


@dataclass
class Report:
    """One experiment run: config, per-block records, aggregates, timing; written as schema SCHEMA_VERSION."""

    config: dict[str, Any]
    records: list[BlockRecord]
    aggregates: dict[str, Any]
    timing: dict[str, float] = field(default_factory=dict)


def compute_aggregates(records: Sequence[BlockRecord], bit_depth: int = 8) -> dict[str, Any]:
    """Run-level statistics over the block records.

    PSNR is reported on an 8-bit-equivalent scale so runs at different
    bit depths stay comparable; a lossless run reports infinity.
    primary_kind_usage and bv_replacement_rate read each mode label's
    kind through etimd.label_kind.
    """
    n = len(records)
    agg: dict[str, Any] = {"n_blocks": n}
    if n == 0:
        return agg

    area = sum(r.w * r.h for r in records)
    sse = sum(r.pred_sse for r in records)
    scale = 1 << (bit_depth - 8)
    if sse == 0:
        psnr = math.inf
    else:
        psnr = 10.0 * math.log10(255.0**2 * scale**2 * area / sse)

    tool_usage = Counter(r.tool for r in records)
    kind_usage = Counter(label_kind(r.modes[0]) for r in records)
    class_usage = Counter(r.transform_class for r in records if r.transform_class is not None)
    n_bv_fused = sum(any(label_kind(m) == "bv" for m in r.modes) for r in records)

    costed = [r for r in records if r.tool != "dc"]
    compactions = [r.compaction for r in records if r.compaction is not None]

    agg["mean_pred_sad"] = sum(r.pred_sad for r in records) / n
    agg["mean_pred_satd"] = sum(r.pred_satd for r in records) / n
    agg["psnr_db"] = psnr
    agg["tool_usage"] = dict(sorted(tool_usage.items()))
    agg["primary_kind_usage"] = dict(sorted(kind_usage.items()))
    agg["bv_replacement_rate"] = n_bv_fused / n
    agg["mean_bv_list_len"] = sum(r.bv_list_len for r in records) / n
    agg["mean_primary_cost"] = sum(r.costs[0] for r in costed) / len(costed) if costed else None
    agg["transform_class_usage"] = dict(sorted(class_usage.items()))
    agg["mean_compaction"] = sum(compactions) / len(compactions) if compactions else None
    return agg


def write_report(report: Report, path: str, fmt: str = "json") -> None:
    """Serialize a report; fmt is "json" (full) or "csv" (records only).

    Writing the same Report twice produces byte-identical files.
    """
    if fmt == "json":
        doc = {
            "schema": SCHEMA_VERSION,
            "config": report.config,
            "timing": report.timing,
            "aggregates": report.aggregates,
            "records": [asdict(r) for r in report.records],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
    elif fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_CSV_COLUMNS)
            for r in report.records:
                writer.writerow(_csv_row(r))
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def _csv_value(value: Any) -> str:
    """One CSV cell: None is empty, lists join with "|", floats keep 12 digits."""
    if value is None:
        return ""
    if isinstance(value, list):
        return "|".join(_csv_value(v) for v in value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _csv_row(r: BlockRecord) -> list[str]:
    return [_csv_value(getattr(r, name)) for name in _CSV_COLUMNS]


def _float_range_int(text: str) -> int:
    value = int(text)
    if abs(value) > sys.float_info.max:
        raise ValueError(f"integer {text[:24]}... is beyond the float range")
    return value


def load_json(path: str, error: type[IntralabError]) -> Any:
    """Parse the JSON file at path, raising error on undecodable bytes, bad JSON,
    nesting too deep to parse, or an integer no float can hold (or average)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=_float_range_int)
        except (ValueError, RecursionError) as exc:  # ValueError covers UnicodeDecodeError
            raise error(f"{path}: not valid JSON: {exc}") from None


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v: Any) -> bool:
    return _is_int(v) or isinstance(v, float)


def _is_str(v: Any) -> bool:
    return isinstance(v, str)


def _list_of(check: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda v: isinstance(v, list) and all(check(x) for x in v)


def _optional(check: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda v: v is None or check(v)


# JSON type check per dataclass field annotation (postponed, so a string),
# for BlockRecord and RunConfig.
JSON_TYPE_CHECKS: dict[str, Callable[[Any], bool]] = {
    "int": _is_int,
    "str": _is_str,
    "bool": lambda v: isinstance(v, bool),
    "int | None": _optional(_is_int),
    "list[str]": _list_of(_is_str),
    "list[float]": _list_of(_is_number),
    "list[int]": _list_of(_is_int),
    "list[int] | None": _optional(_list_of(_is_int)),
    "str | None": _optional(_is_str),
    "float | None": _optional(_is_number),
}
_RECORD_CHECKS = {f.name: JSON_TYPE_CHECKS[f.type] for f in fields(BlockRecord)}
_REPORT_KEYS = {"config": dict, "records": list, "aggregates": dict, "timing": dict}


def _record_from_json(path: str, index: int, doc: Any) -> BlockRecord:
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: record {index} is not an object")
    missing = _RECORD_CHECKS.keys() - doc.keys()
    extra = doc.keys() - _RECORD_CHECKS.keys()
    if missing or extra:
        raise FormatError(
            f"{path}: record {index} is missing {sorted(missing)} / has unknown {sorted(extra)}"
        )
    for name, check in _RECORD_CHECKS.items():
        if not check(doc[name]):
            raise FormatError(f"{path}: record {index} field {name!r} has the wrong type")
    return BlockRecord(**doc)


def read_report(path: str) -> Report:
    """Load a JSON report written by write_report.

    Raises FormatError unless the file is JSON with every report key,
    numeric timings, and records with exactly the BlockRecord fields in
    their JSON types.
    """
    doc = load_json(path, FormatError)
    if not isinstance(doc, dict) or not _is_int(doc.get("schema")) or doc["schema"] != SCHEMA_VERSION:
        raise FormatError(f"{path}: not a schema-{SCHEMA_VERSION} report")
    for key, kind in _REPORT_KEYS.items():
        if not isinstance(doc.get(key), kind):
            raise FormatError(f"{path}: {key!r} is missing or not a JSON {kind.__name__}")
    records = [_record_from_json(path, i, r) for i, r in enumerate(doc["records"])]
    if records and not _is_number(doc["aggregates"].get("psnr_db")):
        raise FormatError(f"{path}: aggregates lack a numeric 'psnr_db'")
    if not all(_is_number(v) for v in doc["timing"].values()):
        raise FormatError(f"{path}: timing values must be numbers")
    return Report(
        config=doc["config"],
        records=records,
        aggregates=doc["aggregates"],
        timing=doc["timing"],
    )
