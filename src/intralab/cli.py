"""Command-line front end.

Two subcommands: `run` encodes frames under one configuration and
writes a report; `compare` diffs two reports block by block.  Each
RunConfig field is one `run` flag derived from the field: `--field-name`
(`--input` and `--format` for input_path and input_format), on/off for
a bool, an integer for an int, and the field's "choices" metadata as its
choices.  Exit codes: 0 on success, 2 for configuration problems, 3 for
unreadable, malformed or mismatched input files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from typing import Any, Sequence

from .errors import FormatError, TruncatedInputError, ValidationError
from .harness import RunConfig, compare_runs, config_from_dict, run_experiment, validate_config
from .reporting import load_json, read_report, write_report

_FLAG_NAMES = {"input_path": "--input", "input_format": "--format"}
_FLAG_HELP = {"input_path": "input frame file", "search_range": 'window radius in samples, or "full"'}
_FLAG_KINDS: dict[str, dict[str, Any]] = {"bool": {"action": argparse.BooleanOptionalAction}, "int": {"type": int}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="intralab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="encode frames and write a report")
    run.add_argument("--config", help="JSON file with config values; explicit flags win")
    for f in fields(RunConfig):
        flag = _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
        kind = dict(_FLAG_KINDS.get(f.type, {}), **f.metadata)
        run.add_argument(flag, dest=f.name, default=None, help=_FLAG_HELP.get(f.name), **kind)
    run.add_argument("--out", help="report output path")
    run.add_argument("--out-format", choices=("json", "csv"), default="json")
    run.set_defaults(func=_cmd_run)

    comp = sub.add_parser("compare", help="diff run B against baseline run A")
    comp.add_argument("report_a", help="baseline report (JSON)")
    comp.add_argument("report_b", help="candidate report (JSON)")
    comp.add_argument("--out", help="write the delta as JSON")
    comp.set_defaults(func=_cmd_compare)
    return parser


def parse_search_range(given: str) -> int | None:
    if given == "full":
        return None
    try:
        return int(given)
    except ValueError:
        raise ValidationError('--search-range takes an integer or "full"') from None


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    values: dict[str, Any] = {}
    if args.config:
        loaded = load_json(args.config, ValidationError)
        if not isinstance(loaded, dict):
            raise ValidationError(f"{args.config}: config file must hold a JSON object")
        values.update(loaded)
    for f in fields(RunConfig):
        given = getattr(args, f.name)
        if given is not None:
            values[f.name] = parse_search_range(given) if f.name == "search_range" else given
    config = config_from_dict(values)
    validate_config(config)
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    report = run_experiment(config)
    if args.out:
        write_report(report, args.out, args.out_format)
        print(f"wrote {args.out}")
    agg = report.aggregates
    usage = " ".join(f"{k}={v}" for k, v in agg["tool_usage"].items())
    print(f"blocks: {agg['n_blocks']}  tool usage: {usage}")
    print(
        f"mean pred SAD: {agg['mean_pred_sad']:.2f}  "
        f"mean pred SATD: {agg['mean_pred_satd']:.2f}  "
        f"PSNR: {agg['psnr_db']:.2f} dB"
    )
    line = f"bv replacement rate: {100.0 * agg['bv_replacement_rate']:.1f}%"
    line += f"  encode: {report.timing['encode_s']:.3f}s"
    if "replay_s" in report.timing:
        line += f"  replay: {report.timing['replay_s']:.3f}s"
    print(line)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    delta = compare_runs(read_report(args.report_a), read_report(args.report_b))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(delta.as_dict(), fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {args.out}")
    print(f"blocks: {delta.n_blocks}  B wins: {delta.wins}  ties: {delta.ties}  losses: {delta.losses}")
    sad_pct = "n/a" if delta.mean_sad_change_pct is None else f"{delta.mean_sad_change_pct:+.2f}%"
    print(f"mean SAD: {delta.mean_sad_a:.2f} -> {delta.mean_sad_b:.2f} ({sad_pct})")
    print(f"PSNR: {delta.psnr_a_db:.2f} dB -> {delta.psnr_b_db:.2f} dB ({delta.psnr_delta_db:+.2f} dB)")
    if delta.enc_time_ratio_pct is not None:
        print(f"encode time ratio: {delta.enc_time_ratio_pct:.1f}%")
    if delta.replay_time_ratio_pct is not None:
        print(f"replay time ratio: {delta.replay_time_ratio_pct:.1f}%")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TruncatedInputError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
