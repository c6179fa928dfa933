"""Command-line front end.

Two subcommands: `run` encodes frames under one configuration and
writes a report; `compare` diffs two reports block by block.  Exit
codes: 0 on success, 2 for configuration problems, 3 for unreadable,
malformed or mismatched input files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from typing import Any, Sequence

from .cost import METRICS
from .errors import FormatError, TruncatedInputError, ValidationError
from .frames import FORMATS
from .harness import RunConfig, TOOLS, compare_runs, config_from_dict, run_experiment, validate_config
from .reporting import load_json, read_report, write_report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="intralab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="encode frames and write a report")
    run.add_argument("--config", help="JSON file with config values; explicit flags win")
    run.add_argument("--input", help="input frame file")
    run.add_argument("--format", choices=FORMATS, dest="input_format")
    run.add_argument("--width", type=int)
    run.add_argument("--height", type=int)
    run.add_argument("--bit-depth", type=int, choices=(8, 10))
    run.add_argument("--frame-start", type=int)
    run.add_argument("--frame-count", type=int)
    run.add_argument("--block-size", type=int)
    run.add_argument("--tool", choices=TOOLS)
    run.add_argument("--metric", choices=METRICS)
    run.add_argument("--search-range", help='window radius in samples, or "full"')
    run.add_argument("--template", type=int)
    run.add_argument("--n-max", type=int)
    run.add_argument("--quant-step", type=int)
    for name in (
        "use-bv-list",
        "use-ar-bv",
        "use-hog-transform",
        "tmp-compete",
        "closed-loop",
        "parallel",
        "measure-replay",
    ):
        run.add_argument(f"--{name}", action=argparse.BooleanOptionalAction, default=None)
    run.add_argument("--out", help="report output path")
    run.add_argument("--out-format", choices=("json", "csv"), default="json")
    run.set_defaults(func=_cmd_run)

    comp = sub.add_parser("compare", help="diff run B against baseline run A")
    comp.add_argument("report_a", help="baseline report (JSON)")
    comp.add_argument("report_b", help="candidate report (JSON)")
    comp.add_argument("--out", help="write the delta as JSON")
    comp.set_defaults(func=_cmd_compare)
    return parser


_RUN_FIELDS = tuple(
    f.name for f in fields(RunConfig) if f.name not in ("input_path", "search_range")
)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    values: dict[str, Any] = {}
    if args.config:
        loaded = load_json(args.config, ValidationError)
        if not isinstance(loaded, dict):
            raise ValidationError(f"{args.config}: config file must hold a JSON object")
        values.update(loaded)
    if args.input is not None:
        values["input_path"] = args.input
    for name in _RUN_FIELDS:
        given = getattr(args, name)
        if given is not None:
            values[name] = given
    if args.search_range is not None:
        if args.search_range == "full":
            values["search_range"] = None
        else:
            try:
                values["search_range"] = int(args.search_range)
            except ValueError:
                raise ValidationError('--search-range takes an integer or "full"') from None
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
