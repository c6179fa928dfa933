import argparse
import json
import sys
import time
from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from intralab.cli import build_parser, main
from intralab.frames import write_yuv420
from intralab.harness import RunConfig
from intralab.reporting import read_report
from intralab.synth import tiled_glyph_frame


@pytest.fixture(scope="module")
def glyph_yuv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "glyph.yuv"
    write_yuv420([tiled_glyph_frame(64, 64, period=8, seed=50)], str(path))
    return str(path)


def run_args(glyph_yuv, *extra):
    return [
        "run",
        "--input", glyph_yuv,
        "--width", "64",
        "--height", "64",
        "--block-size", "8",
        "--search-range", "16",
        *extra,
    ]


def test_run_writes_report(glyph_yuv, tmp_path, capsys):
    out = str(tmp_path / "run.json")
    assert main(run_args(glyph_yuv, "--tool", "etimd", "--out", out)) == 0
    report = read_report(out)
    assert report.config["tool"] == "etimd"
    assert report.aggregates["n_blocks"] == 64
    stdout = capsys.readouterr().out
    assert "blocks: 64" in stdout and "mean pred SAD" in stdout


def test_run_csv_out(glyph_yuv, tmp_path):
    out = tmp_path / "run.csv"
    assert main(run_args(glyph_yuv, "--tool", "timd", "--out", str(out), "--out-format", "csv")) == 0
    assert out.read_text().startswith("frame,scan_index,")


def test_compare_reports(glyph_yuv, tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(run_args(glyph_yuv, "--tool", "timd", "--out", a)) == 0
    assert main(run_args(glyph_yuv, "--tool", "etimd", "--out", b)) == 0
    out = tmp_path / "delta.json"
    assert main(["compare", a, b, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "B wins:" in stdout
    delta = json.loads(out.read_text())
    assert delta["n_blocks"] == 64
    assert delta["wins"] > delta["losses"]


def test_compare_reports_replay_time_ratio(glyph_yuv, tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(run_args(glyph_yuv, "--tool", "timd", "--out", a)) == 0
    assert main(run_args(glyph_yuv, "--tool", "etimd", "--out", b)) == 0
    capsys.readouterr()
    assert main(["compare", a, b]) == 0
    assert "replay time ratio: " in capsys.readouterr().out
    assert main(run_args(glyph_yuv, "--tool", "etimd", "--no-measure-replay", "--out", b)) == 0
    capsys.readouterr()
    assert main(["compare", a, b]) == 0
    assert "replay time ratio" not in capsys.readouterr().out


def test_config_file_with_flag_override(glyph_yuv, tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text(
        json.dumps(
            {
                "input_path": glyph_yuv,
                "width": 64,
                "height": 64,
                "block_size": 8,
                "tool": "timd",
                "search_range": 16,
            }
        )
    )
    out = str(tmp_path / "report.json")
    assert main(["run", "--config", str(config_path), "--tool", "etimd", "--out", out]) == 0
    assert read_report(out).config["tool"] == "etimd"


def test_search_range_full(glyph_yuv, tmp_path):
    out = str(tmp_path / "full.json")
    args = [
        "run", "--input", glyph_yuv, "--width", "64", "--height", "64",
        "--block-size", "8", "--tool", "intratmp", "--search-range", "full",
        "--out", out,
    ]
    assert main(args) == 0
    assert read_report(out).config["search_range"] is None


def test_validation_errors_exit_2(glyph_yuv, tmp_path, capsys):
    assert main(run_args(glyph_yuv, "--search-range", "wide")) == 2
    assert main(["run", "--input", glyph_yuv, "--width", "0", "--height", "64"]) == 2
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    assert main(["run", "--config", str(bad_json), "--input", glyph_yuv]) == 2
    assert "error:" in capsys.readouterr().err


def test_pgm_deeper_than_bit_depth_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n8 8\n1023\n" + bytes(2 * 64))
    args = ["run", "--input", str(path), "--format", "pgm", "--width", "8", "--height", "8", "--block-size", "8"]
    assert main([*args, "--bit-depth", "8"]) == 2
    assert "maxval 1023" in capsys.readouterr().err
    assert main([*args, "--bit-depth", "10", "--out", str(tmp_path / "run.json")]) == 0


def test_oversized_pgm_header_token_exits_3_quickly(tmp_path, capsys):
    path = tmp_path / "long.pgm"
    path.write_bytes(b"P5\n" + b"8" * 1_000_000 + b" 8\n255\n" + bytes(64))
    start = time.perf_counter()
    assert main(["run", "--input", str(path), "--format", "pgm", "--width", "8", "--height", "8"]) == 3
    assert time.perf_counter() - start < 5.0  # reading the token byte by byte to its end takes ~30 s
    assert "header token" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("search_range", "full"),
        ("width", "32"),
        ("template", 2.5),
        ("frame_count", 1.0),
        ("use_bv_list", "no"),
        ("template", True),
        ("input_path", 5),
    ],
)
def test_wrongly_typed_config_value_exits_2(glyph_yuv, tmp_path, capsys, key, value):
    values = {"input_path": glyph_yuv, "width": 64, "height": 64, "block_size": 8, key: value}
    config_path = tmp_path / "typed.json"
    config_path.write_text(json.dumps(values))
    assert main(["run", "--config", str(config_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_n_max_beyond_sys_maxsize_exits_2_as_flag_and_in_config_file(glyph_yuv, tmp_path, capsys):
    huge = sys.maxsize + 1
    config_path = tmp_path / "huge.json"
    config_path.write_text(json.dumps({"input_path": glyph_yuv, "width": 64, "height": 64, "n_max": huge}))
    for args in (run_args(glyph_yuv, "--n-max", str(huge)), ["run", "--config", str(config_path)]):
        assert main(args) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: n_max must be >= 0 and <= {sys.maxsize}"]
    out = str(tmp_path / "report.json")
    assert main(run_args(glyph_yuv, "--n-max", str(sys.maxsize), "--out", out)) == 0
    assert read_report(out).config["n_max"] == sys.maxsize


def test_io_errors_exit_3(glyph_yuv, tmp_path, capsys):
    assert main(run_args("/nonexistent/missing.yuv")) == 3
    # truncated input: one 64x64 frame present, second requested
    assert main(run_args(glyph_yuv, "--frame-count", "2")) == 3
    not_a_report = tmp_path / "junk.json"
    not_a_report.write_text("scan_index,tool\n")
    assert main(["compare", str(not_a_report), str(not_a_report)]) == 3
    # PGM header numbers that int() alone would read as 4 and 255
    for header in (b"P5\n+4 4\n255\n", b"P5\n4 4\n2_55\n"):
        pgm = tmp_path / "signed.pgm"
        pgm.write_bytes(header + bytes(16))
        args = ["run", "--input", str(pgm), "--format", "pgm", "--width", "4", "--height", "4", "--block-size", "4"]
        assert main([*args, "--out", str(tmp_path / "r.json")]) == 3
    assert "error:" in capsys.readouterr().err


def test_boolean_optional_flags(glyph_yuv, tmp_path):
    out = str(tmp_path / "toggles.json")
    args = run_args(
        glyph_yuv,
        "--tool", "etimd",
        "--no-use-bv-list",
        "--no-measure-replay",
        "--use-hog-transform",
        "--out", out,
    )
    assert main(args) == 0
    config = read_report(out).config
    assert config["use_bv_list"] is False
    assert config["measure_replay"] is False
    assert config["use_hog_transform"] is True


# The run flag of every RunConfig field.
RUN_FLAGS = {
    "input_path": "--input",
    "input_format": "--format",
    "width": "--width",
    "height": "--height",
    "bit_depth": "--bit-depth",
    "frame_start": "--frame-start",
    "frame_count": "--frame-count",
    "block_size": "--block-size",
    "tool": "--tool",
    "metric": "--metric",
    "use_bv_list": "--use-bv-list",
    "use_ar_bv": "--use-ar-bv",
    "use_hog_transform": "--use-hog-transform",
    "tmp_compete": "--tmp-compete",
    "closed_loop": "--closed-loop",
    "quant_step": "--quant-step",
    "search_range": "--search-range",
    "template": "--template",
    "n_max": "--n-max",
    "parallel": "--parallel",
    "measure_replay": "--measure-replay",
}
CHOICE_FIELDS = {f.name: f.metadata["choices"] for f in fields(RunConfig) if "choices" in f.metadata}


def _run_parser():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices["run"]


def test_every_run_config_field_has_exactly_one_flag():
    assert list(RUN_FLAGS) == [f.name for f in fields(RunConfig)]
    assert set(CHOICE_FIELDS) == {"input_format", "bit_depth", "block_size", "tool", "metric", "template"}
    actions = [a for a in _run_parser()._actions if a.dest in RUN_FLAGS]
    assert Counter(a.dest for a in actions) == Counter(RUN_FLAGS.keys())
    for action in actions:
        assert action.option_strings[0] == RUN_FLAGS[action.dest]
        assert action.choices == CHOICE_FIELDS.get(action.dest)


@pytest.mark.parametrize("polarity", [True, False])
def test_each_flag_sets_its_field_over_the_config_file(glyph_yuv, tmp_path, polarity):
    # The file holds a different value for every field, so a field lands
    # in the report's config as flagged only if its own flag set it.
    flagged = {
        "input_path": glyph_yuv, "input_format": "yuv-planar", "width": 64, "height": 64,
        "bit_depth": 8, "frame_start": 0, "frame_count": 1, "block_size": 8, "tool": "etimd",
        "metric": "sad", "quant_step": 4, "search_range": 16 if polarity else None,
        "template": 2, "n_max": 3,
    }
    in_file = {
        "input_path": "elsewhere.yuv", "input_format": "pgm", "width": 32, "height": 16,
        "bit_depth": 10, "frame_start": 1, "frame_count": 2, "block_size": 16, "tool": "timd",
        "metric": "satd", "quant_step": 8, "search_range": None if polarity else 16,
        "template": 4, "n_max": 5,
    }
    args = ["run", "--config", str(tmp_path / "file.json"), "--out", str(tmp_path / "r.json")]
    for f in fields(RunConfig):
        flag = RUN_FLAGS[f.name]
        if f.type == "bool":
            flagged[f.name], in_file[f.name] = polarity, not polarity
            args.append(flag if polarity else "--no-" + flag[2:])
        else:
            value = flagged[f.name]
            args += [flag, "full" if value is None else str(value)]
    (tmp_path / "file.json").write_text(json.dumps(in_file))
    assert main(args) == 0
    assert read_report(str(tmp_path / "r.json")).config == flagged


@pytest.mark.parametrize("name", sorted(CHOICE_FIELDS))
def test_out_of_set_value_exits_2_as_flag_and_in_config_file(glyph_yuv, tmp_path, capsys, name):
    choices = CHOICE_FIELDS[name]
    bad = "bogus" if isinstance(choices[0], str) else max(choices) + 1
    with pytest.raises(SystemExit) as exc:
        main(run_args(glyph_yuv, RUN_FLAGS[name], str(bad)))
    assert exc.value.code == 2
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"input_path": glyph_yuv, "width": 64, "height": 64, name: bad}))
    assert main(["run", "--config", str(config_path)]) == 2
    assert f"{name} must be one of" in capsys.readouterr().err


def test_compare_malformed_record_exits_3(glyph_yuv, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(run_args(glyph_yuv, "--out", str(out))) == 0
    doc = json.loads(out.read_text())
    del doc["records"][0]["tool"]
    out.write_text(json.dumps(doc))
    assert main(["compare", str(out), str(out)]) == 3
    assert "record 0" in capsys.readouterr().err


def test_compare_mismatched_reports_exits_3(glyph_yuv, tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(run_args(glyph_yuv, "--tool", "dc-only", "--out", a)) == 0
    assert main(run_args(glyph_yuv, "--tool", "dc-only", "--block-size", "16", "--out", b)) == 0
    capsys.readouterr()
    assert main(["compare", a, b]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: runs cover different block counts"]


def test_seed_is_not_a_run_setting(glyph_yuv, tmp_path, capsys):
    config_path = tmp_path / "seeded.json"
    config_path.write_text(json.dumps({"input_path": glyph_yuv, "width": 64, "height": 64, "seed": 3}))
    assert main(["run", "--config", str(config_path)]) == 2
    assert "unknown config keys: seed" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(run_args(glyph_yuv, "--seed", "3"))


@pytest.mark.parametrize("content", [b"\xff\xfe{\x80}", b"[" * 100000])
def test_undecodable_or_deeply_nested_json_gets_typed_exit(glyph_yuv, tmp_path, capsys, content):
    path = tmp_path / "odd.json"
    path.write_bytes(content)
    assert main(["run", "--config", str(path), "--input", glyph_yuv]) == 2
    assert main(["compare", str(path), str(path)]) == 3
    assert capsys.readouterr().err.count("not valid JSON") == 2


@pytest.mark.parametrize(
    "extra",
    [
        ("--width", str(10**20)),
        ("--frame-start", str(10**20)),
        ("--width", "1000000", "--height", "1000000"),
    ],
)
def test_frame_geometry_beyond_the_file_exits_3(glyph_yuv, capsys, extra):
    assert main(run_args(glyph_yuv, *extra)) == 3
    assert "error:" in capsys.readouterr().err


def test_huge_quant_step_runs_like_the_clamped_step(glyph_yuv, tmp_path):
    reports = []
    for step in (str(10**23), "512"):  # 2^(8 + 1): every residual is level 0 either way
        out = str(tmp_path / f"q{step}.json")
        assert main(run_args(glyph_yuv, "--closed-loop", "--quant-step", step, "--out", out)) == 0
        reports.append(read_report(out))
    assert reports[0].records == reports[1].records


def _json_values(max_leaves=6):
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-70, 70),
        st.sampled_from([10**30, -(10**30), 2**63, int(sys.float_info.max), -int(sys.float_info.max), 10**400]),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=6),
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=max_leaves,
    )


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A 16x16 one-frame input and a report of it, for the fuzz tests."""
    root = tmp_path_factory.mktemp("fuzz")
    frame = str(root / "f16.yuv")
    write_yuv420([tiled_glyph_frame(16, 16, period=8, seed=51)], frame)
    report = root / "base.json"
    args = ["run", "--input", frame, "--width", "16", "--height", "16", "--block-size", "8", "--out", str(report)]
    assert main(args) == 0
    return root, frame, json.loads(report.read_text())


def _paths(doc, prefix=()):
    """The key path of every value nested in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _write_fuzzed(path, doc, raw):
    if raw is not None:
        path.write_bytes(raw)
    else:
        path.write_text(json.dumps(doc, allow_nan=True))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_config_exits_0_2_or_3(fuzz_inputs, data):
    root, frame, _ = fuzz_inputs
    config = {"input_path": frame, "width": 16, "height": 16, "block_size": 8}
    names = [name for name in RunConfig.__dataclass_fields__ if name != "input_path"] + ["seed", "input_path"]
    for name in data.draw(st.lists(st.sampled_from(names), max_size=3)):
        config[name] = data.draw(_json_values(), label=name)
    doc = data.draw(st.sampled_from([config, [config], config.get("width")]))
    raw = data.draw(st.none() | st.binary(max_size=12).map(lambda b: b"\xff" + b))
    path = root / "fuzz-config.json"
    _write_fuzzed(path, doc, raw)
    assert main(["run", "--config", str(path)]) in (0, 2, 3)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_report_exits_0_2_or_3(fuzz_inputs, data):
    root, _, base = fuzz_inputs
    doc = json.loads(json.dumps(base))
    path = data.draw(st.sampled_from(sorted(_paths(doc), key=repr)))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = data.draw(_json_values(), label=repr(path))
    raw = data.draw(st.none() | st.binary(max_size=12).map(lambda b: b"\xff" + b))
    a, b = root / "fuzz-a.json", root / "fuzz-b.json"
    _write_fuzzed(a, base, None)
    _write_fuzzed(b, doc, raw)
    assert main(["compare", str(a), str(b)]) in (0, 2, 3)
    assert main(["compare", str(b), str(a)]) in (0, 2, 3)
