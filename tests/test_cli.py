import json

import pytest

from intralab.cli import main
from intralab.frames import write_yuv420
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


def test_io_errors_exit_3(glyph_yuv, tmp_path, capsys):
    assert main(run_args("/nonexistent/missing.yuv")) == 3
    # truncated input: one 64x64 frame present, second requested
    assert main(run_args(glyph_yuv, "--frame-count", "2")) == 3
    not_a_report = tmp_path / "junk.json"
    not_a_report.write_text("scan_index,tool\n")
    assert main(["compare", str(not_a_report), str(not_a_report)]) == 3
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


def test_compare_malformed_record_exits_3(glyph_yuv, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(run_args(glyph_yuv, "--out", str(out))) == 0
    doc = json.loads(out.read_text())
    del doc["records"][0]["tool"]
    out.write_text(json.dumps(doc))
    assert main(["compare", str(out), str(out)]) == 3
    assert "record 0" in capsys.readouterr().err


def test_seed_is_not_a_run_setting(glyph_yuv, tmp_path, capsys):
    config_path = tmp_path / "seeded.json"
    config_path.write_text(json.dumps({"input_path": glyph_yuv, "width": 64, "height": 64, "seed": 3}))
    assert main(["run", "--config", str(config_path)]) == 2
    assert "unknown config keys: seed" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(run_args(glyph_yuv, "--seed", "3"))
