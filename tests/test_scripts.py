"""Smoke tests: the scripts run end to end on small fixtures."""

import importlib.util
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from intralab.frames import load_frame
from intralab.reporting import read_report
from intralab.synth import SCREEN_FIXTURES

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_fixtures_writes_every_fixture(tmp_path, capsys):
    out = tmp_path / "fixtures"
    assert load_script("make_fixtures").main(["--out", str(out), "--size", "32", "--noise-frames", "2"]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert "noise.yuv" in files and "tiled-glyph.yuv" in files
    assert (out / "noise.yuv").stat().st_size == 2 * 32 * 32 * 3 // 2
    assert len(capsys.readouterr().out.splitlines()) == len(files)


def test_make_fixtures_writes_size_by_size_planes_at_any_even_size(tmp_path):
    out = tmp_path / "fixtures"
    assert load_script("make_fixtures").main(["--out", str(out), "--size", "40", "--noise-frames", "1"]) == 0
    for path in out.iterdir():
        assert path.stat().st_size == 40 * 40 * 3 // 2, path.name
    frame = load_frame(str(out / "ui-tiles.yuv"), "yuv-planar", 40, 40, 8)
    np.testing.assert_array_equal(frame.samples, SCREEN_FIXTURES["ui-tiles"](seed=4, size=40))


@pytest.mark.parametrize("metric", ["satd", "sad"])
def test_ab_screen_content_writes_comparable_reports(tmp_path, capsys, metric):
    out = tmp_path / "reports"
    assert load_script("ab_screen_content").main(["--out", str(out), "--size", "32", "--metric", metric]) == 0
    assert "strictly better mean SAD on" in capsys.readouterr().out
    reports = sorted(p.name for p in out.iterdir())
    assert reports == sorted(f"{name}-{tool}.json" for name in SCREEN_FIXTURES for tool in ("timd", "etimd"))
    assert read_report(str(out / reports[0])).config["metric"] == metric


@pytest.mark.parametrize("size", [30, 40])
def test_ab_screen_content_runs_at_sizes_not_a_multiple_of_16_or_32(size, capsys):
    assert load_script("ab_screen_content").main(["--size", str(size), "--block-size", "8"]) == 0
    assert "strictly better mean SAD on" in capsys.readouterr().out


@pytest.mark.parametrize(
    "script, args",
    [
        ("ab_screen_content", ["--search-range", "0"]),
        ("ab_screen_content", ["--search-range", "-5"]),
        ("ab_screen_content", ["--search-range", "wide"]),
        ("ab_screen_content", ["--block-size", "7"]),
        ("ab_screen_content", ["--size", "7"]),
        ("ab_screen_content", ["--size", "0"]),
        ("ab_screen_content", ["--seed", "-1"]),
        ("make_fixtures", ["--size", "0"]),
        ("make_fixtures", ["--size", "7"]),
        ("make_fixtures", ["--noise-frames", "0"]),
        ("make_fixtures", ["--seed", "-1"]),
        ("ab_cpu", ["--a", str(SCRIPTS.parent), "--rounds", "0"]),
        ("ab_cpu", ["--a", str(SCRIPTS.parent), "--frames", "0"]),
        ("ab_cpu", ["--a", str(SCRIPTS.parent), "--variants", "-1"]),
        ("ab_cpu", ["--a", str(SCRIPTS)]),
        ("ab_cpu", ["--a", str(SCRIPTS.parent), "--b", str(SCRIPTS)]),
    ],
)
def test_script_input_errors_exit_2_with_one_line(script, args, tmp_path, capsys):
    out = [] if script == "ab_cpu" else ["--out", str(tmp_path / "out")]  # ab_cpu writes no files
    with pytest.raises(SystemExit) as exc:
        load_script(script).main([*out, *args])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_ab_screen_content_metric_choices_are_the_cost_metrics(monkeypatch):
    monkeypatch.setattr("intralab.cost.METRICS", ("sad",))
    with pytest.raises(SystemExit):
        load_script("ab_screen_content").main(["--metric", "satd"])


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path, capsys):
    source = (
        '"""Module\ndocstring."""\n\n# comment\nx = (1,\n     2)  # trailing\n\n\n'
        'def f():\n    """Doc."""\n    return """not a\ndocstring"""\n'
    )
    (tmp_path / "m.py").write_text(source, encoding="utf-8")
    assert load_script("code_lines").main(["--src", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    # 12 lines; code on lines 5, 6, 9, 11 and 12
    assert rows == [["module", "lines", "code"], ["m.py", "12", "5"], ["total", "12", "5"]]


def test_ab_cpu_runs_two_frames_of_a_workload_against_itself(capsys):
    root = SCRIPTS.parent
    argv = ["--a", str(root), "--b", str(root), "--workload", "natural-timd", "--variants", "1", "--frames", "2",
            "--rounds", "1"]
    assert load_script("ab_cpu").main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "natural-timd: 2 frames, a imported first; CPU s per round"
    assert out[-3] == "displaced strips costed (untimed encode): a 0, b 0"  # TIMD runs no template search
    assert out[-2].startswith("median b/a: encode x") and out[-1] == "same results: yes"
    assert not any(name.startswith("intralab_") for name in sys.modules)


def _ab_cpu_against_patched(tmp_path, capsys, module, patch, workload="natural-timd", frames=1, line=-1):
    """ab_cpu's exit code and output line, this tree against a copy with patch appended to module."""
    root = SCRIPTS.parent
    package = tmp_path / "src" / "intralab"
    shutil.copytree(root / "src" / "intralab", package, ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / module, "a", encoding="utf-8") as fh:
        fh.write(patch)
    argv = ["--a", str(root), "--b", str(tmp_path), "--workload", workload, "--variants", "1", "--frames", str(frames),
            "--rounds", "1"]
    return load_script("ab_cpu").main(argv), capsys.readouterr().out.splitlines()[line]


def test_ab_cpu_counts_the_strips_each_side_costs(tmp_path, capsys):
    # Smaller chunks tighten the search's limit sooner: the same results
    # from fewer costed strips, which only the untimed count shows.
    code, line = _ab_cpu_against_patched(tmp_path, capsys, "tmp.py", "\nSEARCH_CHUNK = 16\n", "screen-etimd", 2, -3)
    counts = re.fullmatch(r"displaced strips costed \(untimed encode\): a ([\d,]+), b ([\d,]+)", line)
    a, b = (int(counts[side].replace(",", "")) for side in (1, 2))
    assert code == 0 and 0 < b < a


def test_ab_cpu_compares_costs(tmp_path, capsys):
    # Doubling every template cost keeps each ranking, fusion weight and
    # reconstruction, so only the costs tell the two trees apart.
    patch = ("\n_layout_cost = layout_cost\n\n\ndef layout_cost(diffs, layout, metric):\n"
             "    return 2 * _layout_cost(diffs, layout, metric)\n")
    assert _ab_cpu_against_patched(tmp_path, capsys, "cost.py", patch) == (1, "same results: NO")


def test_ab_cpu_compares_measured_fields(tmp_path, capsys):
    # The measurement runs after coding, so doubling pred_satd changes no
    # decision, cost or reconstruction: only the block records differ.
    patch = ("\n_measure_blocks = measure_blocks\n\n\ndef measure_blocks(ctx, results):\n"
             "    for res in _measure_blocks(ctx, results):\n        res.pred_satd *= 2\n    return results\n")
    assert _ab_cpu_against_patched(tmp_path, capsys, "etimd.py", patch) == (1, "same results: NO")


def test_ab_screen_content_takes_a_full_search_range(tmp_path, capsys):
    out = tmp_path / "reports"
    script = load_script("ab_screen_content")
    assert script.main(["--out", str(out), "--size", "32", "--search-range", "full"]) == 0
    assert "strictly better mean SAD on" in capsys.readouterr().out
    assert read_report(str(next(out.iterdir()))).config["search_range"] is None
    with pytest.raises(SystemExit) as exit_info:
        script.main(["--search-range", "wide"])
    assert exit_info.value.code == 2
