"""Smoke tests: the scripts run end to end on small fixtures."""

import importlib.util
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("metric", ["satd", "sad"])
def test_ab_screen_content_writes_comparable_reports(tmp_path, capsys, metric):
    out = tmp_path / "reports"
    assert load_script("ab_screen_content").main(["--out", str(out), "--size", "32", "--metric", metric]) == 0
    assert "strictly better mean SAD on" in capsys.readouterr().out
    reports = sorted(p.name for p in out.iterdir())
    assert reports == sorted(f"{name}-{tool}.json" for name in SCREEN_FIXTURES for tool in ("timd", "etimd"))
    assert read_report(str(out / reports[0])).config["metric"] == metric


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
    assert out[-2].startswith("median b/a: encode x") and out[-1] == "same results: yes"
    assert not any(name.startswith("intralab_") for name in sys.modules)
