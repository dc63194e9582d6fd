"""``tools/artifact_digest.py --compare`` on two hand-written work
directories: its lines and its exit code."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_digest.py"


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("artifact_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(work: Path, trace: str, report: dict, extra: str | None = None):
    out = work / "run" / "out"
    out.mkdir(parents=True)
    (out / "trace.csv").write_text(trace)
    (out / "run_report.json").write_text(json.dumps(
        {"timings_ms": {"total": 1.0}, "git_describe": str(work),
         "summary": {}, "output_dir": str(out), **report}))
    if extra is not None:
        (out / "extra.csv").write_text(extra)


def test_compare_lines(digest, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    write_run(a, "it,value\n0,1.0\n1,2.0\n", {"w": [0.5, 0.5], "name": "x"})
    write_run(b, "it,value\n0,1.0\n1,2.000000000001\n",
              {"w": [0.5, 0.5], "name": "y"}, extra="v\n1\n")
    digest.compare(a, b)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("run extra.csv mismatch: only in")
    assert lines[1] == "run run_report.json mismatch: /name: 'x' vs 'y'"
    assert lines[2] == "run trace.csv max_rel_diff 5e-13"


def test_compare_identical_after_normalizing(digest, tmp_path, capsys):
    # timings, git_describe and the work directory do not count
    a, b = tmp_path / "a", tmp_path / "b"
    write_run(a, "x\n1\n", {"w": [1.0]})
    write_run(b, "x\n1\n", {"w": [1.0]})
    (b / "run" / "out" / "run_report.json").write_text(json.dumps(
        {**json.loads((b / "run" / "out" / "run_report.json").read_text()),
         "timings_ms": {"total": 9.0}}))
    digest.compare(a, b)
    assert capsys.readouterr().out.splitlines() == [
        "run run_report.json identical", "run trace.csv identical"]


@pytest.mark.parametrize("value, name, extra, code", [
    ("1.0000000000001", "x", None, 0),
    ("1.00000000001", "x", None, 1),
    ("1.0", "y", None, 1),
    ("1.0", "x", "v\n1\n", 1),
], ids=["rounding", "above-bound", "mismatch", "one-side-only"])
def test_compare_exit_code(digest, tmp_path, capsys, value, name, extra, code):
    # exit 1 on a mismatch, a file on one side only, or a relative move
    # above ROUNDING_BOUND (1e-12)
    a, b = tmp_path / "a", tmp_path / "b"
    write_run(a, "x\n1.0\n", {"name": "x"})
    write_run(b, f"x\n{value}\n", {"name": name}, extra=extra)
    assert digest.main(["--compare", str(a), str(b)]) == code


def test_non_finite_cells(digest):
    # a NaN that appears on one side only is an infinite difference
    def diff(a, b):
        return digest._diff(digest._cells(a), digest._cells(b))
    assert diff("v\n1.0\n", "v\nnan\n") == math.inf
    assert diff("v\nnan\ninf\n", "v\nnan\ninf\n") == 0.0
