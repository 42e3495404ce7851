"""tools/csv_digests.py: repeat order, digest agreement and timing spreads,
with the CLI runs replaced by a fake."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "csv_digests.py"


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("csv_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "COMMANDS", ("solve --seed 7",))
    return module


def _fake_runs(tool, monkeypatch, digests):
    """Replace the CLI runs: the k-th run of a tree reports ``digests[tree][k]``
    and a wall and CPU time of k + 1 seconds; returns the trees in run order."""
    order = []

    def run(src, command, cwd):
        tree = Path(src).name
        k = sum(t == tree for t in order)
        order.append(tree)
        return (digests[tree][k],) * 3, k + 1.0, k + 1.0

    monkeypatch.setattr(tool, "_run", run)
    return order


def test_repeat_alternates_trees_and_reports_spreads(tool, monkeypatch, capsys):
    order = _fake_runs(tool, monkeypatch, {"a": ["x"] * 3, "b": ["x"] * 3})
    assert tool.main(["--src", "a", "--src", "b", "--repeat", "3"]) == 0
    assert order == ["a", "b", "b", "a", "a", "b"]
    lines = capsys.readouterr().out.splitlines()
    assert "| `solve --seed 7` | csv | `x` | `x` |" in lines
    assert "| `solve --seed 7` | a | 2.000 [1.000, 3.000] | 2.000 [1.000, 3.000] |" in lines


def test_default_single_run_prints_no_spreads(tool, monkeypatch, capsys):
    order = _fake_runs(tool, monkeypatch, {"a": ["x"], "b": ["x"]})
    assert tool.main(["--src", "a", "--src", "b"]) == 0
    assert order == ["a", "b"]
    assert "median" not in capsys.readouterr().out


def test_repeat_fails_when_a_rerun_differs(tool, monkeypatch, capsys):
    _fake_runs(tool, monkeypatch, {"a": ["x", "y"]})
    assert tool.main(["--src", "a", "--repeat", "2"]) == 1
    assert "| `solve --seed 7` | csv | `x` / `y` |" in capsys.readouterr().out.splitlines()


def test_repeat_must_be_positive(tool):
    with pytest.raises(SystemExit):
        tool.main(["--repeat", "0"])
