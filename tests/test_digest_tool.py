"""tools/csv_digests.py: run order, digest agreement and failures, with the
CLI runs replaced by a fake."""

import importlib.util
from pathlib import Path

import pytest

from misopt.cli import _SUBCOMMANDS

TOOL = Path(__file__).resolve().parents[1] / "tools" / "csv_digests.py"


def _load():
    spec = importlib.util.spec_from_file_location("csv_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tool(monkeypatch, tmp_path):
    module = _load()
    monkeypatch.setattr(module, "COMMANDS", ("solve", "case-study --figure 6"))
    # Trees a and b: each holds a misopt package, as --src must.
    monkeypatch.chdir(tmp_path)
    for tree in ("a", "b"):
        (tmp_path / tree / "misopt").mkdir(parents=True)
        (tmp_path / tree / "misopt" / "__init__.py").touch()
        (tmp_path / tree / "misopt" / "cli.py").touch()
    return module


def _fake_runs(tool, monkeypatch, digest):
    """Replace the CLI runs: a run reports ``digest(tree, command)`` for each
    output (None: the command failed); returns the ``(command, tree)`` pairs
    in run order."""
    order = []

    def run(src, command, cwd):
        tree = Path(src).name
        order.append((command, tree))
        return digest(tree, command)

    monkeypatch.setattr(tool, "_run", run)
    return order


def test_every_command_runs_once_per_tree_at_each_seed(tool, monkeypatch, capsys):
    order = _fake_runs(tool, monkeypatch, lambda tree, command: ("x",) * 3)
    assert tool.main(["--src", "a", "--src", "b"]) == 0
    assert tool.SEEDS == (7, 1009)
    assert order == [
        (f"{command} --seed {seed}", tree)
        for command in ("solve", "case-study --figure 6")
        for seed in tool.SEEDS
        for tree in ("a", "b")
    ]
    lines = capsys.readouterr().out.splitlines()
    assert "| `case-study --figure 6 --seed 1009` | stdout | `x` | `x` |" in lines
    assert len(lines) == 2 + 2 * 2 * 3


def test_two_trees_whose_digests_differ_in_one_output_exit_1(tool, monkeypatch, capsys):
    def digest(tree, command):
        moved = tree == "b" and command == "solve --seed 1009"
        return "x", "y" if moved else "x", "x"

    _fake_runs(tool, monkeypatch, digest)
    assert tool.main(["--src", "a", "--src", "b"]) == 1
    captured = capsys.readouterr()
    assert "| `solve --seed 1009` | manifest | `x` | `y` |" in captured.out.splitlines()
    assert "digests differ" in captured.err


def test_a_failing_command_exits_1(tool, monkeypatch, capsys):
    order = _fake_runs(
        tool, monkeypatch, lambda tree, command: None if "--seed 7" in command else ("x",) * 3
    )
    assert tool.main(["--src", "a"]) == 1
    assert len(order) == 4
    assert "| `solve --seed 7` | csv | `None` |" in capsys.readouterr().out.splitlines()


def test_src_without_misopt_is_rejected_before_any_run(tool, monkeypatch, tmp_path):
    order = _fake_runs(tool, monkeypatch, lambda tree, command: ("x",) * 3)
    with pytest.raises(SystemExit) as exit_info:
        tool.main(["--src", str(tmp_path / "no-such-src"), "--src", "a"])
    assert exit_info.value.code == 2 and order == []
    # Trees that hold misopt but lack one of its two files.
    (tmp_path / "a" / "misopt" / "cli.py").unlink()
    (tmp_path / "b" / "misopt" / "__init__.py").unlink()
    for tree in ("a", "b"):
        with pytest.raises(SystemExit) as exit_info:
            tool.main(["--src", tree])
        assert exit_info.value.code == 2 and order == []


def test_commands_cover_every_solving_subcommand():
    commands = {command.split()[0] for command in _load().COMMANDS}
    assert commands == set(_SUBCOMMANDS) - {"selftest", "oracle-check"}
