"""tools/csv_digests.py: repeat order, digest agreement and timing spreads,
with the CLI runs replaced by a fake."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "csv_digests.py"


@pytest.fixture
def tool(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("csv_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "COMMANDS", ("solve --seed 7",))
    # Trees a and b: each holds a misopt package, as --src must.
    monkeypatch.chdir(tmp_path)
    for tree in ("a", "b"):
        (tmp_path / tree / "misopt").mkdir(parents=True)
        (tmp_path / tree / "misopt" / "__init__.py").touch()
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


def test_src_without_misopt_is_rejected_before_any_run(tool, monkeypatch, tmp_path):
    order = _fake_runs(tool, monkeypatch, {"a": ["x"]})
    with pytest.raises(SystemExit) as exit_info:
        tool.main(["--src", str(tmp_path / "no-such-src"), "--src", "a"])
    assert exit_info.value.code == 2 and order == []


def _fake_csv_runs(tool, monkeypatch, columns):
    """Replace the CLI runs: tree ``t`` writes a CSV with ``columns[t]``, a
    mapping of column name to cell values; returns the commands run."""
    commands = []

    def run(src, command, cwd):
        commands.append(command)
        (name, values), = columns[Path(src).name].items()
        out = Path(cwd) / "out"
        out.mkdir()
        rows = [f"geometry,{name}"] + [f"g{i},{v!r}" for i, v in enumerate(values)]
        (out / "sweep.csv").write_text("\n".join(rows) + "\n")
        return ("x",) * 3, 1.0, 1.0

    monkeypatch.setattr(tool, "_run", run)
    return commands


@pytest.mark.parametrize("column", ["mis_snr", "worst_snr", "snr"])
def test_two_trees_report_per_cell_ratios(tool, monkeypatch, capsys, column):
    _fake_csv_runs(
        tool,
        monkeypatch,
        {"a": {column: [2.0, 4.0, 1.0]}, "b": {column: [2.0, 1.0, 4.0]}},
    )
    assert tool.main(["--src", "a", "--src", "b"]) == 0
    # ratios 1, 0.25 and 4: min 0.25, max 4, geometric mean 1, one cell below 1 - 1e-4
    out = capsys.readouterr().out
    assert "| Cells | Min B/A | Max B/A | Geomean B/A |" in out
    assert "| `solve --seed 7` | 3 | 0.250000 | 4.000000 | 1.000000 | 1 |" in out


def test_ratio_cells_below_count_uses_the_relative_tolerance(tool, monkeypatch, capsys):
    _fake_csv_runs(
        tool,
        monkeypatch,
        {"a": {"mis_snr": [1.0, 1.0, 1.0]}, "b": {"mis_snr": [1.0, 1 - 5e-5, 1 - 2e-4]}},
    )
    assert tool.main(["--src", "a", "--src", "b"]) == 0
    row = next(line for line in capsys.readouterr().out.splitlines() if "| 3 |" in line)
    assert row.endswith("| 1 |")


def test_ratios_need_an_snr_column_and_two_trees(tool, monkeypatch, capsys):
    _fake_csv_runs(tool, monkeypatch, {"a": {"gain": [1.0]}, "b": {"gain": [2.0]}})
    assert tool.main(["--src", "a", "--src", "b"]) == 0
    assert "| `solve --seed 7` | n/a | n/a | n/a | n/a | n/a |" in capsys.readouterr().out
    _fake_csv_runs(tool, monkeypatch, {"a": {"snr": [1.0]}})
    assert tool.main(["--src", "a"]) == 0
    assert "Min B/A" not in capsys.readouterr().out


def test_seed_replaces_the_default_seed_in_every_command(tool, monkeypatch, capsys):
    monkeypatch.setattr(tool, "COMMANDS", ("solve --seed 7", "case-study --figure 6 --seed 7"))
    commands = _fake_csv_runs(tool, monkeypatch, {"a": {"snr": [1.0]}})
    assert tool.main(["--src", "a", "--seed", "1009"]) == 0
    assert commands == ["solve --seed 1009", "case-study --figure 6 --seed 1009"]
    assert "| `case-study --figure 6 --seed 1009` | csv | `x` |" in capsys.readouterr().out


def test_case_study_ratios_read_only_the_chosen_rows(tool, monkeypatch, capsys):
    def run(src, command, cwd):
        # One user served on pattern 2; pattern 1's row moves 4x, unserved.
        snrs = {"a": (1.0, 2.0), "b": (4.0, 3.0)}[Path(src).name]
        out = Path(cwd) / "out"
        out.mkdir()
        (out / "case_study.csv").write_text(
            "scheme,user,pattern,snr,snr_db,chosen\n"
            f"mis,1,1,{snrs[0]!r},0,0\nmis,1,2,{snrs[1]!r},0,1\n"
        )
        return ("x",) * 3, 1.0, 1.0

    monkeypatch.setattr(tool, "_run", run)
    assert tool.main(["--src", "a", "--src", "b"]) == 0
    assert "| `solve --seed 7` | 1 | 1.500000 | 1.500000 | 1.500000 | 0 |" in (
        capsys.readouterr().out
    )
