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


def _fake_stream_runs(tool, monkeypatch, mis):
    """Replace the CLI runs with ``ms2-grid`` CSVs: tree ``t``'s run of the
    i-th command reports baseline SNR 1 and ``mis[t](i)`` as its nine cells'
    SNRs; returns the commands run."""
    commands = []

    def run(src, command, cwd):
        if command not in commands:
            commands.append(command)
        values = mis[Path(src).name](commands.index(command))
        out = Path(cwd) / "out"
        out.mkdir()
        rows = ["geometry,users,seed,baseline_snr,mis_snr,gain"]
        rows += [f"g{i},8,0,1.0,{v!r},{v!r}" for i, v in enumerate(values)]
        (out / "sweep_ms2.csv").write_text("\n".join(rows) + "\n")
        return ("x",) * 3, 1.0, 1.0

    monkeypatch.setattr(tool, "_run", run)
    return commands


def test_stream_runs_the_workload_on_its_seed_stream(tool, monkeypatch, capsys):
    commands = _fake_stream_runs(tool, monkeypatch, {"a": lambda i: [1.0] * 9})
    assert tool.main(["--stream", "ms2-grid", "--seeds", "3", "--src", "a"]) == 0
    workload = tool.WORKLOADS["ms2-grid"]
    seeds = workload.seeds(7)
    expected = [" ".join([*workload.args, "--seed", str(next(seeds))]) for _ in range(3)]
    assert commands == expected and expected[0].endswith("--seed 7")
    out = capsys.readouterr().out
    assert f"| `{expected[2]}` | csv | `x` |" in out
    assert "Every run passed the ms2-grid output checks." in out
    # ms2-grid has no user chains, so no criterion-8c slack
    assert "slack" not in out


def test_stream_reports_failing_cells_and_exits_nonzero(tool, monkeypatch, capsys):
    # Tree b's second seed puts cells 2 and 5 below their baseline (criterion 7).
    def below(i):
        return [0.5 if i == 1 and cell in (2, 5) else 1.0 for cell in range(9)]

    commands = _fake_stream_runs(tool, monkeypatch, {"a": lambda i: [1.0] * 9, "b": below})
    argv = ["--stream", "ms2-grid", "--seeds", "2", "--src", "a", "--src", "b"]
    assert tool.main(argv) == 1
    captured = capsys.readouterr()
    assert f"| `{commands[1]}` | b | cells 2, 5 |" in captured.out
    assert "| `" + commands[0] + "` | b |" not in captured.out
    assert "1 runs failed the ms2-grid output checks" in captured.err
    assert "digests differ" not in captured.err


def test_stream_pools_the_ratios_of_every_seed(tool, monkeypatch, capsys):
    _fake_stream_runs(
        tool, monkeypatch, {"a": lambda i: [1.0] * 9, "b": lambda i: [2.0 ** (i + 1)] * 9}
    )
    argv = ["--stream", "ms2-grid", "--seeds", "2", "--src", "a", "--src", "b"]
    assert tool.main(argv) == 0
    # ratios 2 (first seed) and 4 (second): geometric mean sqrt(8)
    assert "| all 2 seeds | 18 | 2.000000 | 4.000000 | 2.828427 | 0 |" in (
        capsys.readouterr().out
    )


def test_stream_prints_each_trees_smallest_monotone_slack(tool, monkeypatch, capsys):
    # Tree a's chains fall by 25% and 50% at every seed; tree b's 1d chain
    # rises at its second seed, which fails criterion 8c with slack -20%.
    snrs = {
        "a": lambda i: {"1d": (4.0, 3.0, 2.0, 1.0), "2d": (8.0, 4.0, 2.0, 1.0)},
        "b": lambda i: {"1d": (4.0, 3.0, 2.0, 2.5 if i else 1.0), "2d": (8.0, 4.0, 2.0, 1.0)},
    }
    commands, seeds = [], []

    def run(src, command, cwd):
        if command not in commands:
            commands.append(command)
            seeds.append(command.split()[-1])
        rows = ["config,users,num_patterns,worst_snr,worst_snr_db,seed"]
        # rows out of user order: the slack sorts each layout by its count
        for layout, chain in snrs[Path(src).name](commands.index(command)).items():
            for k, v in reversed(list(zip((4, 8, 16, 32), chain))):
                rows.append(f"{layout}:ms1=x,{k},9,{v!r},0,0")
        out = Path(cwd) / "out"
        out.mkdir()
        (out / "sweep_users.csv").write_text("\n".join(rows) + "\n")
        return ("x",) * 3, 1.0, 1.0

    monkeypatch.setattr(tool, "_run", run)
    argv = ["--stream", "users-chain", "--seeds", "2", "--src", "a", "--src", "b"]
    assert tool.main(argv) == 1
    out = capsys.readouterr().out
    assert "| Tree | Smallest criterion-8c slack | Seed |" in out
    assert f"| a | 33.3333% | {seeds[0]} |" in out
    assert f"| b | -20.0000% | {seeds[1]} |" in out
    # the rising 32-user cell is the first row written
    assert f"| `{commands[1]}` | b | cells 0 |" in out


@pytest.mark.parametrize("argv", [["--seeds", "2"], ["--stream", "ms2-grid", "--seeds", "0"]])
def test_seeds_needs_stream_and_a_positive_count(tool, argv):
    with pytest.raises(SystemExit):
        tool.main(argv)
