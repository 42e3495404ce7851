"""tools/bench.py on a 1-seed run: one stream per workload, the record's fields
and a compare of the record with itself; the acceptance margins over stub
sweeps, the 8c slack, a failing check, mismatched cell counts, a stream or
seed missing from BASE and a wrong --src."""

import dataclasses
import importlib.util
import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import misopt
from misopt import cli, solver

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench.py"


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    streams = {"ms2-grid": ((7,), 30), "users-chain": ((7,), 60)}
    monkeypatch.setattr(module, "STREAMS", streams)
    # The acceptance sweeps are the ones tests/test_acceptance.py solves;
    # test_acceptance_margins_of_stub_sweeps covers _acceptance.
    monkeypatch.setattr(module, "ACCEPTANCE_SEEDS", ())
    return module


def test_one_seed_run_records_counts_snrs_checks_and_margins(
    tool, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    evaluate, path = solver.evaluate, list(sys.path)
    assert tool.main(["--label", "t", "--seeds", "1"]) == 0
    assert solver.evaluate is evaluate and sys.path == path
    assert capsys.readouterr().out == "wrote BENCH_t.json\n"
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["label"] == "t"
    assert set(record["workloads"]) == {"ms2-grid", "users-chain"}
    for name, cells in (("ms2-grid", 9), ("users-chain", 8)):
        stream = record["workloads"][name]["7"]
        assert stream["seeds"] == [7]
        assert stream["evaluations"] > 0
        assert stream["check_failures"] == 0 and stream["failed_seeds"] == []
        (snrs,) = stream["worst_snr"]
        assert len(snrs) == cells and all(math.isfinite(s) and s > 0 for s in snrs)
    assert "smallest_8c_slack" not in record["workloads"]["ms2-grid"]["7"]
    slack = record["workloads"]["users-chain"]["7"]["smallest_8c_slack"]
    assert slack["seed"] == 7 and slack["slack"] >= 0.0
    assert record["acceptance"] == {}

    path = str(tmp_path / "BENCH_t.json")
    assert tool.main(["--compare", path, path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "| ms2-grid | 7 | 1.000 | 1.0000 | 1.0000 | 1.0000 | 0 → 0 | – → – |" in lines
    assert any(line.startswith("| users-chain | 7 | 1.000 | 1.0000 |") for line in lines)


def test_acceptance_margins_of_stub_sweeps(tool):
    """_acceptance over the real misopt names, with sweeps that check their
    setup and return chosen gains after adding chosen evaluation counts."""
    ms2_gains = np.full(36, 1.05)
    ms2_gains[[5, 18, 4]] = 0.97, 1.31, 1.5  # min; best <= 4-element cell; larger cell
    counter = types.SimpleNamespace(calls=1000)

    def sweep_ms2_sizes(spec, config):
        assert spec == misopt.ArcScenarioSpec(misopt.MisGeometry(6, 6, 6, 6), 8)
        assert config == misopt.SolverConfig(rng_seed=11, num_restarts=3)
        counter.calls += 123
        return types.SimpleNamespace(gains=lambda: ms2_gains)

    def sweep_allocation(specs, config):
        steps = misopt.experiments.allocation_steps(64, 1)
        assert specs == [misopt.ArcScenarioSpec(geom, 8) for geom in steps]
        assert config == misopt.SolverConfig(rng_seed=11, num_restarts=16)
        counter.calls += 45
        return types.SimpleNamespace(gains=lambda: np.array([1.0, 1.42, 1.2]))

    stub = types.SimpleNamespace(**vars(misopt))
    stub.sweep_ms2_sizes, stub.sweep_allocation = sweep_ms2_sizes, sweep_allocation
    assert tool._acceptance(stub, 11, counter) == {
        "criterion_7_min_gain": 0.97,
        "criterion_8a_best_small_gain": 1.31,
        "criterion_8b_peak_gain": 1.42,
        "evaluations": {"ms2_sweep": 123, "alloc_sweep": 45},
    }


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--label", "a", "--compare", "x", "y"],
        ["--label", "a", "--seeds", "0"],
        ["--label", "a", "--src", "no-such-src"],
        ["--label", "a", "--src", "{partial}"],
    ],
)
def test_needs_one_of_label_and_compare_and_a_positive_seed_count(tool, tmp_path, argv):
    # A tree with misopt/__init__.py but no misopt/cli.py.
    (tmp_path / "misopt").mkdir()
    (tmp_path / "misopt" / "__init__.py").touch()
    with pytest.raises(SystemExit) as exit_info:
        tool.main([arg.format(partial=tmp_path) for arg in argv])
    assert exit_info.value.code == 2


def _users_csv(path, chains):
    """A ``sweep-users`` CSV of ``chains``, layout -> SNRs at 4, 8, 16 and 32
    users, written with the user counts in falling order."""
    rows = ["config,users,num_patterns,worst_snr,worst_snr_db,seed"]
    for layout, chain in chains.items():
        for k, v in reversed(list(zip((4, 8, 16, 32), chain))):
            rows.append(f"{layout}:ms1=x,{k},9,{v!r},0,0")
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_chain_slack_is_the_smallest_fall_between_consecutive_user_counts(tool, tmp_path):
    falling = {"1d": (4.0, 3.0, 2.0, 1.0), "2d": (8.0, 4.0, 2.0, 1.0)}
    assert tool._chain_slack(_users_csv(tmp_path / "a.csv", falling)) == pytest.approx(1 / 3)
    rising = {"1d": (4.0, 3.0, 2.0, 2.5), "2d": (8.0, 4.0, 2.0, 1.0)}
    assert tool._chain_slack(_users_csv(tmp_path / "b.csv", rising)) == pytest.approx(-0.2)
    ms2 = tmp_path / "sweep_ms2.csv"
    ms2.write_text("geometry,users,seed,baseline_snr,mis_snr,gain\ng0,8,0,1.0,1.0,1.0\n")
    assert tool._chain_slack(str(ms2)) is None
    assert tool._chain_slack(str(tmp_path / "missing.csv")) is None


def test_a_failing_check_records_its_seed(tool, tmp_path):
    workload = tool.WORKLOADS["ms2-grid"]
    calls = []

    def check_rows(rows):
        # The second seed's run fails its fifth cell; the solver is untouched.
        calls.append(rows)
        cells = workload.check_rows(rows)
        if len(calls) == 2:
            cells[4] = (cells[4][0], False)
        return cells

    faked = dataclasses.replace(workload, check_rows=check_rows)
    record = tool._stream(cli, faked, 7, 2, tool._Counted(solver), str(tmp_path))
    assert record["check_failures"] == 1 and record["failed_seeds"] == record["seeds"][1:]
    assert "smallest_8c_slack" not in record


def test_compare_rejects_a_seed_with_a_different_cell_count(tool):
    """Also a stream, a workload or an acceptance seed that BASE lacks."""
    def record(snrs, streams=("7",), seeds=()):
        stream = {"seeds": [7, 9], "evaluations": 1, "worst_snr": snrs, "check_failures": 0}
        return {
            "workloads": {"ms2-grid": dict.fromkeys(streams, stream)},
            "acceptance": dict.fromkeys(seeds, {"evaluations": {}}),
        }

    snrs = [[1.0, 2.0], [1.0, 2.0]]
    cases = [
        ("ms2-grid stream 7 seed 9: 2 cells in BASE, 1 in NEW",
         record(snrs), record([[1.0, 2.0], [2.0]])),
        ("ms2-grid stream 9 is not in BASE", record(snrs), record(snrs, ("7", "9"))),
        ("ms2-grid stream 7 is not in BASE", {"workloads": {}}, record(snrs)),
        ("acceptance seed 1009 is not in BASE", record(snrs), record(snrs, seeds=["1009"])),
    ]
    for message, base, new in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            tool.compare(base, new)


def test_src_whose_misopt_is_not_the_imported_one_writes_no_record(
    tool, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    # misopt is already imported from this checkout, not from "other".
    (tmp_path / "other" / "misopt").mkdir(parents=True)
    for name in ("__init__.py", "cli.py"):
        (tmp_path / "other" / "misopt" / name).touch()
    with pytest.raises(SystemExit, match="not from --src"):
        tool.main(["--label", "t", "--src", str(tmp_path / "other"), "--seeds", "1"])
    assert not list(tmp_path.glob("BENCH_*.json"))
