"""tools/bench.py on a 1-seed run: one stream per workload and one acceptance
seed, the record's fields and a compare of the record with itself."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from misopt import solver

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench.py"


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    streams = {"ms2-grid": ((7,), 30), "users-chain": ((7,), 60)}
    monkeypatch.setattr(module, "STREAMS", streams)
    monkeypatch.setattr(module, "ACCEPTANCE_SEEDS", (7,))
    return module


def test_one_seed_run_records_counts_snrs_checks_and_margins(
    tool, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    evaluate = solver.evaluate
    assert tool.main(["--label", "t", "--seeds", "1"]) == 0
    assert solver.evaluate is evaluate
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
    margins = record["acceptance"]["7"]
    assert margins["criterion_7_min_gain"] >= 1.0 - 1e-6
    assert margins["criterion_8a_best_small_gain"] >= margins["criterion_7_min_gain"]
    assert margins["criterion_8b_peak_gain"] >= 1.0
    assert all(calls > 0 for calls in margins["evaluations"].values())

    path = str(tmp_path / "BENCH_t.json")
    assert tool.main(["--compare", path, path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "| ms2-grid | 7 | 1.000 | 1.0000 | 1.0000 | 1.0000 | 0 → 0 | – → – |" in lines
    assert any(line.startswith("| users-chain | 7 | 1.000 | 1.0000 |") for line in lines)


@pytest.mark.parametrize(
    "argv", [[], ["--label", "a", "--compare", "x", "y"], ["--label", "a", "--seeds", "0"]]
)
def test_needs_one_of_label_and_compare_and_a_positive_seed_count(tool, argv):
    with pytest.raises(SystemExit):
        tool.main(argv)
