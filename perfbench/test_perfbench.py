"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMALL_SWEEP = ["sweep-ms2", "--m-rows", "2", "--m-cols", "2", "--users", "4",
               "--restarts", "1", "--seed", "7", "--jobs", "1"]


def _traced(tmp_path: Path, tag: str) -> dict:
    out = tmp_path / tag
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "trace", str(out), *SMALL_SWEEP,
         "--out", str(out / "result")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads((out / "trace.json").read_text())


def test_traced_counts_repeat_exactly(tmp_path):
    first, second = _traced(tmp_path, "a"), _traced(tmp_path, "b")
    assert first["counts"] == second["counts"]
    calls = {name: v["calls"] for name, v in first["spans"].items()}
    assert calls == {name: v["calls"] for name, v in second["spans"].items()}
    assert calls["objective.evaluate_value"] == first["counts"]["solver.line_search.evals"]
    assert first["counts"]["solver.line_search.accepted"] > 0


def test_self_time_excludes_child_spans():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    traced_leaf = tracer.wrap("inner.leaf", leaf)

    def outer():
        traced_leaf()
        traced_leaf()
        time.sleep(0.01)

    tracer.wrap("outer.run", outer)()
    totals = tracer.aggregate()
    run, leaf_totals = totals["outer.run"], totals["inner.leaf"]
    assert leaf_totals["calls"] == 2 and run["calls"] == 1
    assert abs(run["self_s"] - (run["busy_s"] - leaf_totals["busy_s"])) < 1e-9
    assert 0.005 < run["self_s"] < leaf_totals["busy_s"]
    assert leaf_totals["outer_s"] == leaf_totals["busy_s"]


def _csv(tmp_path: Path, header: str, rows: list) -> Path:
    path = tmp_path / "cells.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


def test_checks_flag_bad_cells(tmp_path):
    ms2 = _csv(tmp_path, "geometry,users,seed,baseline_snr,mis_snr,gain", [
        "a,8,7,1.0,1.5,1.5", "b,8,7,1.0,0.9,0.9", "c,8,7,1.0,nan,nan"])
    assert [ok for _, ok in WORKLOADS["ms2-grid"].check(ms2)] == [True, False, False]
    users = _csv(tmp_path, "config,users,num_patterns,worst_snr,worst_snr_db,seed", [
        "1d:x,4,29,9.0,0,7", "1d:x,8,29,10.0,0,7", "2d:y,4,9,5.0,0,7", "2d:y,8,9,4.0,0,7"])
    assert [ok for _, ok in WORKLOADS["users-chain"].check(users)] == [
        True, False, True, True]
    solve = _csv(tmp_path, "user,pattern,snr,snr_db", ["1,1,3.0,4.7", "2,1,2.0,3.0"])
    assert WORKLOADS["solve-large"].check(solve) == [(2.0, True)]


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-large", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
