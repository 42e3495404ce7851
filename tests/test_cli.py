import json
import os

import pytest

from misopt import cli
from misopt.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_selftest_passes(capsys):
    code, out, _ = run(["selftest"], capsys)
    assert code == 0
    assert "all" in out and "passed" in out


def test_solve_rejects_oversized_movable_layer(tmp_path, capsys):
    code, _, err = run(
        [
            "solve",
            "--m-rows", "2", "--m-cols", "2",
            "--n-rows", "3", "--n-cols", "1",
            "--users", "2",
            "--out", str(tmp_path / "out"),
        ],
        capsys,
    )
    assert code == 1
    assert "fit" in err


def test_unknown_config_key_rejected(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3, "bogus_knob": 1}))
    code, _, err = run(
        ["case-study", "--figure", "6", "--config", str(config)], capsys
    )
    assert code == 1
    assert "bogus_knob" in err


def test_missing_required_key_rejected(tmp_path, capsys):
    code, _, err = run(["case-study", "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert "figure" in err


def test_solve_happy_path(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run(
        [
            "solve",
            "--m-rows", "2", "--m-cols", "1",
            "--n-rows", "1", "--n-cols", "1",
            "--users", "2",
            "--seed", "3",
            "--out", str(out_dir),
        ],
        capsys,
    )
    assert code == 0
    assert "worst-case snr" in out
    assert "dB" in out
    assert (out_dir / "solve.csv").exists()
    manifest = json.loads((out_dir / "solve_manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["config"]["subcommand"] == "solve"
    assert manifest["tool_version"]


def test_case_study_byte_identical_reruns(tmp_path, capsys):
    args = ["case-study", "--figure", "6", "--seed", "7"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code_a, _, _ = run(args + ["--out", str(out_a)], capsys)
    code_b, _, _ = run(args + ["--out", str(out_b)], capsys)
    assert code_a == 0 and code_b == 0
    bytes_a = (out_a / "case_study.csv").read_bytes()
    bytes_b = (out_b / "case_study.csv").read_bytes()
    assert bytes_a == bytes_b
    digest_a = json.loads((out_a / "case_study_manifest.json").read_text())["results_digest"]
    digest_b = json.loads((out_b / "case_study_manifest.json").read_text())["results_digest"]
    assert digest_a == digest_b


def test_manifest_config_round_trip(tmp_path, capsys):
    out_a = tmp_path / "a"
    code, _, _ = run(
        ["case-study", "--figure", "6", "--seed", "5", "--out", str(out_a)], capsys
    )
    assert code == 0
    manifest = json.loads((out_a / "case_study_manifest.json").read_text())

    config_file = tmp_path / "replay.json"
    replay_cfg = dict(manifest["config"])
    replay_cfg["out"] = str(tmp_path / "b")
    config_file.write_text(json.dumps(replay_cfg))
    code, _, _ = run(["case-study", "--config", str(config_file)], capsys)
    assert code == 0
    replay = json.loads((tmp_path / "b" / "case_study_manifest.json").read_text())
    assert replay["results_digest"] == manifest["results_digest"]


def test_flags_override_config_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"figure": 6, "seed": 1, "out": str(tmp_path / "x")}))
    code, _, _ = run(
        ["case-study", "--config", str(config), "--seed", "2"], capsys
    )
    assert code == 0
    manifest = json.loads((tmp_path / "x" / "case_study_manifest.json").read_text())
    assert manifest["seed"] == 2


def test_outputs_stay_inside_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out_dir = tmp_path / "only_here"
    code, _, _ = run(
        ["case-study", "--figure", "6", "--seed", "1", "--out", str(out_dir)], capsys
    )
    assert code == 0
    entries = {p.name for p in tmp_path.iterdir()}
    assert entries == {"only_here"}
    assert {p.name for p in out_dir.iterdir()} == {
        "case_study.csv",
        "case_study_manifest.json",
    }


def test_sweep_alloc_tiny(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run(
        [
            "sweep-alloc",
            "--total", "4", "--scheme", "1", "--users", "2",
            "--seed", "1",
            "--out", str(out_dir),
        ],
        capsys,
    )
    assert code == 0
    assert "peak gain" in out
    assert (out_dir / "sweep_alloc.csv").exists()


def test_bad_flag_usage_is_validation_error(capsys):
    code = main(["case-study", "--figure", "9"])
    capsys.readouterr()
    assert code == 1


def test_oracle_check_passes(capsys):
    code, out, _ = run(["oracle-check", "--seed", "0"], capsys)
    assert code == 0
    assert "gradient-fd" in out
    assert "oracle-optimality" in out


def test_solve_rejects_infinite_iota(tmp_path, capsys):
    code, _, err = run(
        [
            "solve",
            "--m-rows", "2", "--m-cols", "1",
            "--n-rows", "1", "--n-cols", "1",
            "--users", "2",
            "--iota", "inf",
            "--out", str(tmp_path / "out"),
        ],
        capsys,
    )
    assert code == 1
    assert "iota" in err


# A finite iota whose squared SNR bound (iota * M**2)**2 overflows is bad
# configuration: it exits 1 in the build phase, before --out is created.
_OVERFLOWING_IOTA = {
    "solve": ["--m-rows", "2", "--m-cols", "2", "--n-rows", "1", "--n-cols", "1",
              "--users", "2"],
    "sweep-ms2": ["--m-rows", "2", "--m-cols", "2", "--users", "2"],
}


@pytest.mark.parametrize("subcommand", sorted(_OVERFLOWING_IOTA))
def test_overflowing_iota_exits_1_before_creating_out(tmp_path, capsys, subcommand):
    out = tmp_path / "out"
    code, _, err = run(
        [subcommand, *_OVERFLOWING_IOTA[subcommand], "--iota", "1e308", "--out", str(out)],
        capsys,
    )
    assert code == 1
    assert "error: iota 1e+308 is too large for 4 elements" in err
    assert not out.exists()


# JSON reads 1e999 as inf; integer keys must not be truncated either, and a
# bool or a string is not a number.  Options that became solver constants
# (inner_grad_tol, initial_step, mu_init, restart_period) and the iteration
# caps (max_inner_iters, max_outer_iters) are unknown keys.
_BAD_SOLVER_SETTINGS = [
    pytest.param("inner_grad_tol", "1e999", id="inner_grad_tol"),
    pytest.param("initial_step", "1e999", id="initial_step"),
    pytest.param("seed", "1e999", id="seed"),
    pytest.param("max_inner_iters", "1e999", id="max_inner_iters"),
    pytest.param("max_inner_iters", "null", id="max_inner_iters-null"),
    pytest.param("restarts", "2.5", id="restarts"),
    pytest.param("restart_period", "2.5", id="restart_period"),
    pytest.param("max_outer_iters", "2.5", id="max_outer_iters"),
    pytest.param("iota", "true", id="iota-bool"),
    pytest.param("initial_step", "true", id="initial_step-bool"),
    pytest.param("mu_init", '"0.5"', id="mu_init-str"),
]


@pytest.mark.parametrize("key, value", _BAD_SOLVER_SETTINGS)
def test_solve_rejects_infinite_solver_setting(tmp_path, capsys, key, value):
    config = tmp_path / "config.json"
    config.write_text(f'{{"{key}": {value}}}')
    code, _, err = run(
        [
            "solve",
            "--config", str(config),
            "--m-rows", "2", "--m-cols", "2",
            "--n-rows", "1", "--n-cols", "1",
            "--users", "3",
            "--out", str(tmp_path / "out"),
        ],
        capsys,
    )
    assert code == 1
    assert key in err
    assert not (tmp_path / "out").exists()


def test_sweeps_independent_of_jobs(tmp_path, capsys):
    cases = [
        ("sweep-ms2", ["--m-rows", "2", "--m-cols", "2", "--users", "3"], "sweep_ms2.csv"),
        ("sweep-users", ["--users", "2,3"], "sweep_users.csv"),
        ("sweep-alloc", ["--total", "16", "--scheme", "2", "--users", "3"], "sweep_alloc.csv"),
    ]
    for subcommand, flags, csv_name in cases:
        outputs = []
        for jobs in ("1", "2"):
            out_dir = tmp_path / f"{subcommand}-{jobs}"
            code, _, _ = run(
                [subcommand, *flags, "--seed", "5", "--jobs", jobs, "--out", str(out_dir)],
                capsys,
            )
            assert code == 0
            outputs.append((out_dir / csv_name).read_bytes())
        assert outputs[0] == outputs[1], subcommand


def test_default_jobs_counts_usable_cores(monkeypatch):
    assert cli._DEFAULTS["jobs"] == cli._usable_cores()
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert cli._usable_cores() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._usable_cores() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._usable_cores() == 1


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected_before_output_dir(tmp_path, capsys, jobs):
    out_dir = tmp_path / "out"
    code, _, err = run(
        ["case-study", "--figure", "6", "--jobs", jobs, "--out", str(out_dir)], capsys
    )
    assert code == 1
    assert "jobs" in err
    assert not out_dir.exists()


def test_bad_geometry_rejected_before_output_dir(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, err = run(
        ["sweep-ms2", "--m-rows", "0", "--m-cols", "2", "--users", "2", "--out", str(out_dir)],
        capsys,
    )
    assert code == 1
    assert "error" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["sweep-users", "--users", "0,4"], id="0,4"),
        pytest.param(["sweep-users", "--users", ""], id=""),
        pytest.param(["sweep-users", "--users", "2,2"], id="2,2"),
        pytest.param(
            ["sweep-ms2", "--m-rows", "2", "--m-cols", "2", "--users", "2,0"],
            id="sweep-ms2-2,0",
        ),
        pytest.param(["sweep-users", "--users", "4,x"], id="4,x"),
        pytest.param(
            ["sweep-ms2", "--m-rows", "2", "--m-cols", "2", "--users", "2.5"],
            id="sweep-ms2-2.5",
        ),
    ],
)
def test_bad_user_count_rejected_before_any_solve(tmp_path, capsys, monkeypatch, argv):
    solved = []
    monkeypatch.setattr("misopt.experiments.solve", lambda *a, **k: solved.append(a))
    out_dir = tmp_path / "out"
    code, _, err = run([*argv, "--out", str(out_dir)], capsys)
    assert code == 1
    assert "users" in err
    assert solved == []
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "users, code", [([3, 2], 0), ([3, True], 1)], ids=["ints", "bool"]
)
def test_user_list_from_json_list(tmp_path, capsys, users, code):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"users": users}))
    out_dir = tmp_path / "out"
    argv = ["sweep-ms2", "--m-rows", "2", "--m-cols", "2", "--config", str(config)]
    result, _, err = run([*argv, "--out", str(out_dir)], capsys)
    assert result == code
    if code:
        assert "users" in err
        assert not out_dir.exists()


_STUDY_ARGS = {
    "sweep-ms2": ["--m-rows", "2", "--m-cols", "2", "--users", "3"],
    "sweep-alloc": ["--total", "4", "--scheme", "1", "--users", "2"],
    "sweep-users": ["--users", "2,3"],
    "case-study": ["--figure", "6"],
}


@pytest.mark.parametrize(
    "flag, value, angle",
    [("--elev-deg", "100", "elevation"), ("--az-lo-deg", "-200", "azimuth")],
    ids=["elev", "az_lo"],
)
@pytest.mark.parametrize("subcommand", list(_STUDY_ARGS))
def test_bad_arc_angle_rejected_before_output_dir(
    tmp_path, capsys, subcommand, flag, value, angle
):
    out_dir = tmp_path / "out"
    code, _, err = run(
        [subcommand, *_STUDY_ARGS[subcommand], flag, value, "--out", str(out_dir)],
        capsys,
    )
    assert code == 1
    assert angle in err
    assert not out_dir.exists()


@pytest.mark.parametrize("suite, seed", [("selftest", "-1"), ("oracle-check", "-5")])
def test_check_suites_take_only_seed(tmp_path, capsys, suite, seed):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"delta": 0.5, "restarts": 0}))
    code, _, err = run([suite, "--config", str(config)], capsys)
    assert code == 1
    assert "delta" in err
    for flag in ("--restarts", "--jobs", "--out"):
        code, _, err = run([suite, flag, "1"], capsys)
        assert code == 1
        assert flag in err
    code, _, err = run([suite, "--seed", seed], capsys)
    assert code == 1
    assert "seed" in err


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["case-study", "--out", "out"], {"figure": 5}),
        (["sweep-alloc", "--total", "16", "--users", "2", "--out", "out"], {"scheme": 3}),
        pytest.param(["case-study", "--figure", "6"], {"out": None}, id="out-null"),
        pytest.param(
            ["case-study", "--figure", "6"], {"out": "config.json"}, id="out-is-a-file"
        ),
        # the empty flag overrides the file's valid value
        pytest.param(
            ["case-study", "--figure", "6", "--out", ""], {"out": "out"}, id="out-empty"
        ),
        # a null is a bad value, not an absent key with a default
        pytest.param(
            ["case-study", "--figure", "6", "--out", "out"], {"users": None},
            id="case-study-users-null",
        ),
        pytest.param(
            ["sweep-users", "--out", "out"], {"users": None}, id="sweep-users-users-null"
        ),
    ],
)
def test_bad_config_value_exits_one(tmp_path, capsys, monkeypatch, argv, bad):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(bad))
    code, _, err = run([*argv, "--config", str(config)], capsys)
    assert code == 1
    assert next(iter(bad)) in err
    assert [path.name for path in tmp_path.iterdir()] == ["config.json"]


def test_value_error_after_validation_is_runtime_failure(tmp_path, capsys, monkeypatch):
    def broken_solve(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr("misopt.cli.solve", broken_solve)
    code, _, err = run(
        [
            "solve",
            "--m-rows", "2", "--m-cols", "1",
            "--n-rows", "1", "--n-cols", "1",
            "--users", "2",
            "--out", str(tmp_path / "out"),
        ],
        capsys,
    )
    assert code == 2
    assert "runtime failure: internal fault" in err
