"""Command-line front end: config ingestion, subcommand dispatch, result emission.

Configuration is a flat JSON document; command-line flags override file
values, unknown keys are rejected by name.  Every run writes its CSV results
plus a JSON manifest (config echo, seed, tool version, digest of the CSV
bytes) into the output directory and prints SNR figures in both linear and
dB form.  Exit codes: 0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .experiments import (
    ArcScenarioSpec,
    build_arc_scenario,
    case_study,
    results_digest,
    sweep_allocation,
    sweep_ms2_sizes,
    sweep_users_1d2d,
    write_case_study_csv,
    write_manifest,
    write_solve_csv,
    write_sweep_csv,
    write_users_csv,
)
from .geometry import MisGeometry
from .solver import SolverConfig, solve

__all__ = ["main", "entrypoint"]


class ConfigError(ValueError):
    """Invalid run configuration (bad key, bad value, or bad combination)."""


# Config keys passed to SolverConfig under their own names (config file only).
_SOLVER_KEYS = (
    "mu_init",
    "delta",
    "mu_min",
    "inner_grad_tol",
    "max_inner_iters",
    "max_outer_iters",
    "armijo_c1",
    "backtrack_factor",
    "initial_step",
    "restart_period",
)
_COMMON_KEYS = {"subcommand", "seed", "restarts", "jobs", "out", *_SOLVER_KEYS}
_ARC_KEYS = {"az_lo_deg", "az_hi_deg", "elev_deg", "iota"}
_ALLOWED_KEYS = {
    "solve": _COMMON_KEYS | _ARC_KEYS | {"m_rows", "m_cols", "n_rows", "n_cols", "users"},
    "sweep-ms2": _COMMON_KEYS | _ARC_KEYS | {"m_rows", "m_cols", "users"},
    "sweep-alloc": _COMMON_KEYS | _ARC_KEYS | {"total", "scheme", "users"},
    "sweep-users": _COMMON_KEYS | _ARC_KEYS | {"users"},
    "case-study": _COMMON_KEYS | _ARC_KEYS | {"figure", "users"},
    "oracle-check": _COMMON_KEYS,
    "selftest": _COMMON_KEYS,
}

_DEFAULTS = {
    "seed": 0,
    "restarts": 1,
    "jobs": max(1, os.cpu_count() or 1),
    "out": "misopt_out",
    "az_lo_deg": -60.0,
    "az_hi_deg": 60.0,
    "elev_deg": 45.0,
    "iota": 0.01,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="misopt",
        description="Beam-pattern design and shift scheduling for stacked movable metasurfaces",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def flags(p, *keys, kind=int):
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind)

    def common(p, arc=True):
        p.add_argument("--config", help="flat JSON config file; flags override it")
        flags(p, "seed", "restarts", "jobs")
        p.add_argument("--out", help="output directory (created if missing)")
        if arc:
            flags(p, "az_lo_deg", "az_hi_deg", "elev_deg", "iota", kind=float)

    p = sub.add_parser("solve", help="solve one coverage scenario")
    common(p)
    flags(p, "m_rows", "m_cols", "n_rows", "n_cols", "users")

    p = sub.add_parser("sweep-ms2", help="sweep the movable-layer size")
    common(p)
    flags(p, "m_rows", "m_cols")
    p.add_argument("--users", help="comma-separated user counts, e.g. 8,16")

    p = sub.add_parser("sweep-alloc", help="sweep the element allocation at fixed total")
    common(p)
    flags(p, "total")
    p.add_argument("--scheme", type=int, choices=(1, 2))
    flags(p, "users")

    p = sub.add_parser("sweep-users", help="worst-case SNR versus user count, 1D and 2D layouts")
    common(p)
    p.add_argument("--users", help="comma-separated user counts, e.g. 4,8,16,32")

    p = sub.add_parser("case-study", help="tiny layouts versus their single-layer baseline")
    common(p)
    p.add_argument("--figure", type=int, choices=(6, 7))
    flags(p, "users")

    p = sub.add_parser("oracle-check", help="finite-difference and brute-force ground-truth suite")
    common(p, arc=False)

    p = sub.add_parser("selftest", help="fast invariant suite")
    common(p, arc=False)
    return parser


def _resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and CLI flags (strongest last)."""
    subcommand = args.subcommand
    allowed = _ALLOWED_KEYS[subcommand]
    merged = {k: v for k, v in _DEFAULTS.items() if k in allowed}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a flat JSON object")
        for key in loaded:
            if key not in allowed:
                raise ConfigError(f"unknown config key {key!r} for {subcommand}")
        if loaded.get("subcommand", subcommand) != subcommand:
            raise ConfigError(
                f"config key 'subcommand' is {loaded['subcommand']!r}, "
                f"but {subcommand!r} was invoked"
            )
        merged.update(loaded)
    for key in allowed:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    merged["subcommand"] = subcommand
    return merged


def _solver_config(cfg: dict) -> SolverConfig:
    kwargs = {
        "rng_seed": _int_key(cfg, "seed"),
        "num_restarts": _int_key(cfg, "restarts"),
    }
    for key in _SOLVER_KEYS:
        if cfg.get(key) is not None:
            kwargs[key] = cfg[key]
    try:
        return SolverConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver configuration: {exc}")


def _arc_kwargs(cfg: dict) -> dict:
    return {
        "azimuth_lo": math.radians(float(cfg["az_lo_deg"])),
        "azimuth_hi": math.radians(float(cfg["az_hi_deg"])),
        "elevation": math.radians(float(cfg["elev_deg"])),
        "iota": float(cfg["iota"]),
    }


def _require(cfg: dict, key: str):
    if cfg.get(key) is None:
        raise ConfigError(f"missing required config key {key!r}")
    return cfg[key]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_key(cfg: dict, key: str) -> int:
    """A required integer key; floats and bools are rejected, not truncated."""
    value = _require(cfg, key)
    if not _is_int(value):
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    return value


def _user_list(raw) -> list[int]:
    if isinstance(raw, (list, tuple)) and all(_is_int(v) for v in raw):
        return list(raw)
    if _is_int(raw):
        return [raw]
    if isinstance(raw, str):
        return [int(part) for part in raw.split(",") if part.strip()]
    raise ConfigError(f"config key 'users' must be integers, got {raw!r}")


def _out_dir(cfg: dict) -> str:
    out = str(cfg.get("out", "misopt_out"))
    os.makedirs(out, exist_ok=True)
    return out


def _db(value: float) -> str:
    if value <= 0:
        return "-inf"
    return f"{10.0 * math.log10(value):.4f}"


def _finish(cfg: dict, out: str, stem: str, write, result) -> None:
    """Write ``<stem>.csv`` with ``write(result, path)``, then its manifest."""
    path = os.path.join(out, f"{stem}.csv")
    write(result, path)
    digest = results_digest([path])
    write_manifest(
        os.path.join(out, f"{stem}_manifest.json"),
        config=cfg,
        seed=cfg["seed"],
        digest=digest,
        tool_version=__version__,
    )
    print(f"wrote {path}")
    print(f"results digest sha256:{digest}")


def _cmd_solve(cfg: dict) -> int:
    geom = MisGeometry(
        _int_key(cfg, "m_rows"),
        _int_key(cfg, "m_cols"),
        _int_key(cfg, "n_rows"),
        _int_key(cfg, "n_cols"),
    )
    spec = ArcScenarioSpec(
        geom=geom, num_users=_int_key(cfg, "users"), **_arc_kwargs(cfg)
    )
    scenario = build_arc_scenario(spec)
    config = _solver_config(cfg)
    out = _out_dir(cfg)

    report = solve(scenario, config)
    print(
        f"worst-case snr: {report.worst_snr:.6g} linear ({_db(report.worst_snr)} dB)"
    )
    for k, (snr_val, pattern) in enumerate(
        zip(report.per_user_snr, report.chosen_pattern)
    ):
        print(
            f"  user {k + 1}: snr {snr_val:.6g} linear ({_db(float(snr_val))} dB), "
            f"pattern {int(pattern)}"
        )
    _finish(cfg, out, "solve", write_solve_csv, report)
    return 0


def _cmd_sweep_ms2(cfg: dict) -> int:
    users = _user_list(_require(cfg, "users"))
    config = _solver_config(cfg)
    out = _out_dir(cfg)
    results = sweep_ms2_sizes(
        _int_key(cfg, "m_rows"),
        _int_key(cfg, "m_cols"),
        users,
        config,
        jobs=_int_key(cfg, "jobs"),
        **_arc_kwargs(cfg),
    )
    for count, res in results.items():
        best = float(res.gain.max())
        print(f"users={count}: best gain {best:.4f} over single-layer baseline")
    _finish(cfg, out, "sweep_ms2", write_sweep_csv, list(results.values()))
    return 0


def _cmd_sweep_alloc(cfg: dict) -> int:
    config = _solver_config(cfg)
    out = _out_dir(cfg)
    result = sweep_allocation(
        _int_key(cfg, "total"),
        _int_key(cfg, "scheme"),
        _int_key(cfg, "users"),
        config,
        jobs=_int_key(cfg, "jobs"),
        **_arc_kwargs(cfg),
    )
    peak = float(result.gain.max())
    at = result.cell_labels[int(result.gain.argmax())]
    print(f"peak gain {peak:.4f} at {at}")
    _finish(cfg, out, "sweep_alloc", write_sweep_csv, result)
    return 0


def _cmd_sweep_users(cfg: dict) -> int:
    config = _solver_config(cfg)
    out = _out_dir(cfg)
    counts = _user_list(cfg.get("users") or "4,8,16,32")
    sweep = sweep_users_1d2d(
        config, user_counts=counts, jobs=_int_key(cfg, "jobs"), **_arc_kwargs(cfg)
    )
    for row in sweep.rows:
        print(
            f"{row.label} users={row.num_users}: worst snr {row.worst_snr:.6g} "
            f"linear ({_db(row.worst_snr)} dB)"
        )
    _finish(cfg, out, "sweep_users", write_users_csv, sweep)
    return 0


def _cmd_case_study(cfg: dict) -> int:
    config = _solver_config(cfg)
    out = _out_dir(cfg)
    result = case_study(
        _int_key(cfg, "figure"),
        config,
        num_users=4 if cfg.get("users") is None else _int_key(cfg, "users"),
        **_arc_kwargs(cfg),
    )
    print(
        f"two-layer worst snr {result.mis.worst_snr:.6g} linear "
        f"({_db(result.mis.worst_snr)} dB); single-layer "
        f"{result.sms.worst_snr:.6g} linear ({_db(result.sms.worst_snr)} dB)"
    )
    _finish(cfg, out, "case_study", write_case_study_csv, result)
    return 0


def _run_checks(cfg: dict, runner) -> int:
    results = runner(_int_key(cfg, "seed"))
    failed = 0
    for res in results:
        mark = "ok" if res.passed else "FAIL"
        print(f"[{mark}] {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 2
    print(f"all {len(results)} checks passed")
    return 0


def _cmd_selftest(cfg: dict) -> int:
    from .checks import run_selftest

    return _run_checks(cfg, run_selftest)


def _cmd_oracle_check(cfg: dict) -> int:
    from .checks import run_oracle_check

    return _run_checks(cfg, run_oracle_check)


_RUNNERS = {
    "solve": _cmd_solve,
    "sweep-ms2": _cmd_sweep_ms2,
    "sweep-alloc": _cmd_sweep_alloc,
    "sweep-users": _cmd_sweep_users,
    "case-study": _cmd_case_study,
    "selftest": _cmd_selftest,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a usage message; fold into validation exit.
        return 0 if exc.code == 0 else 1
    try:
        cfg = _resolve_config(args)
        runner = _RUNNERS[args.subcommand]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return runner(cfg)
    except (ConfigError, ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure distinct from bad input
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
