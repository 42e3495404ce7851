"""Command-line front end: config ingestion, subcommand dispatch, result emission.

Configuration is a flat JSON document; command-line flags override file
values, unknown keys are rejected by name.  One table, :data:`_SUBCOMMANDS`,
lists each subcommand's flags; its config keys are those plus the solver
keys.  Every command first builds all of its inputs (the coverage arc,
geometries and specs, user counts, the allocation ladder, the solver
configuration) and only then solves and writes: its CSV results plus a JSON
manifest (config echo, seed, tool version, digest of the CSV bytes) into the
output directory, printing SNR figures in both linear and dB form.  Exit
codes: 0 success, 1 when the configuration or an input built from it is
invalid, 2 for any failure after that.
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
    CoverageArc,
    allocation_steps,
    build_arc_scenario,
    case_study,
    case_study_geometry,
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
)

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
    if _int_key(merged, "jobs") < 1:
        raise ConfigError(f"config key 'jobs' must be at least 1, got {merged['jobs']}")
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


def _arc(cfg: dict) -> CoverageArc:
    return CoverageArc(
        azimuth_lo=math.radians(float(cfg["az_lo_deg"])),
        azimuth_hi=math.radians(float(cfg["az_hi_deg"])),
        elevation=math.radians(float(cfg["elev_deg"])),
        iota=float(cfg["iota"]),
    )


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
    """One or more distinct positive user counts from an integer, a list or a
    comma-separated string."""
    if isinstance(raw, (list, tuple)) and all(_is_int(v) for v in raw):
        counts = list(raw)
    elif _is_int(raw):
        counts = [raw]
    elif isinstance(raw, str):
        counts = [int(part) for part in raw.split(",") if part.strip()]
    else:
        raise ConfigError(f"config key 'users' must be integers, got {raw!r}")
    if min(counts, default=0) < 1:
        raise ConfigError(f"config key 'users' must be positive counts, got {raw!r}")
    if len(set(counts)) != len(counts):
        raise ConfigError(f"config key 'users' repeats a count: {raw!r}")
    return counts


def _db(value: float) -> str:
    if value <= 0:
        return "-inf"
    return f"{10.0 * math.log10(value):.4f}"


def _out_dir(cfg: dict) -> str:
    out = str(cfg["out"])
    os.makedirs(out, exist_ok=True)
    return out


def _finish(cfg: dict, out: str, stem: str, write, result) -> int:
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
    return 0


# Each _cmd_* builds every input of its subcommand from ``cfg`` (any failure
# there is a configuration error) and returns the run, which creates the output
# directory, solves and writes.


def _cmd_solve(cfg: dict):
    geom = MisGeometry(
        *(_int_key(cfg, key) for key in ("m_rows", "m_cols", "n_rows", "n_cols"))
    )
    spec = ArcScenarioSpec(geom, _int_key(cfg, "users"), _arc(cfg))
    scenario = build_arc_scenario(spec)
    config = _solver_config(cfg)

    def run() -> int:
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
        return _finish(cfg, out, "solve", write_solve_csv, report)

    return run


def _cmd_sweep_ms2(cfg: dict):
    m_rows, m_cols = _int_key(cfg, "m_rows"), _int_key(cfg, "m_cols")
    MisGeometry(m_rows, m_cols, m_rows, m_cols)
    users = _user_list(_require(cfg, "users"))
    arc, config, jobs = _arc(cfg), _solver_config(cfg), _int_key(cfg, "jobs")

    def run() -> int:
        out = _out_dir(cfg)
        results = sweep_ms2_sizes(m_rows, m_cols, users, config, jobs=jobs, arc=arc)
        for count, res in results.items():
            best = float(res.gain.max())
            print(f"users={count}: best gain {best:.4f} over single-layer baseline")
        return _finish(cfg, out, "sweep_ms2", write_sweep_csv, list(results.values()))

    return run


def _cmd_sweep_alloc(cfg: dict):
    total, scheme = _int_key(cfg, "total"), _int_key(cfg, "scheme")
    users, arc = _int_key(cfg, "users"), _arc(cfg)
    ArcScenarioSpec(allocation_steps(total, scheme)[0], users, arc)
    config, jobs = _solver_config(cfg), _int_key(cfg, "jobs")

    def run() -> int:
        out = _out_dir(cfg)
        result = sweep_allocation(total, scheme, users, config, jobs=jobs, arc=arc)
        peak = float(result.gain.max())
        at = result.cell_labels[int(result.gain.argmax())]
        print(f"peak gain {peak:.4f} at {at}")
        return _finish(cfg, out, "sweep_alloc", write_sweep_csv, result)

    return run


def _cmd_sweep_users(cfg: dict):
    counts = _user_list("4,8,16,32" if cfg.get("users") is None else cfg["users"])
    arc, config, jobs = _arc(cfg), _solver_config(cfg), _int_key(cfg, "jobs")

    def run() -> int:
        out = _out_dir(cfg)
        sweep = sweep_users_1d2d(config, user_counts=counts, jobs=jobs, arc=arc)
        for row in sweep.rows:
            print(
                f"{row.label} users={row.num_users}: worst snr {row.worst_snr:.6g} "
                f"linear ({_db(row.worst_snr)} dB)"
            )
        return _finish(cfg, out, "sweep_users", write_users_csv, sweep)

    return run


def _cmd_case_study(cfg: dict):
    figure, arc = _int_key(cfg, "figure"), _arc(cfg)
    users = 4 if cfg.get("users") is None else _int_key(cfg, "users")
    ArcScenarioSpec(case_study_geometry(figure), users, arc)
    config = _solver_config(cfg)

    def run() -> int:
        out = _out_dir(cfg)
        result = case_study(figure, config, num_users=users, arc=arc)
        print(
            f"two-layer worst snr {result.mis.worst_snr:.6g} linear "
            f"({_db(result.mis.worst_snr)} dB); single-layer "
            f"{result.sms.worst_snr:.6g} linear ({_db(result.sms.worst_snr)} dB)"
        )
        return _finish(cfg, out, "case_study", write_case_study_csv, result)

    return run


def _run_checks(runner, seed: int) -> int:
    results = runner(seed)
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


def _cmd_selftest(cfg: dict):
    from .checks import run_selftest

    seed = _int_key(cfg, "seed")
    return lambda: _run_checks(run_selftest, seed)


def _cmd_oracle_check(cfg: dict):
    from .checks import run_oracle_check

    seed = _int_key(cfg, "seed")
    return lambda: _run_checks(run_oracle_check, seed)


_INT = {"type": int}
_FLOAT = {"type": float}
_ARC_FLAGS = dict.fromkeys(("az_lo_deg", "az_hi_deg", "elev_deg", "iota"), _FLOAT)
_COMMON_FLAGS = {
    "seed": _INT,
    "restarts": _INT,
    "jobs": _INT,
    "out": {"help": "output directory (created if missing)"},
}
# Subcommand: (help, builder, argparse flags beyond --config and the common ones).
_SUBCOMMANDS = {
    "solve": (
        "solve one coverage scenario",
        _cmd_solve,
        {**_ARC_FLAGS, **dict.fromkeys(("m_rows", "m_cols", "n_rows", "n_cols"), _INT),
         "users": _INT},
    ),
    "sweep-ms2": (
        "sweep the movable-layer size",
        _cmd_sweep_ms2,
        {**_ARC_FLAGS, "m_rows": _INT, "m_cols": _INT,
         "users": {"help": "comma-separated user counts, e.g. 8,16"}},
    ),
    "sweep-alloc": (
        "sweep the element allocation at fixed total",
        _cmd_sweep_alloc,
        {**_ARC_FLAGS, "total": _INT, "scheme": {"type": int, "choices": (1, 2)},
         "users": _INT},
    ),
    "sweep-users": (
        "worst-case SNR versus user count, 1D and 2D layouts",
        _cmd_sweep_users,
        {**_ARC_FLAGS, "users": {"help": "comma-separated user counts, e.g. 4,8,16,32"}},
    ),
    "case-study": (
        "tiny layouts versus their single-layer baseline",
        _cmd_case_study,
        {**_ARC_FLAGS, "figure": {"type": int, "choices": (6, 7)}, "users": _INT},
    ),
    "oracle-check": (
        "finite-difference and brute-force ground-truth suite",
        _cmd_oracle_check,
        {},
    ),
    "selftest": ("fast invariant suite", _cmd_selftest, {}),
}
_ALLOWED_KEYS = {
    name: {"subcommand", *_SOLVER_KEYS, *_COMMON_FLAGS, *flags}
    for name, (_, _, flags) in _SUBCOMMANDS.items()
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="misopt",
        description="Beam-pattern design and shift scheduling for stacked movable metasurfaces",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, _, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat JSON config file; flags override it")
        for key, kwargs in {**_COMMON_FLAGS, **flags}.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a usage message; fold into validation exit.
        return 0 if exc.code == 0 else 1
    try:
        cfg = _resolve_config(args)
        run = _SUBCOMMANDS[args.subcommand][1](cfg)
    except Exception as exc:  # building the inputs failed: bad configuration
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return run()
    except Exception as exc:  # runtime failure distinct from bad input
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
