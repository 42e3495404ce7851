"""Command-line front end: config ingestion, subcommand dispatch, result emission.

Configuration is a flat JSON document; command-line flags override file
values, unknown keys are rejected by name.  One table, :data:`_SUBCOMMANDS`,
lists each subcommand's config keys with their flags (the solver keys are
config-file only); the check suites take only ``seed``.  The CLI is the only
code that turns configuration into inputs: every command first builds the
scenario specs and solver configuration it hands on and creates the output
directory, and only then solves and writes: its CSV results plus a JSON
manifest (config echo, seed, tool version, digest of the CSV bytes) into the
output directory, printing SNR figures in both linear and dB form.  Exit
codes: 0 success, 1 when the configuration, an input built from it or the
output directory is invalid, 2 for any failure after that.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .experiments import (
    USERS_LAYOUTS,
    ArcScenarioSpec,
    CoverageArc,
    allocation_steps,
    build_arc_scenario,
    case_study,
    format_db,
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
_SOLVER_KEYS = ("max_inner_iters", "max_outer_iters")

# The layout of each case-study figure: a 2x1 fixed layer over a single
# movable element (two patterns) and a 2x2 one (four patterns).
_CASE_STUDY_LAYOUTS = {6: MisGeometry(2, 1, 1, 1), 7: MisGeometry(2, 2, 1, 1)}


def _usable_cores() -> int:
    """The cores this process may run on (its affinity set where there is one)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else max(1, os.cpu_count() or 1)


_DEFAULTS = {
    "seed": 0,
    "restarts": 1,
    "jobs": _usable_cores(),
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
    # Read by every command that takes them; checked once here.
    _int_key(merged, "seed", least=0)
    if "jobs" in allowed:
        _int_key(merged, "jobs", least=1)
    if "out" in allowed and not (isinstance(merged["out"], str) and merged["out"]):
        raise ConfigError(
            f"config key 'out' must be a non-empty path, got {merged['out']!r}"
        )
    return merged


def _solver_config(cfg: dict) -> SolverConfig:
    kwargs = {
        "rng_seed": cfg["seed"],
        "num_restarts": _int_key(cfg, "restarts"),
    }
    for key in _SOLVER_KEYS:
        if key in cfg:
            kwargs[key] = cfg[key]
    try:
        return SolverConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver configuration: {exc}")


def _arc(cfg: dict) -> CoverageArc:
    return CoverageArc(
        azimuth_lo=math.radians(_float_key(cfg, "az_lo_deg")),
        azimuth_hi=math.radians(_float_key(cfg, "az_hi_deg")),
        elevation=math.radians(_float_key(cfg, "elev_deg")),
        iota=_float_key(cfg, "iota"),
    )


def _require(cfg: dict, key: str):
    if cfg.get(key) is None:
        raise ConfigError(f"missing required config key {key!r}")
    return cfg[key]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_key(cfg: dict, key: str, least: int | None = None) -> int:
    """A required integer key, at least ``least`` if given; floats and bools
    are rejected, not truncated."""
    value = _require(cfg, key)
    if not _is_int(value):
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"config key {key!r} must be at least {least}, got {value}")
    return value


def _float_key(cfg: dict, key: str) -> float:
    """A required real-number key; bools and strings are rejected."""
    value = _require(cfg, key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
    return float(value)


def _user_list(raw) -> list[int]:
    """One or more distinct positive user counts from an integer, a list or a
    comma-separated string."""
    if isinstance(raw, (list, tuple)) and all(_is_int(v) for v in raw):
        counts = list(raw)
    elif _is_int(raw):
        counts = [raw]
    elif isinstance(raw, str):
        try:
            counts = [int(part) for part in raw.split(",") if part.strip()]
        except ValueError:
            raise ConfigError(f"config key 'users' must be integers, got {raw!r}")
    else:
        raise ConfigError(f"config key 'users' must be integers, got {raw!r}")
    if min(counts, default=0) < 1:
        raise ConfigError(f"config key 'users' must be positive counts, got {raw!r}")
    if len(set(counts)) != len(counts):
        raise ConfigError(f"config key 'users' repeats a count: {raw!r}")
    return counts


def _finish(cfg: dict, stem: str, write) -> int:
    """Write ``<stem>.csv`` with ``write(path)``, then its manifest."""
    path = os.path.join(cfg["out"], f"{stem}.csv")
    write(path)
    digest = results_digest(path)
    write_manifest(
        os.path.join(cfg["out"], f"{stem}_manifest.json"), config=cfg, digest=digest
    )
    print(f"wrote {path}")
    print(f"results digest sha256:{digest}")
    return 0


# Each _cmd_* builds every input of its subcommand from ``cfg`` (any failure
# there is a configuration error) and returns the run, which solves and writes.


def _cmd_solve(cfg: dict):
    geom = MisGeometry(
        *(_int_key(cfg, key) for key in ("m_rows", "m_cols", "n_rows", "n_cols"))
    )
    spec = ArcScenarioSpec(geom, _int_key(cfg, "users"), _arc(cfg))
    scenario = build_arc_scenario(spec)
    config = _solver_config(cfg)

    def run() -> int:
        report = solve(scenario, config)
        print(
            f"worst-case snr: {report.worst_snr:.6g} linear "
            f"({format_db(report.worst_snr)} dB)"
        )
        for k, (snr_val, pattern) in enumerate(
            zip(report.per_user_snr, report.chosen_pattern)
        ):
            print(
                f"  user {k + 1}: snr {snr_val:.6g} linear ({format_db(snr_val)} dB), "
                f"pattern {int(pattern)}"
            )
        return _finish(cfg, "solve", lambda path: write_solve_csv(report, path))

    return run


def _cmd_sweep_ms2(cfg: dict):
    m_rows, m_cols = _int_key(cfg, "m_rows"), _int_key(cfg, "m_cols")
    geom = MisGeometry(m_rows, m_cols, m_rows, m_cols)
    counts, arc = _user_list(_require(cfg, "users")), _arc(cfg)
    specs = [ArcScenarioSpec(geom, count, arc) for count in counts]
    config, jobs = _solver_config(cfg), cfg["jobs"]

    def run() -> int:
        studies = [sweep_ms2_sizes(spec, config, jobs=jobs) for spec in specs]
        for spec, study in zip(specs, studies):
            best = float(study.gains().max())
            print(
                f"users={spec.num_users}: best gain {best:.4f} over single-layer baseline"
            )
        return _finish(
            cfg, "sweep_ms2", lambda path: write_sweep_csv(studies, cfg["seed"], path)
        )

    return run


def _cmd_sweep_alloc(cfg: dict):
    total, scheme = _int_key(cfg, "total"), _int_key(cfg, "scheme")
    users, arc = _int_key(cfg, "users"), _arc(cfg)
    steps = allocation_steps(total, scheme)
    specs = [ArcScenarioSpec(geom, users, arc) for geom in steps]
    config, jobs = _solver_config(cfg), cfg["jobs"]

    def run() -> int:
        study = sweep_allocation(specs, config, jobs=jobs)
        gains = study.gains()
        at = study.entries[int(gains.argmax())][0]
        print(f"peak gain {float(gains.max()):.4f} at {at}")
        return _finish(
            cfg, "sweep_alloc", lambda path: write_sweep_csv([study], cfg["seed"], path)
        )

    return run


def _cmd_sweep_users(cfg: dict):
    counts = _user_list(cfg["users"] if "users" in cfg else "4,8,16,32")
    arc = _arc(cfg)
    chains = {
        label: [ArcScenarioSpec(geom, count, arc) for count in counts]
        for label, geom in USERS_LAYOUTS.items()
    }
    config, jobs = _solver_config(cfg), cfg["jobs"]

    def run() -> int:
        study = sweep_users_1d2d(chains, config, jobs=jobs)
        for label, spec, report in study.entries:
            print(
                f"{label} users={spec.num_users}: worst snr {report.worst_snr:.6g} "
                f"linear ({format_db(report.worst_snr)} dB)"
            )
        return _finish(
            cfg, "sweep_users", lambda path: write_users_csv(study, cfg["seed"], path)
        )

    return run


def _cmd_case_study(cfg: dict):
    figure, arc = _int_key(cfg, "figure"), _arc(cfg)
    if figure not in _CASE_STUDY_LAYOUTS:
        raise ConfigError(f"config key 'figure' must be 6 or 7, got {figure}")
    users = _int_key(cfg, "users") if "users" in cfg else 4
    spec = ArcScenarioSpec(_CASE_STUDY_LAYOUTS[figure], users, arc)
    config = _solver_config(cfg)

    def run() -> int:
        study = case_study(spec, config)
        mis, sms = (report.worst_snr for _, _, report in study.entries)
        print(
            f"two-layer worst snr {mis:.6g} linear ({format_db(mis)} dB); "
            f"single-layer {sms:.6g} linear ({format_db(sms)} dB)"
        )
        return _finish(cfg, "case_study", lambda path: write_case_study_csv(study, path))

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

    return lambda: _run_checks(run_selftest, cfg["seed"])


def _cmd_oracle_check(cfg: dict):
    from .checks import run_oracle_check

    return lambda: _run_checks(run_oracle_check, cfg["seed"])


_INT = {"type": int}
_FLOAT = {"type": float}
# The keys of every solving subcommand, each with its argparse flag arguments;
# the solver keys (None) are config-file keys with no flag.
_RUN_KEYS = {
    "seed": _INT,
    "restarts": _INT,
    "jobs": _INT,
    "out": {"help": "output directory (created if missing)"},
    **dict.fromkeys(_SOLVER_KEYS),
    **dict.fromkeys(("az_lo_deg", "az_hi_deg", "elev_deg", "iota"), _FLOAT),
}
# Subcommand: (help, builder, its config keys beyond ``subcommand``).
_SUBCOMMANDS = {
    "solve": (
        "solve one coverage scenario",
        _cmd_solve,
        {**_RUN_KEYS, **dict.fromkeys(("m_rows", "m_cols", "n_rows", "n_cols"), _INT),
         "users": _INT},
    ),
    "sweep-ms2": (
        "sweep the movable-layer size",
        _cmd_sweep_ms2,
        {**_RUN_KEYS, "m_rows": _INT, "m_cols": _INT,
         "users": {"help": "comma-separated user counts, e.g. 8,16"}},
    ),
    "sweep-alloc": (
        "sweep the element allocation at fixed total",
        _cmd_sweep_alloc,
        {**_RUN_KEYS, "total": _INT, "scheme": {"type": int, "choices": (1, 2)},
         "users": _INT},
    ),
    "sweep-users": (
        "worst-case SNR versus user count, 1D and 2D layouts",
        _cmd_sweep_users,
        {**_RUN_KEYS, "users": {"help": "comma-separated user counts, e.g. 4,8,16,32"}},
    ),
    "case-study": (
        "tiny layouts versus their single-layer baseline",
        _cmd_case_study,
        {**_RUN_KEYS, "figure": {"type": int, "choices": (6, 7)}, "users": _INT},
    ),
    "oracle-check": (
        "finite-difference and brute-force ground-truth suite",
        _cmd_oracle_check,
        {"seed": _INT},
    ),
    "selftest": ("fast invariant suite", _cmd_selftest, {"seed": _INT}),
}
_ALLOWED_KEYS = {
    name: {"subcommand", *keys} for name, (_, _, keys) in _SUBCOMMANDS.items()
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="misopt",
        description="Beam-pattern design and shift scheduling for stacked movable metasurfaces",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, _, keys) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat JSON config file; flags override it")
        for key, kwargs in keys.items():
            if kwargs is not None:
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
        if "out" in cfg:
            try:
                os.makedirs(cfg["out"], exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"config key 'out' is not a usable directory: {exc}")
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
