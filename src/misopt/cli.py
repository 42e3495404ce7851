"""Command-line front end: config ingestion, subcommand dispatch, result emission.

Configuration is a flat JSON document; command-line flags override file
values, unknown keys are rejected by name.  One table, :data:`_SUBCOMMANDS`,
lists each subcommand's config keys with their flags; the check suites take
only ``seed``.  The CLI is the only code that turns configuration into
inputs: every command first builds the scenario specs and solver
configuration it hands on and creates the output directory, and only then
solves and writes: its CSV results plus a JSON manifest (config echo, seed,
tool version, digest of the CSV bytes) into the output directory, printing
SNR figures in both linear and dB form.  Those writers live here, not in the
library; every dB value is rendered by ``experiments.format_db``, and every
integer or real-number key is checked by the library's own rules
(``geometry._require_int`` and ``_require_real``).  Exit codes: 0 success,
1 when the configuration, an input built from it or the output directory is
invalid, 2 for any failure after that.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys

from . import __version__
from .experiments import (
    USERS_LAYOUTS,
    ArcScenarioSpec,
    CoverageArc,
    Study,
    allocation_steps,
    build_arc_scenario,
    case_study,
    format_db,
    sweep_allocation,
    sweep_ms2_sizes,
    sweep_users_1d2d,
)
from .geometry import MisGeometry, _require_int, _require_real
from .solver import SolveReport, SolverConfig, solve

__all__ = ["main", "entrypoint"]

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
            raise ValueError(f"config file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a flat JSON object")
        for key in loaded:
            if key not in allowed:
                raise ValueError(f"unknown config key {key!r} for {subcommand}")
        if loaded.get("subcommand", subcommand) != subcommand:
            raise ValueError(
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
        _int_key(merged, "jobs")
    if "out" in allowed and not (isinstance(merged["out"], str) and merged["out"]):
        raise ValueError(
            f"config key 'out' must be a non-empty path, got {merged['out']!r}"
        )
    return merged


def _solver_config(cfg: dict) -> SolverConfig:
    return SolverConfig(rng_seed=cfg["seed"], num_restarts=_int_key(cfg, "restarts"))


def _arc(cfg: dict) -> CoverageArc:
    return CoverageArc(
        azimuth_lo=math.radians(_float_key(cfg, "az_lo_deg")),
        azimuth_hi=math.radians(_float_key(cfg, "az_hi_deg")),
        elevation=math.radians(_float_key(cfg, "elev_deg")),
        iota=_float_key(cfg, "iota"),
    )


def _require(cfg: dict, key: str):
    if cfg.get(key) is None:
        raise ValueError(f"missing required config key {key!r}")
    return cfg[key]


def _int_key(cfg: dict, key: str, least: int = 1) -> int:
    """A required integer key of at least ``least`` (0 or 1); floats and
    bools are rejected, not truncated."""
    value = _require(cfg, key)
    _require_int(f"config key {key!r}", value, least)
    return value


def _float_key(cfg: dict, key: str) -> float:
    """A required real-number key; bools and strings are rejected."""
    value = _require(cfg, key)
    _require_real(f"config key {key!r}", value)
    return float(value)


def _user_list(raw) -> list[int]:
    """One or more distinct positive user counts from an integer, a list or a
    comma-separated string."""
    if isinstance(raw, str):
        try:
            counts = [int(part) for part in raw.split(",") if part.strip()]
        except ValueError:
            raise ValueError(f"config key 'users' must be integers, got {raw!r}")
    else:
        counts = list(raw) if isinstance(raw, (list, tuple)) else [raw]
    # An empty list is checked as the raw value, so it is rejected too.
    for count in counts or [raw]:
        _require_int("config key 'users'", count, 1)
    if len(set(counts)) != len(counts):
        raise ValueError(f"config key 'users' repeats a count: {raw!r}")
    return counts


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_csv(path, header: list, rows) -> None:
    """``header`` and then ``rows`` as a utf-8 CSV with ``\\n`` line ends."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_sweep_csv(studies, seed: int, path) -> None:
    """One row per entry of each baselined :class:`Study` in ``studies``:
    geometry (the entry label), users, seed, baseline_snr, mis_snr, gain."""
    _write_csv(
        path,
        ["geometry", "users", "seed", "baseline_snr", "mis_snr", "gain"],
        (
            [label, spec.num_users, seed,
             _fmt(study.entries[study.baseline][2].worst_snr),
             _fmt(report.worst_snr), _fmt(gain)]
            for study in studies
            for (label, spec, report), gain in zip(study.entries, study.gains())
        ),
    )


def write_users_csv(study: Study, seed: int, path) -> None:
    """One row per entry of ``study``: config (its label), users,
    num_patterns, worst_snr, worst_snr_db, seed."""
    _write_csv(
        path,
        ["config", "users", "num_patterns", "worst_snr", "worst_snr_db", "seed"],
        (
            [label, spec.num_users, spec.geom.num_patterns,
             _fmt(report.worst_snr), format_db(report.worst_snr), seed]
            for label, spec, report in study.entries
        ),
    )


def write_case_study_csv(study: Study, path) -> None:
    """Per-(scheme, user, pattern) SNR rows of every entry of ``study``, the
    scheme being its label: scheme, user, pattern, snr, snr_db, chosen (1 for
    the user's scheduled pattern, else 0)."""
    _write_csv(
        path,
        ["scheme", "user", "pattern", "snr", "snr_db", "chosen"],
        (
            [scheme, k + 1, u + 1, _fmt(snr), format_db(snr),
             int(report.chosen_pattern[k] == u + 1)]
            for scheme, _, report in study.entries
            for k, row in enumerate(report.snr_table.tolist())
            for u, snr in enumerate(row)
        ),
    )


def write_solve_csv(report: SolveReport, path) -> None:
    """One row per user of ``report``: user, pattern (its scheduled
    placement), snr, snr_db."""
    per_user = enumerate(zip(report.per_user_snr, report.chosen_pattern), start=1)
    _write_csv(
        path,
        ["user", "pattern", "snr", "snr_db"],
        ([k, int(pattern), _fmt(snr), format_db(snr)] for k, (snr, pattern) in per_user),
    )


def results_digest(path) -> str:
    """Hex sha256 of the bytes of the file at ``path``."""
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def write_manifest(path, config: dict, digest: str) -> None:
    """JSON manifest of a run: its config, the config's seed, the misopt
    version and the digest of its results."""
    payload = {
        "config": config,
        "seed": config["seed"],
        "tool_version": __version__,
        "results_digest": digest,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


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
        raise ValueError(f"config key 'figure' must be 6 or 7, got {figure}")
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
# The keys of every solving subcommand, each with its argparse flag arguments.
_RUN_KEYS = {
    "seed": _INT,
    "restarts": _INT,
    "jobs": _INT,
    "out": {"help": "output directory (created if missing)"},
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
                raise ValueError(f"config key 'out' is not a usable directory: {exc}")
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
