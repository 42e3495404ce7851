"""End-to-end and per-layer benchmark of the misopt CLI.

    python3 perfbench/run.py --workload ms2-grid --seed 7 --seconds 60 --trace 0

Run from the root of a source checkout; misopt is imported from ``src/``.
Each CLI call is a fresh ``python3 -m misopt.cli`` process, run as a user
would: ``--jobs`` is the number of usable cores and BLAS threads are left at
their defaults.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Outputs go to ``.perfbench_out/`` in the checkout.  See README.md beside this
file for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 2
# Time set aside in a traced run for its two --jobs 1 calls, in untraced walls.
SERIAL_SHARE = 4.0
CALL_TIMEOUT_S = 60.0
RSS_POLL_S = 0.25


def descendants(root_pid: int) -> list[int]:
    """``root_pid`` and every live process below it, parents first."""
    children: dict[int, list] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", encoding="ascii") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry.name))
    tree, todo = [], [root_pid]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, ()))
    return tree


class TreeRss(threading.Thread):
    """Polls the peak resident set (VmHWM) of a process and its descendants.

    The figure is the sum of each process's own peak, so it bounds the
    tree's simultaneous peak from above.  Processes that live less than one
    poll interval can be missed.
    """

    def __init__(self, root_pid: int):
        super().__init__(daemon=True)
        self.root_pid = root_pid
        self.peak_kb: dict[int, int] = {}
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(RSS_POLL_S):
            self.sample()

    def stop(self) -> float:
        self._stop_event.set()
        self.join()
        return sum(self.peak_kb.values()) / 1024.0

    def sample(self) -> None:
        for pid in descendants(self.root_pid):
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            kb = int(line.split()[1])
                            self.peak_kb[pid] = max(self.peak_kb.get(pid, 0), kb)
                            break
            except (OSError, ValueError):
                continue


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def call(cmd: list, out_dir: Path) -> dict:
    """Run one child to completion; return its wall, CPU and peak tree RSS."""
    out_dir.mkdir(parents=True, exist_ok=True)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(out_dir / "stdout.txt", "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        rss = TreeRss(proc.pid)
        rss.start()
        try:
            code = proc.wait(timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = -1
        finally:
            if proc.poll() is None:  # timed out, or this process is stopping
                for pid in descendants(proc.pid):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                proc.wait()
        wall = time.perf_counter() - t0
        peak_mb = rss.stop()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {"code": code, "wall_s": wall, "cpu_s": cpu, "rss_mb": peak_mb}


class Run:
    """One benchmark run: CLI calls, their output checks and the cell tally."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.dir = OUT / f"{workload.name}-{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.jobs = len(os.sched_getaffinity(0))
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}
        self.cell_snr: dict[int, list] = {}
        self._calls = 0

    def cli(self, seed: int, jobs: int, traced: bool = False) -> dict:
        """Call the CLI once on one solver seed and check what it wrote.

        Every call on a seed must write the same CSV bytes, whatever
        ``jobs`` is and whether it is traced.
        """
        self._calls += 1
        out = self.dir / f"call-{self._calls}"
        args = self.workload.cli_args(seed, jobs, str(out / "result"))
        if traced:
            cmd = [sys.executable, str(HERE / "child.py"), "trace", str(out), *args]
        else:
            cmd = [sys.executable, "-m", "misopt.cli", *args]
        res = call(cmd, out)
        cells, problem = self._check(res["code"], out / "result", seed)
        if problem:
            print(f"check failed: {out.name} seed={seed}: {problem}")
        self.attempted += self.workload.cells
        self.failed += self.workload.cells - sum(ok for _, ok in cells)
        self.cell_snr.setdefault(seed, [snr for snr, _ in cells])
        res["dir"] = out
        return res

    def _check(self, code: int, result: Path, seed: int) -> tuple[list, str]:
        """``(worst_snr, ok)`` per cell, and what failed if a whole call did."""
        if code != 0:
            return [], f"exit code {code}"
        csv_path = result / self.workload.csv_name
        manifest_path = result / (csv_path.stem + "_manifest.json")
        try:
            digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError) as exc:
            return [], f"unreadable output: {exc}"
        if manifest.get("results_digest") != digest:
            return [], "manifest digest differs from the CSV's sha256"
        if self.digests.setdefault(seed, digest) != digest:
            return [], "CSV differs from the first call on this seed"
        cells = self.workload.check(csv_path)
        if len(cells) != self.workload.cells:
            return [], f"{len(cells)} cells, expected {self.workload.cells}"
        failed = sum(not ok for _, ok in cells)
        return cells, f"{failed} cells failed their checks" if failed else ""

    def worst_snr(self) -> float:
        """Geometric mean over every cell of every seed solved of the
        worst-case SNR."""
        snrs = [v for cells in self.cell_snr.values() for v in cells]
        if not snrs or min(snrs) <= 0:
            return 0.0
        return statistics.geometric_mean(snrs)

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def setup_probes(workload, repeats: int) -> tuple[list, dict]:
    cmd = [sys.executable, str(HERE / "child.py"), "setup",
           json.dumps(workload.scenarios)]
    times, info = [], {}
    for _ in range(repeats):
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CALL_TIMEOUT_S, check=True)
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(info["setup_s"])
    return times, info


def environment(probe: dict, jobs: int) -> dict:
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip()
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": probe.get("numpy"),
        "blas": probe.get("blas"),
        "blas_config": probe.get("blas_config"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "nproc": jobs,
        "start_method": probe.get("start_method"),
        "platform": platform.platform(),
        "commit": commit or "unknown (not a git checkout)",
    }


def end_to_end(run: Run, seconds: float) -> dict:
    """Solve the workload's seed stream, one CLI call per seed, while
    ``seconds`` allow; at least one call.

    A call starts only if a typical step (set-up probe plus call) still fits.
    A set-up probe runs before every call, so a short burst of load on the
    machine reaches few of them; ``SETUP_PROBES`` more run first.
    """
    setup_times, probe = setup_probes(run.workload, SETUP_PROBES)
    calls, steps, t0 = [], [], time.perf_counter()
    for seed in run.workload.seeds(run.seed):
        if steps and time.perf_counter() - t0 + statistics.median(steps) > seconds:
            break
        s0 = time.perf_counter()
        setup_times += setup_probes(run.workload, 1)[0]
        calls.append(dict(run.cli(seed, run.jobs), seed=seed))
        steps.append(time.perf_counter() - s0)
    report(run, environment(probe, run.jobs), calls, setup_times)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(c["wall_s"] for c in calls), "s"),
        "peak_rss_mb": (statistics.median(c["rss_mb"] for c in calls), "MB"),
        "worst_snr": (run.worst_snr(), "linear"),
        "ok_ratio": ((run.attempted - run.failed) / max(run.attempted, 1), "ratio"),
    }


def per_layer(run: Run, seconds: float) -> dict:
    """Untraced ``--jobs nproc`` calls on the workload seed, then one untraced
    and one traced ``--jobs 1`` call, all within about ``seconds``.

    The two ``--jobs 1`` calls are budgeted at ``SERIAL_SHARE`` times the
    median untraced wall; at least one untraced call runs.
    """
    _, probe = setup_probes(run.workload, 1)
    env = environment(probe, run.jobs)
    seed = run.seed
    calls = []
    t0 = time.perf_counter()
    while not calls or (time.perf_counter() - t0 + (1 + SERIAL_SHARE)
                        * statistics.median(c["wall_s"] for c in calls) <= seconds):
        calls.append(dict(run.cli(seed, run.jobs), seed=seed))
    serial = dict(run.cli(seed, 1), seed=seed)
    traced = dict(run.cli(seed, 1, traced=True), seed=seed)
    with open(traced["dir"] / "trace.json", encoding="utf-8") as handle:
        trace = json.load(handle)
    wall = statistics.median(c["wall_s"] for c in calls)
    cpu = statistics.median(c["cpu_s"] for c in calls)
    metrics = layer_metrics(trace["spans"], trace["counts"])
    metrics.update({
        "experiments.speedup": (serial["wall_s"] / wall, "ratio"),
        "cli.cpu_s": (cpu, "s"),
        "cli.cpu_per_wall": (cpu / wall, "ratio"),
        "trace.overhead_s": (traced["wall_s"] - trace["dump_s"] - serial["wall_s"], "s"),
    })
    report(run, env, calls + [serial, traced], [])
    print_shares(trace)
    return metrics


def layer_metrics(spans: dict, counts: dict) -> dict:
    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def us_per_call(name: str) -> float:
        return 1e6 * span(name, "self_s") / max(span(name, "calls"), 1)

    ls = "solver.line_search"
    evals = counts.get(f"{ls}.evals", 0)
    experiments_outer = sum(
        v["outer_s"] for k, v in spans.items() if k.startswith("experiments."))
    m = {
        "geometry.all_selections.calls": (span("geometry.all_selections", "calls"), "count"),
        "geometry.all_selections.busy_s": (span("geometry.all_selections", "busy_s"), "s"),
        "channel.cascaded_channel.calls": (span("channel.cascaded_channel", "calls"), "count"),
        "channel.cascaded_channel.busy_s": (span("channel.cascaded_channel", "busy_s"), "s"),
        "objective.from_scenario.busy_s": (span("objective.from_scenario", "busy_s"), "s"),
    }
    for name in ("objective.evaluate_value", "objective.evaluate_grad",
                 "manifolds.retract_multinomial"):
        m[f"{name}.calls"] = (span(name, "calls"), "count")
        m[f"{name}.self_s"] = (span(name, "self_s"), "s")
        m[f"{name}.us_per_call"] = (us_per_call(name), "us")
    m["manifolds.retract_circle.calls"] = (span("manifolds.retract_circle", "calls"), "count")
    for name in ("retract_circle", "project_to_tangent", "transport", "grad_norm"):
        m[f"manifolds.{name}.self_s"] = (span(f"manifolds.{name}", "self_s"), "s")
    m["manifolds.retraction_errors"] = (
        counts.get("manifolds.retract_circle.errors", 0)
        + counts.get("manifolds.retract_multinomial.errors", 0), "count")
    accepted = counts.get(f"{ls}.accepted", 0)
    m.update({
        f"{ls}.calls": (span(ls, "calls"), "count"),
        f"{ls}.accepted": (accepted, "count"),
        f"{ls}.stalled": (counts.get(f"{ls}.stalled", 0), "count"),
        f"{ls}.evals": (evals, "count"),
        f"{ls}.stalled_evals": (counts.get(f"{ls}.stalled_evals", 0), "count"),
        f"{ls}.evals_per_accept": (evals / max(accepted, 1), "evals/accept"),
        f"{ls}.stalled_eval_share": (counts.get(f"{ls}.stalled_evals", 0) / max(evals, 1), "ratio"),
        f"{ls}.self_s": (span(ls, "self_s"), "s"),
        "solver.inner_solve.calls": (span("solver.inner_solve", "calls"), "count"),
        "solver.inner_solve.iters": (counts.get("solver.inner_solve.iters", 0), "count"),
        "solver.inner_solve.stalled_out": (counts.get("solver.inner_solve.stalled_out", 0), "count"),
        "solver.inner_solve.self_s": (span("solver.inner_solve", "self_s"), "s"),
        "solver.solve.calls": (span("solver.solve", "calls"), "count"),
        "solver.solve.busy_s": (span("solver.solve", "busy_s"), "s"),
        "solver.solve.max_s": (span("solver.solve", "max_s"), "s"),
        "experiments.serial_s": (experiments_outer - span("experiments.task", "busy_s"), "s"),
        "cli.write_s": (span("cli.write", "busy_s"), "s"),
    })
    return m


def report(run: Run, env: dict, calls: list, setup_times: list) -> None:
    """Human-readable lines before the result; also written to the run dir."""
    record = {
        "workload": run.workload.name,
        "seed": run.seed,
        "solver_seeds": list(run.cell_snr),
        "environment": env,
        "setup_s": setup_times,
        "calls": [{k: v for k, v in c.items() if k != "dir"} for c in calls],
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_ratio": run.failed / max(run.attempted, 1),
        "worst_snr_db": 10 * math.log10(run.worst_snr()) if run.worst_snr() > 0 else None,
    }
    (run.dir / "run.json").write_text(json.dumps(record, indent=1, default=str))
    print("environment " + json.dumps(env, sort_keys=True))
    for c in calls:
        print(f"call seed={c['seed']} code={c['code']} wall_s={c['wall_s']:.3f} "
              f"cpu_s={c['cpu_s']:.3f} peak_rss_mb={c['rss_mb']:.1f}")
    print(f"cells attempted={run.attempted} failed={run.failed} "
          f"failed_ratio={record['failed_ratio']:.4f}")
    if record["worst_snr_db"] is not None:
        print(f"worst_snr_db={record['worst_snr_db']:.4f} dB (mean over cells)")


def print_shares(trace: dict) -> None:
    """Each span's self time as a share of the traced CLI call."""
    total = trace["spans"]["cli.main"]["busy_s"]
    print(f"traced cli.main {total:.3f} s, {trace['span_count']} spans")
    rows = sorted(trace["spans"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, v in rows:
        print(f"  {name:34s} calls {v['calls']:8d}  self {v['self_s']:8.3f} s "
              f"{100 * v['self_s'] / total:5.1f}%  busy {v['busy_s']:8.3f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "misopt" / "cli.py").is_file():
        print(f"error: no misopt source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # Turn a stop request into SystemExit, so call() kills the CLI it waits on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    run = Run(WORKLOADS[args.workload], args.seed)
    metrics = (per_layer if args.trace else end_to_end)(run, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(run.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
