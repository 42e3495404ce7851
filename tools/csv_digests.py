"""Print the sha256 digests of what each reference CLI command emits.

Usage::

    python tools/csv_digests.py [--src SRC_DIR [--src SRC_DIR]] [--repeat N]

Runs each command of :data:`COMMANDS` as ``python -m misopt.cli`` with
``--jobs 2 --out out``, importing ``misopt`` from each ``--src`` tree in turn
(default: the ``src`` directory of this checkout).  Every run starts in a
fresh temporary working directory, so the relative ``out`` that the manifest
echoes and the ``wrote`` line prints are the same for every tree.  For each
command it prints three markdown table rows, one per output: the CSV, its
JSON manifest and the command's stdout, with the first 16 hex digits of
their sha256, one column per tree.  Given two trees (the parent checkout's
and a change's, or one tree twice to check that reruns agree), it exits 1
when any digest differs.  Exits 1 if a command fails.

``--repeat N`` (default 1) runs each command N times per tree, alternating
which tree goes first, and exits 1 when any repeat's digests differ.  With
N > 1 it then prints, per command and tree, the median and quartiles of the
wall time and of the CPU time (user + sys of the command and the pool
workers it waited for), so a paired A/B of two trees comes with its spread.

The digests are compared on one host only: the SNR tables come from BLAS
``zgemm``, whose bits can differ between CPUs.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

COMMANDS = (
    "solve --m-rows 4 --m-cols 4 --n-rows 2 --n-cols 2 --users 6 --seed 7 --restarts 2",
    "sweep-ms2 --m-rows 3 --m-cols 3 --users 4,8 --seed 7 --restarts 1",
    "sweep-alloc --total 16 --scheme 1 --users 4 --seed 7 --restarts 2",
    "sweep-alloc --total 16 --scheme 2 --users 4 --seed 7 --restarts 2",
    "sweep-users --users 4,8 --seed 7 --restarts 1",
    "case-study --figure 6 --seed 7",
    "case-study --figure 7 --seed 7",
)
OUTPUTS = ("csv", "manifest", "stdout")


def _short(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _run(src: str, command: str, cwd: str) -> tuple:
    """Run ``command`` in ``cwd`` against the ``misopt`` of ``src``: the short
    digests of its CSV, manifest and stdout (None if the command failed), its
    wall time and its CPU time."""
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    argv = [sys.executable, "-m", "misopt.cli", *command.split()]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(
        argv + ["--jobs", "2", "--out", "out"],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
    )
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    if proc.returncode != 0:
        print(f"`{command}` exited {proc.returncode} with {src}", file=sys.stderr)
        return None, wall, cpu
    files = []
    for pattern in ("*.csv", "*_manifest.json"):
        (name,) = glob.glob(os.path.join(cwd, "out", pattern))
        with open(name, "rb") as handle:
            files.append(_short(handle.read()))
    return (*files, _short(proc.stdout)), wall, cpu


def _spread(values: list) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.3f} [{q1:.3f}, {q3:.3f}]"


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        action="append",
        help="misopt source tree; give it twice to compare two trees "
        "(default: this checkout's src)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="runs of each command per tree, alternating which tree goes "
        "first; with more than one, also print wall and CPU spreads (default 1)",
    )
    args = parser.parse_args(argv)
    trees = args.src or [os.path.join(here, os.pardir, "src")]
    if len(trees) > 2:
        parser.error("--src is given at most twice")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    print("| Command | Output | " + " | ".join(trees) + " |")
    print("| --- | --- |" + " --- |" * len(trees))
    failed = differ = False
    timings = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, command in enumerate(COMMANDS):
            # runs[j][r] is (digests, wall, cpu) of tree j's repeat r.
            runs = [[] for _ in trees]
            for r in range(args.repeat):
                order = range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))
                for j in order:
                    cwd = os.path.join(tmp, f"{i}-{j}-{r}")
                    os.mkdir(cwd)
                    runs[j].append(_run(os.path.abspath(trees[j]), command, cwd))
            failed |= any(run[0] is None for tree_runs in runs for run in tree_runs)
            for k, output in enumerate(OUTPUTS):
                per_tree = [
                    sorted({run[0][k] if run[0] else None for run in tree_runs}, key=str)
                    for tree_runs in runs
                ]
                differ |= len({d for seen in per_tree for d in seen}) > 1
                cells = " | ".join(" / ".join(f"`{d}`" for d in seen) for seen in per_tree)
                print(f"| `{command}` | {output} | {cells} |")
            timings += [(command, src, tree_runs) for src, tree_runs in zip(trees, runs)]
    if args.repeat > 1:
        print("\n| Command | Tree | Wall s, median [q1, q3] | CPU s, median [q1, q3] |")
        print("| --- | --- | --- | --- |")
        for command, src, tree_runs in timings:
            wall, cpu = (_spread([run[k] for run in tree_runs]) for k in (1, 2))
            print(f"| `{command}` | {src} | {wall} | {cpu} |")
    if differ and not failed:
        print("digests differ", file=sys.stderr)
    return 1 if failed or differ else 0


if __name__ == "__main__":
    sys.exit(main())
