"""Print the sha256 digests of what each reference CLI command emits.

Usage::

    python tools/csv_digests.py [--src SRC_DIR [--src SRC_DIR]]

Runs each command of :data:`COMMANDS` at each seed of :data:`SEEDS` as
``python -m misopt.cli`` with ``--seed N --jobs 2 --out out``, importing
``misopt`` from each ``--src`` tree in turn (default: the ``src`` directory
of this checkout).  Every run starts in a fresh temporary working directory,
so the relative ``out`` that the manifest echoes and the ``wrote`` line
prints are the same for every tree.  For each command and seed it prints
three markdown table rows, one per output: the CSV, its JSON manifest and
the command's stdout, with the first 16 hex digits of their sha256, one
column per tree.  Given two trees (the parent checkout's and a change's, or
one tree twice to check that reruns agree), it exits 1 when any digest
differs.  Exits 1 if a command fails.  A ``--src`` without
``misopt/__init__.py`` or ``misopt/cli.py`` is rejected before any run: the
child's ``PYTHONPATH`` would otherwise fall through to another ``misopt``.

The digests are compared on one host only: the SNR tables come from BLAS
``zgemm``, whose bits can differ between CPUs.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import os
import subprocess
import sys
import tempfile

COMMANDS = (
    "solve --m-rows 4 --m-cols 4 --n-rows 2 --n-cols 2 --users 6 --restarts 2",
    "sweep-ms2 --m-rows 3 --m-cols 3 --users 4,8 --restarts 1",
    "sweep-alloc --total 16 --scheme 1 --users 4 --restarts 2",
    "sweep-alloc --total 16 --scheme 2 --users 4 --restarts 2",
    "sweep-users --users 4,8 --restarts 1",
    "case-study --figure 6",
    "case-study --figure 7",
)
# The default seed and the held-out one.
SEEDS = (7, 1009)
HERE = os.path.dirname(os.path.abspath(__file__))

OUTPUTS = ("csv", "manifest", "stdout")


def _short(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _run(src: str, command: str, cwd: str) -> tuple | None:
    """Run ``command`` in ``cwd`` against the ``misopt`` of ``src``: the short
    digests of its CSV, manifest and stdout, or None if it failed."""
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "misopt.cli", *command.split(), "--jobs", "2", "--out", "out"],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
    )
    if proc.returncode != 0:
        print(f"`{command}` exited {proc.returncode} with {src}", file=sys.stderr)
        return None
    files = []
    for pattern in ("*.csv", "*_manifest.json"):
        (name,) = glob.glob(os.path.join(cwd, "out", pattern))
        with open(name, "rb") as handle:
            files.append(_short(handle.read()))
    return (*files, _short(proc.stdout))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        action="append",
        help="misopt source tree; give it twice to compare two trees "
        "(default: this checkout's src)",
    )
    args = parser.parse_args(argv)
    trees = args.src or [os.path.join(HERE, os.pardir, "src")]
    if len(trees) > 2:
        parser.error("--src is given at most twice")
    for src in trees:
        for name in ("__init__.py", "cli.py"):
            if not os.path.isfile(os.path.join(src, "misopt", name)):
                parser.error(f"--src {src} has no misopt/{name}")

    print("| Command | Output | " + " | ".join(trees) + " |")
    print("| --- | --- |" + " --- |" * len(trees))
    commands = [f"{command} --seed {seed}" for command in COMMANDS for seed in SEEDS]
    failed = differ = False
    with tempfile.TemporaryDirectory() as tmp:
        for i, command in enumerate(commands):
            runs = []
            for j, src in enumerate(trees):
                cwd = os.path.join(tmp, f"{i}-{j}")
                os.mkdir(cwd)
                runs.append(_run(os.path.abspath(src), command, cwd))
            failed |= None in runs
            for k, output in enumerate(OUTPUTS):
                digests = [run[k] if run else None for run in runs]
                differ |= len(set(digests)) > 1
                cells = " | ".join(f"`{d}`" for d in digests)
                print(f"| `{command}` | {output} | {cells} |")
    if differ and not failed:
        print("digests differ", file=sys.stderr)
    return 1 if failed or differ else 0


if __name__ == "__main__":
    sys.exit(main())
