"""Print the sha256 digest of the CSV that each reference CLI command writes.

Usage::

    python tools/csv_digests.py [--src SRC_DIR [--src SRC_DIR]]

Runs each command of :data:`COMMANDS` as ``python -m misopt.cli`` with
``--jobs 2 --out DIR`` into a temporary directory, importing ``misopt`` from
each ``--src`` tree in turn (default: the ``src`` directory of this
checkout), and prints one markdown table row per command: the command and
the first 16 hex digits of the sha256 of its CSV, one column per tree.
Given two trees (the parent checkout's and a change's, or one tree twice to
check that reruns agree), it exits 1 when any digest differs.  Exits 1 if a
command fails.

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
    "solve --m-rows 4 --m-cols 4 --n-rows 2 --n-cols 2 --users 6 --seed 7 --restarts 2",
    "sweep-ms2 --m-rows 3 --m-cols 3 --users 4,8 --seed 7 --restarts 1",
    "sweep-alloc --total 16 --scheme 1 --users 4 --seed 7 --restarts 2",
    "sweep-alloc --total 16 --scheme 2 --users 4 --seed 7 --restarts 2",
    "sweep-users --users 4,8 --seed 7 --restarts 1",
    "case-study --figure 6 --seed 7",
    "case-study --figure 7 --seed 7",
)


def _digest(src: str, command: str, out: str) -> str | None:
    """Run ``command`` against the ``misopt`` of ``src``; the first 16 hex
    digits of its CSV's sha256, or None if the command failed."""
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    argv = [sys.executable, "-m", "misopt.cli", *command.split()]
    proc = subprocess.run(
        argv + ["--jobs", "2", "--out", out],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.DEVNULL,
    )
    if proc.returncode != 0:
        print(f"`{command}` exited {proc.returncode} with {src}", file=sys.stderr)
        return None
    (csv_path,) = glob.glob(os.path.join(out, "*.csv"))
    with open(csv_path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()[:16]


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        action="append",
        help="misopt source tree; give it twice to compare two trees "
        "(default: this checkout's src)",
    )
    args = parser.parse_args(argv)
    trees = args.src or [os.path.join(here, os.pardir, "src")]
    if len(trees) > 2:
        parser.error("--src is given at most twice")

    print("| Command | " + " | ".join(trees) + " |")
    print("| --- |" + " --- |" * len(trees))
    failed = differ = False
    with tempfile.TemporaryDirectory() as tmp:
        for i, command in enumerate(COMMANDS):
            digests = [
                _digest(os.path.abspath(src), command, os.path.join(tmp, f"{i}-{j}"))
                for j, src in enumerate(trees)
            ]
            failed |= None in digests
            differ |= len(set(digests)) > 1
            print(f"| `{command}` | " + " | ".join(f"`{d}`" for d in digests) + " |")
    if differ and not failed:
        print("digests differ", file=sys.stderr)
    return 1 if failed or differ else 0


if __name__ == "__main__":
    sys.exit(main())
