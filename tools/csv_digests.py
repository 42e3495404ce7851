"""Print the sha256 digest of the CSV that each reference CLI command writes.

Usage::

    python tools/csv_digests.py [--src SRC_DIR]

Runs each command of :data:`COMMANDS` through ``misopt.cli.main`` with
``--jobs 2 --out DIR`` into a temporary directory and prints one markdown
table row per command: the command and the first 16 hex digits of the
sha256 of its CSV.  ``--src`` picks the ``misopt`` source tree to import
(default: the ``src`` directory of this checkout), so running the script
once against the parent checkout and once against a change shows whether a
refactor kept every CSV byte-identical.  Exits 1 if a command fails.

The digests are compared on one host only: the SNR tables come from BLAS
``zgemm``, whose bits can differ between CPUs.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import os
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


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(here, os.pardir, "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from misopt.cli import main as cli_main

    print("| Command | sha256[:16] |")
    print("| --- | --- |")
    with tempfile.TemporaryDirectory() as tmp:
        for i, command in enumerate(COMMANDS):
            out = os.path.join(tmp, str(i))
            argv_i = command.split() + ["--jobs", "2", "--out", out]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv_i)
            if code != 0:
                print(f"`{command}` exited {code}", file=sys.stderr)
                return 1
            (path,) = glob.glob(os.path.join(out, "*.csv"))
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()[:16]
            print(f"| `{command}` | `{digest}` |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
