#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep|stream|cmp --seed N --seconds S --trace 0|1

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds against the repository's crates; it is built here in release
mode into $CARGO_TARGET_DIR (default perfbench/target). Scratch stores
go under .perfbench_tmp/ in the current directory and are removed when
the run ends. The last line of standard output is the JSON result.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Free disk a run needs for its scratch stores: `stream` writes a
# ~620 MB trace plus its pre-resolved stream, then the traced run writes
# them again after deleting the first copy.
NEED_FREE_BYTES = {"sweep": 2 << 30, "stream": 3 << 30, "cmp": 1 << 30}


def flag_value(args, flag):
    for i, a in enumerate(args[:-1]):
        if a == flag:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    workload = flag_value(args, "--workload")
    if workload not in NEED_FREE_BYTES:
        print(f"run.py: --workload must be one of {sorted(NEED_FREE_BYTES)}", file=sys.stderr)
        return 2

    target = Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1
    binary = target.resolve() / "release" / "ebcp-perfbench"

    scratch_root = Path(".perfbench_tmp")
    scratch_root.mkdir(exist_ok=True)
    free = shutil.disk_usage(scratch_root).free
    need = NEED_FREE_BYTES[workload]
    if free < need:
        print(f"run.py: {free >> 20} MiB free under {scratch_root.resolve()}, "
              f"the {workload} workload needs {need >> 20} MiB", file=sys.stderr)
        return 1

    scratch = scratch_root / f"run-{os.getpid()}"
    try:
        run = subprocess.run([str(binary), *args, "--tmp-dir", str(scratch)])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
