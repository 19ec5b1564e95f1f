#!/usr/bin/env python3
"""Builds the benchmark and runs it with the given arguments.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench` and `serve` in release mode (offline) into
`$CARGO_TARGET_DIR`, default `perfbench/target`, then replaces itself with
the `perfbench` binary. Cargo's output goes to stderr, so the last line of
stdout is the benchmark's result. Exits non-zero without a result when the
build fails, e.g. outside a full checkout of the repository.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bins"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    exe = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
