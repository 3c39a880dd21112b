#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources, then runs one workload.

    python3 perfbench/run.py --workload lineitem_scan --seed 1 --seconds 20 --trace 0

Run from the root of the checkout. The engine (../src) and the benchmark
(perfbench/src) are compiled together in a Release build under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); an up-to-date
build costs one no-op `cmake --build`. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Every argument is passed
to the benchmark binary unchanged (see src/main.cc for the full list).
Exits non-zero, printing no result, when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out):
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in (configure, ["cmake", "--build", out, "-j", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(out, "mppbench")
    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", os.path.join(ROOT, ".bench_out")]
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
