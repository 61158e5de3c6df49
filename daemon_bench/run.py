#!/usr/bin/env python3
"""Builds and runs the dpcluster daemon benchmark.

Usage (from the repository root):

    python3 daemon_bench/run.py --workload resident_solve --seed 1 \
        --seconds 20 --trace 0

The first call configures and builds the library and the benchmark binary
(Release) under .bench_build/ (or $CARGO_TARGET_DIR when set); later calls
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Any build or run failure exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "daemon_bench")


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr,
                       env=env)
    subprocess.run(["cmake", "--build", out, "--target", "daemon_bench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return os.path.join(out, "daemon_bench")


def main():
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"daemon_bench: build failed: {error}", file=sys.stderr)
        return 1
    trace_dir = os.path.join(out, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    run = subprocess.run([binary, "--trace-dir", trace_dir] + sys.argv[1:],
                         cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
