#!/usr/bin/env python3
"""Build the fleet benchmark from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload deep-cut --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark binary unchanged; its last line
of standard output is the JSON result. The Go build cache, module cache,
temporary files and the binary all live under the build directory
(``$CARGO_TARGET_DIR`` if set, else ``.bench_build``) inside the
checkout, so nothing is read or written outside it.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ)
    for key, sub in (
        ("GOCACHE", "gocache"),
        ("GOMODCACHE", "gomodcache"),
        ("GOPATH", "gopath"),
        ("GOTMPDIR", "tmp"),
        ("TMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
        ("XDG_CACHE_HOME", "cache"),
    ):
        env[key] = os.path.join(build_dir, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOPROXY="off", GOTOOLCHAIN="local", GOTELEMETRY="off")
    # The benchmark runs with madvdontneed=0: heap pages the runtime frees
    # stay mapped until the kernel needs them, so each repetition does not
    # fault the previous one's heap back in.
    run_env = dict(env, GODEBUG="madvdontneed=0")

    binary = os.path.join(build_dir, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=bench_dir, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=root, env=run_env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
