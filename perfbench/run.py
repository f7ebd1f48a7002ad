#!/usr/bin/env python3
"""Builds the `fastofd` binary and the `perfbench` runner from source, then
runs one workload:

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run it from the root of the repository. Both builds use the release
profile, offline, into `$CARGO_TARGET_DIR` (default `target/`). Build
output goes to stderr; the runner's last stdout line is the result. Any
build failure exits 1 without a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, env=ENV)
    if done.returncode != 0:
        sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
        sys.exit(1)


ENV = dict(os.environ)
TARGET = os.path.abspath(os.path.join(ROOT, ENV.get("CARGO_TARGET_DIR") or "target"))
ENV["CARGO_TARGET_DIR"] = TARGET


def main():
    root_manifest = os.path.join(ROOT, "Cargo.toml")
    bench_manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    if not os.path.isfile(root_manifest):
        sys.stderr.write("perfbench: no Cargo.toml at %s; run from a full checkout\n" % ROOT)
        sys.exit(1)
    build(root_manifest, "--bin", "fastofd")
    build(bench_manifest)
    env = dict(ENV)
    env["PERFBENCH_FASTOFD"] = os.path.join(TARGET, "release", "fastofd")
    runner = os.path.join(TARGET, "release", "perfbench")
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execve(runner, [runner, *sys.argv[1:]], env)


if __name__ == "__main__":
    main()
