#!/usr/bin/env python3
"""Builds and runs catbench, the repository's end-to-end benchmark.

    python3 catbench/run.py --workload mix_heavy|serve_light|hive_sweep \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the `catnap-serve` worker
binary from the repository's own workspace and the benchmark package
beside this file (both in release mode, into `$CARGO_TARGET_DIR`,
default `.bench_build`), then replaces itself with the benchmark
binary. Build output goes to stderr; the last stdout line is the
result JSON. Exits non-zero without a result if the repository is
missing or either build fails.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        print("catbench: no repository workspace at " + root, file=sys.stderr)
        sys.exit(1)
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
        env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "catnap-serve", "--bin", "catnap-serve"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("catbench: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(1)
    binary = os.path.join(target, "release", "catbench")
    serve = os.path.join(target, "release", "catnap-serve")
    os.chdir(root)
    os.execve(binary, [binary, *sys.argv[1:], "--serve-bin", serve], env)


if __name__ == "__main__":
    main()
