#!/usr/bin/env bash
# Tier-1 CI gate: build, test, lint. Run from the repo root.
#
# The workspace is hermetic (no external crates), so everything runs
# with --offline. Clippy is pinned at -D warnings: a warning anywhere
# in the workspace, including tests and benches, fails the gate.
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt =="
cargo fmt --check

echo "== build (release) =="
cargo build --release --offline

echo "== test (CATNAP_THREADS=1, strictly serial) =="
CATNAP_THREADS=1 cargo test -q --offline

echo "== test (CATNAP_THREADS=4, sweep points fanned out) =="
# Subnets always step serially; CATNAP_THREADS only sizes the fan-out
# of latency-sweep points, which these suites exercise.
CATNAP_THREADS=4 cargo test -q --offline --test pool --test hive

echo "== hive smoke (3 spawned catnap-serve workers over loopback TCP) =="
# The hive integration tests (tests/hive.rs) already ran above with
# in-process fleets; this exercises the real multi-process path:
# catnap-hive forks catnap-serve children sharing one cache directory.
# The release build above covers only the root package; the spawned
# workers need the serve binary built from its own crate.
cargo build -q --release --offline -p catnap-serve --bin catnap-serve
HIVE_TMP="$(mktemp -d)"
trap 'rm -rf "$HIVE_TMP"' EXIT
cargo run -q --release --offline -p catnap-hive -- sweep \
  --spawn 3 --worker-bin target/release/catnap-serve \
  --config single-noc-128b --pattern transpose --loads 0.02,0.04,0.06 \
  --packet-bits 128 --warmup 60 --measure 60 --seed 11 \
  --cache "$HIVE_TMP/cache" --out "$HIVE_TMP/sweep.json"
test -s "$HIVE_TMP/sweep.json" || { echo "hive smoke produced no output"; exit 1; }

echo "== catbench (the benchmark builds and passes against this API) =="
# catbench is a workspace of its own and compiles against the crates'
# public API; a change that breaks that API fails here, not only when
# the benchmark next runs.
cargo test -q --release --offline --manifest-path catbench/Cargo.toml

echo "== clippy (workspace, all targets, -D warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "ci.sh: all green"
