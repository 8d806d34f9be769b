#!/usr/bin/env bash
# The repo's quality gate: everything a change must pass before the
# experiment tables are worth regenerating. Hermetic — no network, no
# external tools beyond the Rust toolchain.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo clippy -D warnings"
# First, so a rule violation fails the gate before the expensive
# build/test stages run. The root clippy.toml bans HashMap/HashSet (D1),
# the host clock and host threads (D2), thread-shared state and host
# channels (C1/C2) outside sim::parallel; the I/O-path crates (disk, os,
# pfs, mesh, ufs) deny unwrap/expect/indexing/panic in non-test code
# (P1); the workspace denies a lint suppression without a reason (W1),
# and rustc reports an #[expect] that no longer fires (W2). See
# DESIGN.md section 8.
cargo clippy --workspace --all-targets -- -D warnings

echo "=== cargo build --release"
cargo build --release

echo "=== cargo test -q --workspace"
# Every crate's unit and integration tests, the fault-injection suite
# included. The root Cargo.toml is itself a package, so a bare
# `cargo test` would run only the root's tests/*.rs.
cargo test -q --workspace

echo "=== rebuild-storm smoke"
# Crash 1 of 16 I/O nodes under RF=2 replication mid-run: the foreground
# must complete with zero client-visible read errors, the replica
# failover/read counters must be nonzero, and the rebuild queue must
# drain to exactly zero before the simulation ends.
cargo test -q --release --test failure_injection rebuild_storm_smoke

echo "=== parallel"
# Parallel-kernel equivalence gate: every EXT-matrix config, an
# instrumented run, and a crash+rebuild run must be byte-identical at
# --workers 1 vs --workers 4 on four forced shard worlds, and the
# 1024x128 full machine (auto-sharded onto four worlds) must reproduce
# its committed trace-hash/elapsed golden. The worker count maps worlds
# to host threads and nothing else; see DESIGN.md section 11.
cargo test -q --release --test parallel_equivalence
cargo test -q --release --test parallel_equivalence full_machine_1024x128 -- --ignored

echo "=== tsan"
# ThreadSanitizer over the parallel-equivalence suite (scripts/
# sanitize.sh): checks the kernel's no-data-races-by-construction claim
# against real interleavings. Needs nightly + rust-src; skips loudly
# (exit 0, reason printed) when the toolchain isn't present, so the
# hermetic CI container still passes.
bash scripts/sanitize.sh

echo "=== metrics"
# Perf-regression gate: re-run the telemetry-instrumented default
# workload and compare the bottleneck report's scalars (utilizations,
# bandwidth, Little's-law ratio, ...) against the committed baseline
# within per-metric tolerance bands. Regenerate the baseline with
# `paragonctl metrics run --seed 42` after an intentional perf change.
cargo run -q -p paragon-bench --release --bin paragonctl -- metrics check --seed 42

echo "=== bench"
# Engine-throughput gate: measure simulated-I/O bytes per host second on
# the EXT-SCALING reread shape (host-timed, reread-differenced so
# populate/driver constants cancel) and compare against the committed
# bench.* scalar. One-sided floor at 25% of baseline — only a large
# engine slowdown fails; host-speed variance is absorbed by the band.
# Regenerate with `paragonctl metrics run --bench --seed 42`.
cargo run -q -p paragon-bench --release --bin paragonctl -- metrics check --bench --seed 42

echo "=== profile"
# Profiler acceptance gate: the critical-path blame report must be
# byte-identical across host worker counts, its nine-leg integer
# accounting exact on every EXT-matrix config (including a seeded
# replica-failover run whose blame report is pinned as a golden), the
# Perfetto export byte-stable against tests/goldens/, and the kernel
# self-profile must leave the trace hash untouched. Regenerate goldens
# after an intentional trace-schema change with
# `PARAGON_BLESS=1 cargo test --test profile_goldens`.
cargo test -q --release --test profile_goldens

echo "=== reproduce"
# Every committed record in results/ must be what the tree produces
# today: regenerate all of them into a scratch directory and diff. After
# an intentional change, regenerate them with scripts/reproduce.sh (which
# runs this gate afterwards) and update EXPERIMENTS.md.
fresh=$(mktemp -d)
trap 'rm -rf "$fresh" "$fresh.log"' EXIT
PARAGON_RESULTS_DIR="$fresh" cargo run -q -p paragon-bench --release --bin paragonctl -- \
    reproduce all > /dev/null 2> "$fresh.log" || { cat "$fresh.log"; exit 1; }
diff -r --exclude=logs results "$fresh"

echo "=== cargo fmt --check"
cargo fmt --check

echo "ci: all green"
