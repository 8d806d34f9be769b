#!/usr/bin/env bash
# The repo's quality gate: everything a change must pass before the
# experiment tables are worth regenerating. Hermetic — no network, no
# external tools beyond the Rust toolchain.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo clippy -D warnings"
# First, so a rule violation fails the gate before the expensive
# build/test stages run. The root clippy.toml bans HashMap/HashSet (D1),
# the host clock and host threads (D2), and thread-shared state and host
# channels (C1/C2), because the simulator is single-threaded; the
# I/O-path crates (disk, os, pfs, mesh, ufs) deny
# unwrap/expect/indexing/panic in non-test code
# (P1); the workspace denies a lint suppression without a reason (W1),
# rustc reports an #[expect] that no longer fires (W2), and it warns on a
# `pub` item nothing outside its crate can reach (S1). See DESIGN.md
# section 8.
cargo clippy --workspace --all-targets -- -D warnings

echo "=== pub surface"
# rustc cannot report a `pub fn` that only its own crate calls, or that
# nothing calls: `dead_code` is blind to `pub`, and `unreachable_pub`
# (on in the workspace lints) accepts a method on an exported type. The
# scan names every `pub fn` whose name appears nowhere outside its
# crate's src/; make it `pub(crate)` (rustc then reports it if it is
# dead) or delete it.
scripts/pub_scan.sh

echo "=== cargo doc"
# Doc comments are checked like code: a link to an item that was renamed
# or deleted, or any other rustdoc warning, fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --document-private-items

echo "=== cargo build --release"
cargo build --release

echo "=== cargo test -q --workspace"
# Every crate's unit and integration tests, the fault-injection suite
# included. The root Cargo.toml is itself a package, so a bare
# `cargo test` would run only the root's tests/*.rs.
cargo test -q --workspace

echo "=== examples"
# Each example asserts what it prints (checkpoint_restart restores bit
# for bit, out_of_core_matvec checks y = A*x over a file populated from a
# non-pattern closure, failure_injection the hot-spot and prefetch
# orderings), so a panic here is a wrong answer, not a crash.
for ex in examples/*.rs; do
    cargo run -q --release --example "$(basename "$ex" .rs)" > /dev/null
done

echo "=== hostbench"
# hostbench/ is a package of its own, outside the workspace, so no stage
# above builds it. Its smoke test runs both workloads on a tiny shape
# with byte verification: an API change that breaks the benchmark fails
# here, not only when the benchmark is next run.
cargo test -q --release --offline --manifest-path hostbench/Cargo.toml

echo "=== rebuild-storm smoke"
# Crash 1 of 16 I/O nodes under RF=2 replication mid-run: the foreground
# must complete with zero client-visible read errors, the replica
# failover/read counters must be nonzero, and the rebuild queue must
# drain to exactly zero before the simulation ends.
cargo test -q --release --test failure_injection rebuild_storm_smoke

echo "=== full machine"
# The 1024x128 full machine (1 GiB file, 25 ms think time) must reproduce
# its committed trace-hash/elapsed golden with every byte delivered.
# Release only: the debug build takes minutes on this shape.
cargo test -q --release --test determinism full_machine_1024x128 -- --ignored

echo "=== metrics"
# Perf-regression gate: re-run the telemetry-instrumented default
# workload and compare its report with the committed baseline. The run
# config and the work counters (events, task polls, store bytes copied,
# disk/mesh/server totals) must match exactly, on any host; the scalars
# (utilizations, bandwidth, Little's-law ratio, ...) must stay within
# per-metric tolerance bands. Host time is not gated here: hostbench/
# measures it. Regenerate the baseline with
# `paragonctl metrics run --seed 42` after an intentional change.
cargo run -q -p paragon-bench --release --bin paragonctl -- metrics check --seed 42

echo "=== profile"
# Profiler acceptance gate: the critical-path blame report's nine-leg
# integer accounting must be exact on every EXT-matrix config (including
# a seeded replica-failover run whose blame report is pinned as a
# golden), and the Perfetto export byte-stable against tests/goldens/.
# Regenerate goldens
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
