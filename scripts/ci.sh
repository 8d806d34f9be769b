#!/usr/bin/env bash
# The repo's quality gate: everything a change must pass before the
# experiment tables are worth regenerating. Hermetic — no network, no
# external tools beyond the Rust toolchain.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo fmt --check"
# First, with clippy, so a formatting slip fails the gate before the
# expensive build/test stages run.
cargo fmt --check

echo "=== cargo clippy -D warnings"
# Early, so a rule violation fails the gate before the expensive
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
# Every crate's unit and integration tests. The root Cargo.toml is itself
# a package, so a bare `cargo test` would run only the root's tests/*.rs.
# Among them: the fault-injection suite's rebuild-storm smoke
# (tests/failure_injection.rs, `rebuild_storm_smoke_sixteen_ions`), which
# crashes 1 of 16 I/O nodes under RF=2 replication mid-run: the
# foreground must complete with zero client-visible read errors, the
# replica failover/read counters must be nonzero, and the rebuild queue
# must drain to exactly zero before the simulation ends. And the
# profiler's acceptance gate (tests/profile_goldens.rs): the
# critical-path blame report's nine-leg integer accounting must be exact
# on every EXT-matrix config (including a seeded replica-failover run
# whose blame report is pinned as a golden), and the Perfetto export
# byte-stable against tests/goldens/. Regenerate goldens after an
# intentional trace-schema change with
# `PARAGON_BLESS=1 cargo test --test profile_goldens`.
cargo test -q --workspace

echo "=== asan"
# AddressSanitizer, leak detection on, over the executor's unsafe code:
# the simulation kernel's unit and integration tests, the root
# determinism suite, the workload driver's unit tests, and the RPC and
# disk unit tests, which tear their reply tables down mid-request. A
# waker vtable that miscounts its `Rc`, or a reused task cell that a
# stale waker still reaches, shows here as a use-after-free or a leak,
# where a plain test run may only abort in the allocator, or pass; and a
# world that `run_with` fails to free (an instrumented run's sampler task
# holds its `Telemetry`, which holds the file system) shows as a leak. `-Zsanitizer` needs nightly; doctests are left
# out because they fail to link under ASan, and the instrumented build
# keeps a target directory of its own.
if cargo +nightly --version > /dev/null 2>&1; then
    asan() {
        RUSTFLAGS="-Zsanitizer=address" ASAN_OPTIONS="detect_leaks=1" \
            cargo +nightly test -q --target x86_64-unknown-linux-gnu \
            --target-dir target/asan "$@"
    }
    asan -p paragon-sim --lib --tests
    asan --test determinism
    asan -p paragon-workload --lib
    asan -p paragon-os --lib
    asan -p paragon-disk --lib
else
    echo "!!! === asan SKIPPED: no nightly toolchain (cargo +nightly) found !!!" >&2
fi

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

echo "=== full machine"
# The 1024x128 full machine (1 GiB file, 25 ms think time) must reproduce
# its committed trace-hash/elapsed golden with every byte delivered.
# Release only: the debug build takes minutes on this shape.
cargo test -q --release --test determinism full_machine_1024x128 -- --ignored

echo "=== reproduce"
# Every deterministic output the tree commits must be what it produces
# today, byte for byte: the records in results/ (regenerated into a
# scratch directory and diffed) and the telemetry baseline
# BENCH_metrics.json (a fresh `metrics run --seed 42`, written next to
# that directory so `diff -r` sees only records). The report's pretty
# JSON puts one key per line, so a diff line names the counter or scalar
# that moved. Host time is not gated here: hostbench/ measures it. Each
# experiment's claims (the paper's findings, crates/bench/src/experiments.rs)
# are checked on its fresh record too: a failed claim makes `reproduce`
# exit non-zero, after it has saved every record, and the log shown then
# names each failed claim. After an intentional change, regenerate both
# with scripts/reproduce.sh (which runs this gate afterwards) and update
# EXPERIMENTS.md.
fresh=$(mktemp -d)
trap 'rm -rf "$fresh" "$fresh.log" "$fresh.metrics.json"' EXIT
paragonctl() { cargo run -q -p paragon-bench --release --bin paragonctl -- "$@"; }
PARAGON_RESULTS_DIR="$fresh" paragonctl reproduce all > /dev/null 2> "$fresh.log" ||
    { cat "$fresh.log"; exit 1; }
diff -r --exclude=logs results "$fresh"
paragonctl metrics run --seed 42 --out "$fresh.metrics.json" > /dev/null
diff -u BENCH_metrics.json "$fresh.metrics.json"

echo "ci: all green"
