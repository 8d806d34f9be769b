#!/usr/bin/env bash
# Regenerate every table and figure of the paper plus the extension
# studies. Outputs land in results/ (JSON records) and results/logs/
# (rendered tables and ASCII figures). Takes a few minutes in release.
set -euo pipefail
cd "$(dirname "$0")/.."

BINARIES=(
    fig2_io_modes
    table1_iobound
    table2_access_times
    fig4_balanced
    fig5_balanced_large
    table3_stripe_units
    table4_stripe_groups
    ext_scaling
    ext_patterns
    ext_depth_ablation
    ext_ablation
    ext_writes
    ext_double_buffering
    ext_scsi16
)

# Preflight: don't regenerate tables from a tree that fails the gate
# (clippy with the clippy.toml invariants, build, tests, fmt) —
# numbers from a nondeterministic or panicky tree are not reproductions.
./scripts/ci.sh

cargo build --release -p paragon-bench
mkdir -p results/logs
for bin in "${BINARIES[@]}"; do
    echo "=== $bin"
    cargo run --release -q -p paragon-bench --bin "$bin" \
        > "results/logs/$bin.txt" 2> "results/logs/$bin.err"
    echo "    -> results/logs/$bin.txt"
done
echo "All experiments regenerated. Compare against EXPERIMENTS.md."
