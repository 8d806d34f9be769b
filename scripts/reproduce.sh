#!/usr/bin/env bash
# Regenerate every table and figure of the paper plus the extension
# studies, and the telemetry baseline. Outputs land in results/ (JSON
# records), results/logs/ (rendered tables and ASCII figures, one
# <id>.txt per experiment, and the progress notes in reproduce.err) and
# BENCH_metrics.json. Takes a few minutes in release.
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p results/logs
# `reproduce all` checks each experiment's claims (the paper's findings)
# on its fresh record. A failed claim still saves every record, so the
# re-bless can be inspected, but the command then exits non-zero and
# `set -o pipefail` stops this script before the gate.
cargo run --release -q -p paragon-bench --bin paragonctl -- reproduce all \
    2> results/logs/reproduce.err |
    # Each experiment's output ends with its claim lines and then its
    # "[record saved to .../<id>.json]" line: split the stream there into
    # one log per id, so each log holds that id's claim lines.
    awk '{ buf = buf $0 "\n" }
         /^\[record saved to .*\.json\]$/ {
             id = $0; sub(/.*\//, "", id); sub(/\.json\]$/, "", id)
             printf "%s", buf > ("results/logs/" id ".txt"); close("results/logs/" id ".txt")
             print "    -> results/logs/" id ".txt"; buf = ""
         }'

# The telemetry baseline is gated like a record, so it is rewritten with
# them.
cargo run --release -q -p paragon-bench --bin paragonctl -- metrics run --seed 42 > /dev/null

# Then the gate (clippy with the clippy.toml invariants, build, tests,
# fmt): numbers from a nondeterministic or panicky tree are not
# reproductions. It runs after regenerating, so its reproduce stage
# compares the fresh records against a second, independent run.
./scripts/ci.sh
echo "All experiments regenerated. Compare against EXPERIMENTS.md."
