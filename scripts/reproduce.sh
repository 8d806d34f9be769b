#!/usr/bin/env bash
# Regenerate every table and figure of the paper plus the extension
# studies. Outputs land in results/ (JSON records) and results/logs/
# (rendered tables and ASCII figures, one <id>.txt per experiment, and
# the progress notes in reproduce.err). Takes a few minutes in release.
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p results/logs
cargo run --release -q -p paragon-bench --bin paragonctl -- reproduce all \
    2> results/logs/reproduce.err |
    # Each experiment's output ends with its "[record saved to .../<id>.json]"
    # line: split the stream there into one log per id.
    awk '{ buf = buf $0 "\n" }
         /^\[record saved to .*\.json\]$/ {
             id = $0; sub(/.*\//, "", id); sub(/\.json\]$/, "", id)
             printf "%s", buf > ("results/logs/" id ".txt"); close("results/logs/" id ".txt")
             print "    -> results/logs/" id ".txt"; buf = ""
         }'

# Then the gate (clippy with the clippy.toml invariants, build, tests,
# fmt): numbers from a nondeterministic or panicky tree are not
# reproductions. It runs after regenerating, so its reproduce stage
# compares the fresh records against a second, independent run.
./scripts/ci.sh
echo "All experiments regenerated. Compare against EXPERIMENTS.md."
