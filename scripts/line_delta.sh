#!/usr/bin/env bash
# Net line delta of the Rust sources: lines added, removed and net of
# every `*.rs` under crates/, src/, tests/ and examples/, per crate (the
# root package's src/, tests/ and examples/ count as one row each), then
# the total. CHANGES.md quotes this output for each change, so every
# entry counts the same scope.
#
#   scripts/line_delta.sh [BASE]    # BASE defaults to HEAD~1
#
# Compares BASE with the working tree. A new file counts whether or not
# it is tracked yet: untracked files that .gitignore does not exclude
# count as all added lines.
set -euo pipefail
cd "$(dirname "$0")/.."
base="${1:-HEAD~1}"
roots=('crates/*.rs' 'src/*.rs' 'tests/*.rs' 'examples/*.rs')

{
    git diff --numstat --no-renames "$base" -- "${roots[@]}"
    git ls-files --others --exclude-standard -z -- "${roots[@]}" |
        while IFS= read -r -d '' file; do
            printf '%d\t0\t%s\n' "$(wc -l < "$file")" "$file"
        done
} |
    awk -v base="$base" '
        {
            split($3, part, "/")
            unit = part[1] == "crates" ? part[2] : part[1]
            added[unit] += $1
            removed[unit] += $2
            total_added += $1
            total_removed += $2
        }
        END {
            printf "Rust lines against %s (crates/, src/, tests/, examples/)\n", base
            printf "%-12s %8s %8s %8s\n", "crate", "added", "removed", "net"
            fflush()
            for (u in added)
                printf "%-12s %8d %8d %+8d\n", u, added[u], removed[u], added[u] - removed[u] | "sort"
            close("sort")
            printf "%-12s %8d %8d %+8d\n", "total", total_added, total_removed, total_added - total_removed
        }'
