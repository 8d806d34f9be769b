#!/usr/bin/env bash
# Cross-crate dead-API scan. rustc's `dead_code` lint cannot see a `pub`
# item, and `unreachable_pub` accepts a `pub fn` on an exported type, so
# a method that only its own crate calls (or that nothing calls) keeps
# its `pub` forever. This scan lists every `pub fn` in `crates/*/src`
# whose name appears nowhere outside that crate's `src/`: not in another
# crate, not in any crate's `tests/`, not in the root `src/`, `tests/` or
# `examples/`, and not in `hostbench/src`. Such a function should be
# `pub(crate)` (then rustc reports it if it has no caller) or deleted.
#
# A crate's `src/bin/` targets are callers of its library. The match is
# by word on code lines (comment lines are skipped), so it errs towards
# silence: a common name such as `new` or `len` used anywhere counts as
# a caller. Exits 1 on any hit.
#
#     scripts/pub_scan.sh
set -euo pipefail
cd "$(dirname "$0")/.."

hits=0
for src in crates/*/src; do
    # Every line of code outside this crate's src/, comments dropped: a
    # doc comment that mentions a function does not call it.
    code=$(find crates src tests examples hostbench/src -name '*.rs' \
        \( -path "$src/bin/*" -o -not -path "$src/*" \) -print0 | xargs -0 cat | grep -vE '^\s*//')
    while IFS=: read -r file line name; do
        if ! grep -qw -- "$name" <<<"$code"; then
            echo "$file:$line: pub fn $name has no caller outside $src"
            hits=$((hits + 1))
        fi
    done < <(
        grep -rnE --exclude-dir=bin '^\s*pub (const |async )?fn [A-Za-z_][A-Za-z0-9_]*' "$src" |
            sed -E 's/^([^:]+):([0-9]+):.*pub (const |async )?fn ([A-Za-z_][A-Za-z0-9_]*).*/\1:\2:\4/' |
            sort -t: -k1,1 -k2,2n
    )
done

echo "pub surface: $hits pub fn(s) with no caller outside their crate"
[ "$hits" -eq 0 ]
