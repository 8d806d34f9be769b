#!/usr/bin/env bash
# Paired comparison of two hostbench binaries on every workload that
# BENCHMARK.json declares, at its run_seconds. Pair k runs both binaries
# with seed k, back to back, and alternates which one runs first, so a
# drift of the host between runs is split evenly between the two sides.
# For each end-to-end metric it prints both sides' median and quartiles,
# the ratio of the change's median to the parent's, the number of pairs
# in which the change did better, and a verdict, and it prints each
# side's failed checks, summed over its runs. The verdict is the first
# that holds of:
#   gain        the change did better in at least 9 of 10 pairs, and its
#               median beats the parent's by more than the parent's q3 - q1;
#   worse       the change's median is worse than the parent's by more
#               than the metric's bound (a fraction of the parent's median);
#   unresolved  the parent's q3 - q1 is wider than the bound, and not every
#               change run beats every parent run;
#   level       anything else.
#
#   scripts/bench_pairs.sh PARENT_BIN CHANGE_BIN [PAIRS]   # PAIRS defaults to 10
#
# Build each binary from its own checkout with
#   cargo build --release --offline --manifest-path hostbench/Cargo.toml
# (it lands in hostbench/target/release/hostbench). BENCH_SECONDS, when
# set, replaces run_seconds for a quick trial; a claim cites the
# benchmark's own run_seconds. BENCH_WORKLOADS, when set, is a
# space-separated subset of BENCHMARK.json's workload names to pair
# (default: all of them, in file order). The raw `name value unit`
# output of every run is kept in BENCH_PAIRS_DIR (default: a fresh
# temporary directory).
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 || $# -gt 3 ]]; then
    echo "usage: $0 PARENT_BIN CHANGE_BIN [PAIRS]" >&2
    exit 2
fi
parent=$1
change=$2
pairs=${3:-10}
for bin in "$parent" "$change"; do
    [[ -x $bin ]] || { echo "$0: not an executable: $bin" >&2; exit 2; }
done

# BENCHMARK.json holds one key per line, so awk can read it directly.
seconds=${BENCH_SECONDS:-$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' BENCHMARK.json)}
workloads=$(awk -F'"' '/"workloads"/ { on = 1 } on && /"name"/ { print $4 } on && /^  \]/ { on = 0 }' BENCHMARK.json)
if [[ -n ${BENCH_WORKLOADS:-} ]]; then
    for w in $BENCH_WORKLOADS; do
        grep -qxF -- "$w" <<<"$workloads" || {
            echo "$0: BENCH_WORKLOADS names no workload of BENCHMARK.json: $w" >&2
            exit 2
        }
    done
    workloads=$BENCH_WORKLOADS
fi
# name:better:bound for each end-to-end metric.
metrics=$(awk -F'"' '/"end_to_end"/ { on = 1 } on && /"name"/ { b = $15; gsub(/[^0-9.]/, "", b); print $4 ":" $12 ":" b } on && /^  \]/ { on = 0 }' BENCHMARK.json)

out=${BENCH_PAIRS_DIR:-$(mktemp -d)}
mkdir -p "$out"
echo "pairs $pairs, $seconds s per run, raw output in $out"

for w in $workloads; do
    for ((k = 1; k <= pairs; k++)); do
        if ((k % 2)); then order="parent change"; else order="change parent"; fi
        for side in $order; do
            bin=$parent
            [[ $side == change ]] && bin=$change
            "$bin" --workload "$w" --seed "$k" --seconds "$seconds" --trace 0 \
                > "$out/$w.$side.$k.txt"
        done
    done
    echo
    echo "== $w"
    printf '%-18s %34s %34s %7s %6s  %s\n' metric "parent median [q1, q3]" "change median [q1, q3]" ratio wins verdict
    for m in $metrics; do
        IFS=: read -r name better bound <<<"$m"
        for ((k = 1; k <= pairs; k++)); do
            for side in parent change; do
                awk -v n="$name" -v s="$side" -v k="$k" '$1 == n { print s, k, $2 }' \
                    "$out/$w.$side.$k.txt"
            done
        done | awk -v name="$name" -v better="$better" -v bound="$bound" '
            # Median and hinges (medians of the lower and upper halves)
            # of the n values in v[1..n], which it leaves sorted.
            function sort_values(v, n,    i, j, t) {
                for (i = 2; i <= n; i++) {
                    t = v[i]
                    for (j = i - 1; j > 0 && v[j] > t; j--) v[j + 1] = v[j]
                    v[j + 1] = t
                }
            }
            function mid(v, lo, hi,    n) {
                n = hi - lo + 1
                return n % 2 ? v[lo + (n - 1) / 2] : (v[lo + n / 2 - 1] + v[lo + n / 2]) / 2
            }
            function summary(v, n,    h) {
                sort_values(v, n)
                h = int(n / 2)
                median = mid(v, 1, n)
                q1 = mid(v, 1, h)
                q3 = mid(v, n - h + 1, n)
                return sprintf("%.5g [%.5g, %.5g]", median, q1, q3)
            }
            { value[$1, $2] = $3; if ($1 == "parent") np++; else nc++ }
            END {
                for (k = 1; k <= np; k++) p[k] = value["parent", k]
                for (k = 1; k <= nc; k++) c[k] = value["change", k]
                wins = 0
                for (k = 1; k <= np; k++) {
                    if (better == "higher" && value["change", k] > value["parent", k]) wins++
                    if (better == "lower" && value["change", k] < value["parent", k]) wins++
                }
                ps = summary(p, np)
                pm = median
                spread = q3 - q1
                cs = summary(c, nc)
                ratio = pm == 0 ? "-" : sprintf("%.4f", median / pm)
                # gap > 0: the change'"'"'s median is the better one.
                gap = better == "higher" ? median - pm : pm - median
                all_beat = better == "higher" ? c[1] > p[np] : c[nc] < p[1]
                if (wins * 10 >= 9 * np && gap > spread) verdict = "gain"
                else if (-gap > bound * pm) verdict = "worse"
                else if (spread > bound * pm && !all_beat) verdict = "unresolved"
                else verdict = "level"
                printf "%-18s %34s %34s %7s %3d/%d  %s\n", name, ps, cs, ratio, wins, np, verdict
            }'
    done
    for side in parent change; do
        failed=$(cat "$out/$w.$side".*.txt | awk -F'"failed":' 'NF > 1 { split($2, f, /[,}]/); s += f[1] } END { print s + 0 }')
        echo "$side failed checks: $failed"
    done
done
