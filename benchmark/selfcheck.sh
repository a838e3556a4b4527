#!/bin/sh
# Runs the whole benchmark twice on this commit - every workload at N seeds
# (default 10), as the driver does - and asks `agree` whether the two sets
# stay within the bounds of BENCHMARK.json. Exit 0 means the benchmark is
# steady enough to judge a change with.
#
#   benchmark/selfcheck.sh [N_SEEDS] [OUT_DIR]
#
# Takes about 2 x N x 4 x 30 s (40 min at N=10). Run it on an idle machine.
set -eu

here=$(cd "$(dirname "$0")" && pwd)
seeds=${1:-10}
out=${2:-$here/out/selfcheck}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")
workloads=$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' "$here/../BENCHMARK.json")

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bench() {
    cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
}

mkdir -p "$out"
for set in a b; do
    : > "$out/$set.jsonl"
    for workload in $workloads; do
        seed=1
        while [ "$seed" -le "$seeds" ]; do
            echo "set $set: $workload seed $seed" >&2
            result=$(bench --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
                2>>"$out/$set.log" | tail -n 1)
            printf '{"workload":"%s","seed":%d,"result":%s}\n' "$workload" "$seed" "$result" \
                >>"$out/$set.jsonl"
            seed=$((seed + 1))
        done
    done
done
bench agree "$out/a.jsonl" "$out/b.jsonl"
