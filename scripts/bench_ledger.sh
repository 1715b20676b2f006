#!/usr/bin/env bash
# Appends one entry to BENCH_ledger.json: every workload of BENCHMARK.json,
# run untraced with the BENCHMARK.json command over seeds 1..SEEDS, at one
# clean commit.
#
#   scripts/bench_ledger.sh [SEEDS] [TREE]
#
# SEEDS  runs per workload (default 5).
# TREE   the checkout to measure (default: this repository).  It must be
#        clean apart from BENCH_ledger.json, so the entry names exactly the
#        code that ran.  Pointing TREE at a clone of an older commit records
#        that commit; the entry still goes to this repository's ledger.
#
# Each run's result file lands in TREE/benchmark/out/ledger-<sha>/ (git
# ignored).  The entry holds `git describe --always` and the commit's tree
# (`git rev-parse HEAD^{tree}`, which names the code even when the commit
# is a throwaway one that never reaches history), host facts, per
# (workload, metric) the median, quartiles (Python's
# statistics.quantiles(n=4), as `benchmark -- compare` reads them) and N,
# every run's hypervisor steal share (from /proc/stat around the run), the
# attempted/failed operation counts and the winner shapes per workload.
# Needs bash and jq.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
seeds=${1:-5}
tree=$(cd "${2:-$root}" && pwd)
ledger=$root/BENCH_ledger.json

dirty=$(git -C "$tree" status --porcelain | grep -v ' BENCH_ledger\.json$' || true)
if [ -n "$dirty" ]; then
    echo "bench_ledger: refusing a dirty tree ($tree):" >&2
    echo "$dirty" >&2
    exit 1
fi
# An offline build rewrites benchmark/Cargo.lock (it still lists a package
# the workspace folded away); put the committed one back however we exit.
trap 'git -C "$tree" checkout --quiet -- benchmark/Cargo.lock' EXIT
describe=$(git -C "$tree" describe --always)
tree_id=$(git -C "$tree" rev-parse 'HEAD^{tree}')
out=$tree/benchmark/out/ledger-$(git -C "$tree" rev-parse --short HEAD)
rm -rf "$out"
mkdir -p "$out"

mapfile -t command < <(jq -r '.command[]' "$tree/BENCHMARK.json")
mapfile -t workloads < <(jq -r '.workloads[].name' "$tree/BENCHMARK.json")

# "total steal" jiffies of all CPUs since boot.
jiffies() {
    awk '/^cpu / { print $2 + $3 + $4 + $5 + $6 + $7 + $8 + $9, $9 }' /proc/stat
}

# Build once, so no run pays the compile.
(cd "$tree" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)

steal='[]'
for workload in "${workloads[@]}"; do
    for seed in $(seq 1 "$seeds"); do
        read -r total0 steal0 < <(jiffies)
        status=0
        (cd "$tree" && "${command[@]}" --workload "$workload" --seed "$seed" \
            --trace 0 --out-dir "$out") > "$out/$workload-seed$seed.log" 2>&1 || status=$?
        read -r total1 steal1 < <(jiffies)
        pct=$(awk -v s=$((steal1 - steal0)) -v t=$((total1 - total0)) \
            'BEGIN { printf "%.2f", (t > 0 ? 100 * s / t : 0) }')
        echo "bench_ledger: $workload seed $seed exit $status steal $pct %" >&2
        steal=$(jq -c --arg w "$workload" --argjson s "$seed" --argjson p "$pct" \
            --argjson e "$status" '. + [{workload: $w, seed: $s, steal_pct: $p, exit: $e}]' \
            <<< "$steal")
    done
done

results=("$out"/*-seed*-trace0.json)
entry=$(jq -s \
    --arg commit "$describe" \
    --arg tree "$tree_id" \
    --arg subject "$(git -C "$tree" log -1 --format=%s)" \
    --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    --argjson nproc "$(nproc)" \
    --arg cpu "$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo)" \
    --argjson seeds "$seeds" \
    --argjson runs "$steal" '
    def median: sort as $d | ($d | length) as $n
        | if $n % 2 == 1 then $d[($n - 1) / 2] else ($d[$n / 2 - 1] + $d[$n / 2]) / 2 end;
    # statistics.quantiles(data, n=4), method "exclusive".
    def quartiles: sort as $d | ($d | length) as $n
        | if $n < 2 then [$d[0], $d[0], $d[0]] else
            [range(1; 4) as $i
             | ([([($i * ($n + 1) / 4 | floor), 1] | max), $n - 1] | min) as $j
             | ($i * ($n + 1) - $j * 4) as $delta
             | ($d[$j - 1] * (4 - $delta) + $d[$j] * $delta) / 4]
          end;
    {
      commit: $commit,
      tree: $tree,
      subject: $subject,
      date: $date,
      host: {nproc: $nproc, cpu: $cpu},
      seeds: $seeds,
      runs: $runs,
      workloads: (group_by(.workload) | map({
        key: .[0].workload,
        value: {
          n: length,
          attempted: (map(.attempted) | add),
          failed: (map(.failed) | add),
          winner_shapes: (map(.winner_shapes[]) | group_by(.)
                          | map({key: .[0], value: length}) | from_entries),
          metrics: ([.[].metrics | to_entries[]] | group_by(.key) | map({
            key: .[0].key,
            value: ({unit: .[0].value.unit} + ([.[].value.value]
                    | {median: median, q1: quartiles[0], q3: quartiles[2], n: length}))
          }) | from_entries)
        }
      }) | from_entries)
    }' "${results[@]}")

[ -f "$ledger" ] || echo '[]' > "$ledger"
jq --argjson entry "$entry" '. + [$entry]' "$ledger" > "$ledger.tmp"
mv "$ledger.tmp" "$ledger"
echo "bench_ledger: appended $describe ($(jq length <<< "$steal") runs) to $ledger" >&2
