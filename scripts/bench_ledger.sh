#!/usr/bin/env bash
# Appends one entry to BENCH_ledger.json: every workload of BENCHMARK.json,
# run untraced with the BENCHMARK.json command over seeds 1..SEEDS, at one
# clean commit.  With --corpus it appends one entry to BENCH_corpus.json
# instead (see the end of this comment).
#
#   scripts/bench_ledger.sh [SEEDS] [TREE]
#   scripts/bench_ledger.sh --corpus [RUNS] [TREE]
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
#
# --corpus runs `reproduce host` (the 18 named stand-ins tuned under the
# measured and the cost-model evaluator, raced against the distinct preset
# programs) RUNS times (default 3).  Its entry holds the same commit, tree
# and host keys, and per run the steal share, the geomean gain over the best
# distinct preset program with its min and the count below 1.0, the geomean
# measured tune ms, and the fleet's evaluations and distinct programs timed;
# across runs, the matrices below 1.0 in every run.  The logs land in
# TREE/benchmark/out/corpus-<sha>/.
# Needs bash and jq.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
corpus=false
kind=ledger
if [ "${1:-}" = --corpus ]; then
    corpus=true
    kind=corpus
    shift
fi
seeds=${1:-$($corpus && echo 3 || echo 5)}
tree=$(cd "${2:-$root}" && pwd)
ledger=$root/BENCH_$kind.json

dirty=$(git -C "$tree" status --porcelain | grep -vE ' BENCH_(ledger|corpus)\.json$' || true)
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
out=$tree/benchmark/out/$kind-$(git -C "$tree" rev-parse --short HEAD)
rm -rf "$out"
mkdir -p "$out"

# "total steal" jiffies of all CPUs since boot.
jiffies() {
    awk '/^cpu / { print $2 + $3 + $4 + $5 + $6 + $7 + $8 + $9, $9 }' /proc/stat
}

# The steal share, in percent, between two `jiffies` readings.
steal_pct() {
    awk -v s=$(($4 - $2)) -v t=$(($3 - $1)) 'BEGIN { printf "%.2f", (t > 0 ? 100 * s / t : 0) }'
}

if $corpus; then
    (cd "$tree" && cargo build --release --offline --quiet -p alpha-bench)
    runs='[]'
    for run in $(seq 1 "$seeds"); do
        log=$out/host-run$run.log
        read -r total0 steal0 < <(jiffies)
        (cd "$tree" && cargo run --release --offline --quiet -p alpha-bench --bin reproduce \
            -- host) > "$log"
        read -r total1 steal1 < <(jiffies)
        pct=$(steal_pct "$total0" "$steal0" "$total1" "$steal1")
        # The rows between the header and the geomean line: the matrix and
        # its gain over the best preset program (`0.93x`).
        below=$(awk '/^  geomean:/ { rows = 0 } rows && $5 + 0 < 1.0 { print $1 }
                     /^  matrix / { rows = 1 }' "$log" | jq -R . | jq -sc .)
        read -r tune gain min count < <(sed -nE \
            's/^  geomean: tune ([0-9.]+) ms .*, ([0-9.]+)x the best preset \(min ([0-9.]+)x, ([0-9]+) of.*/\1 \2 \3 \4/p' "$log")
        read -r evals timed < <(sed -nE \
            's/^  fleet: the measured tunes evaluated ([0-9]+) candidates and timed ([0-9]+) .*/\1 \2/p' "$log")
        echo "bench_ledger: corpus run $run gain ${gain}x (min ${min}x, $count below 1.0) steal $pct %" >&2
        runs=$(jq -c --argjson run "$run" --argjson steal "$pct" --argjson tune "$tune" \
            --argjson gain "$gain" --argjson min "$min" --argjson count "$count" \
            --argjson evals "$evals" --argjson timed "$timed" --argjson below "$below" \
            '. + [{run: $run, steal_pct: $steal, gain_geomean: $gain, gain_min: $min,
                   below_one: $count, tune_ms_geomean: $tune, evaluations: $evals,
                   programs_timed: $timed, below_one_matrices: $below}]' <<< "$runs")
    done
    entry=$(jq -n \
        --arg commit "$describe" \
        --arg tree "$tree_id" \
        --arg subject "$(git -C "$tree" log -1 --format=%s)" \
        --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
        --argjson nproc "$(nproc)" \
        --arg cpu "$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo)" \
        --argjson runs "$runs" '
        {commit: $commit, tree: $tree, subject: $subject, date: $date,
         host: {nproc: $nproc, cpu: $cpu}, runs: $runs,
         below_one_every_run: (reduce ($runs[1:][] | .below_one_matrices) as $m
             ($runs[0].below_one_matrices; map(select(. as $x | $m | index($x)))))}')
    [ -f "$ledger" ] || echo '[]' > "$ledger"
    jq --argjson entry "$entry" '. + [$entry]' "$ledger" > "$ledger.tmp"
    mv "$ledger.tmp" "$ledger"
    echo "bench_ledger: appended $describe ($seeds corpus runs) to $ledger" >&2
    exit 0
fi

mapfile -t command < <(jq -r '.command[]' "$tree/BENCHMARK.json")
mapfile -t workloads < <(jq -r '.workloads[].name' "$tree/BENCHMARK.json")

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
        pct=$(steal_pct "$total0" "$steal0" "$total1" "$steal1")
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
