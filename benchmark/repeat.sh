#!/usr/bin/env bash
# Repeatability check, the way the driver does it: N sets (default 2) of
# SEEDS runs (default 10, seeds 1..SEEDS) per workload. Per set it prints,
# for every end-to-end metric and workload, the median, the quartiles and
# the interquartile spread against the bound in BENCHMARK.json; between
# sets it compares the medians against the same bound; and for every seed
# it checks that the three resnet18_* transports print identical
# per-aggregator digests. Exits non-zero if any check fails.
#
#   benchmark/repeat.sh [N]          run from anywhere
#   SEEDS=3 benchmark/repeat.sh 1    a quicker look
set -euo pipefail

sets=${1:-2}
seeds=${SEEDS:-10}
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$here/out/repeat"
cd "$root"

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
rm -rf "$out"

for set in $(seq 1 "$sets"); do
    mkdir -p "$out/set$set"
    order=$workloads
    # Alternate the workload order so that no workload always runs at the
    # same point of a set.
    if (( set % 2 == 0 )); then
        order=$(echo "$workloads" | tr ' ' '\n' | tac | tr '\n' ' ')
    fi
    for seed in $(seq 1 "$seeds"); do
        for workload in $order; do
            echo "set $set seed $seed $workload" >&2
            cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
                --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
                > "$out/set$set/$workload-$seed.json" 2> "$out/set$set/$workload-$seed.err" \
                || echo "  exit code $?" >&2
        done
    done
done

python3 - "$out" "$sets" "$seeds" <<'EOF'
import json, re, statistics, sys
from pathlib import Path

out, sets, seeds = Path(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]
ok = True
medians = {}
for s in range(1, sets + 1):
    print(f"\nset {s}: {seeds} seeds per workload")
    print(f"{'workload':<18} {'metric':<16} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
    for w in workloads:
        runs = []
        for seed in range(1, seeds + 1):
            lines = (out / f"set{s}" / f"{w}-{seed}.json").read_text().splitlines()
            if len(lines) != 1:
                print(f"FAIL {w} seed {seed}: stdout has {len(lines)} lines")
                ok = False
                continue
            result = json.loads(lines[0])
            if not (result["correct"] and result["failed"] == 0):
                print(f"FAIL {w} seed {seed}: correct={result['correct']} failed={result['failed']}")
                ok = False
            runs.append(result["metrics"])
        for m in spec["end_to_end"]:
            values = [r[m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            medians[(s, w, m["name"])] = med
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med
            verdict = ""
            if m["name"] != "setup_s" and spread > m["bound"]:
                verdict = "  FAIL spread over bound"
                ok = False
            elif m["name"] != "setup_s" and spread > m["bound"] / 3:
                verdict = "  (over a third of the bound)"
            print(f"{w:<18} {m['name']:<16} {med:>11.4f} {q1:>11.4f} {q3:>11.4f} {spread:>7.3f} {m['bound']:>6.2f}{verdict}")

for s in range(2, sets + 1):
    print(f"\nset {s} against set 1")
    for w in workloads:
        for m in spec["end_to_end"]:
            first, later = medians[(1, w, m["name"])], medians[(s, w, m["name"])]
            worse = (later - first) / first if m["better"] == "lower" else (first - later) / first
            verdict = "ok"
            if worse > m["bound"]:
                verdict = "FAIL worse than the bound"
                ok = False
            print(f"{w:<18} {m['name']:<16} {first:>11.4f} {later:>11.4f} {worse:>+8.3f} {verdict}")

print("\ncross-backend digests")
transports = [w for w in workloads if w.startswith("resnet18_")]
digests_ok = True
for s in range(1, sets + 1):
    for seed in range(1, seeds + 1):
        digests = {}
        for w in transports:
            text = (out / f"set{s}" / f"{w}-{seed}.err").read_text()
            digests[w] = sorted(re.findall(r"^digest (\S+) (\S+)$", text, re.M))
        same = all(d == digests[transports[0]] and d for d in digests.values())
        if not same:
            print(f"FAIL set {s} seed {seed}: {digests}")
            digests_ok = False
if digests_ok:
    print("identical across " + ", ".join(transports) + " for every seed")
sys.exit(0 if ok and digests_ok else 1)
EOF
