#!/usr/bin/env bash
# Smoke test of the benchmark itself (sizes / 100, a few seconds):
#  1. every metric BENCHMARK.json names appears, finite, on every workload;
#  2. a time-boxed `--workload` run ends with the one-line JSON result;
#  3. a wrong golden report makes the driver exit non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."

python3 benchmark/run.py --smoke > /dev/null
python3 - <<'EOF'
import json, math
spec = json.load(open("BENCHMARK.json"))
latest = json.load(open("benchmark/out/latest.json"))
for w in spec["workloads"]:
    result = latest["workloads"][w["name"]]
    assert result["failed_runs"] == 0, (w["name"], result["errors"])
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            value = result[kind][m["name"]]["median"]
            assert math.isfinite(value), (w["name"], m["name"], value)
EOF

for trace in 0 1; do
    python3 benchmark/run.py --smoke --workload scale_nalb --seed 7 --seconds 1 --trace "$trace" \
        | tail -n 1 | python3 -c '
import json, sys
kind = "per_layer" if sys.argv[1] == "1" else "end_to_end"
line = json.load(sys.stdin)
assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, line
names = {m["name"] for m in json.load(open("BENCHMARK.json"))[kind]}
assert set(line["metrics"]) == names, set(line["metrics"]) ^ names
' "$trace"
done

bad=$(mktemp -d benchmark/out/bad-golden.XXXXXX)
trap 'rm -rf "$bad"' EXIT
cp benchmark/golden/*.json "$bad"
python3 - "$bad/paper_sat.smoke.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["report"]["admitted"] += 1
json.dump(doc, open(sys.argv[1], "w"))
EOF
if python3 benchmark/run.py --smoke --golden-dir "$bad" > /dev/null; then
    echo "test_smoke: a wrong golden report was accepted" >&2
    exit 1
fi
echo "benchmark smoke: ok"
