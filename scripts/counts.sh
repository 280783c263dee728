#!/usr/bin/env bash
# The benchmark's exact work counts as a check: reruns one traced seed-1 run
# of each workload and compares every `core.*` / `rtree.*` metric whose unit
# is `count` against `results/counts.json`, by metric name. A count that
# moved, appeared or disappeared is printed as `workload metric: committed ->
# now`, and the script exits 1. `--write` records the current counts instead
# (a change that moves a count says why in CHANGES.md).
#
#   scripts/counts.sh [--write]
#
# Each run's result line is kept in `target/counts-runs.tsv` (`workload`, tab,
# line), so a later step can read other metrics off the same runs.
set -euo pipefail

cd "$(dirname "$0")/.."
case "${1-}" in
  --write) write=1 ;;
  "") write=0 ;;
  *) echo "usage: scripts/counts.sh [--write]" >&2; exit 2 ;;
esac

mkdir -p target
now=target/counts-runs.tsv
: > "$now"
for workload in paper_engines serve_hot serve_cold churn_durable; do
  # The result line is the run's last stdout line.
  line="$(cargo run --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --seed 1 --trace 1 | tail -n 1)"
  printf '%s\t%s\n' "$workload" "$line" >> "$now"
done

python3 - "$now" results/counts.json "$write" <<'EOF'
import json, sys

now_path, committed_path, write = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
now = {}
for row in open(now_path):
    workload, line = row.rstrip("\n").split("\t", 1)
    result = json.loads(line)
    if not result["correct"]:
        sys.exit(f"{workload}: the run's answers failed the oracle")
    metrics = result["metrics"]
    now[workload] = {
        name: metric["value"]
        for name, metric in sorted(metrics.items())
        if name.split(".")[0] in ("core", "rtree") and metric["unit"] == "count"
    }
if write:
    with open(committed_path, "w") as out:
        json.dump(now, out, indent=2)
        out.write("\n")
    print(f"wrote {committed_path}")
    sys.exit(0)
committed = json.load(open(committed_path))
moved = []
for workload in sorted(set(now) | set(committed)):
    old, new = committed.get(workload, {}), now.get(workload, {})
    for name in sorted(set(old) | set(new)):
        if old.get(name) != new.get(name):
            moved.append(f"{workload} {name}: {old.get(name)} -> {new.get(name)}")
for line in moved:
    print(line)
total = sum(len(counts) for counts in now.values())
print(f"{total} counts checked, {len(moved)} moved")
sys.exit(1 if moved else 0)
EOF
