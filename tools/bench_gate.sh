#!/usr/bin/env bash
# Bench regression gate: re-runs bench_service and bench_kernels with their
# artifact-recording defaults and compares the fresh numbers against the
# checked-in BENCH_service.json / BENCH_kernels.json. A throughput metric
# more than GATE_TOLERANCE (default 10%) below the committed value — or a
# gated latency more than GATE_LATENCY_FACTOR (default 2x) above it — fails
# the gate.
#
# Only steady metrics are gated. Throughputs (points/s, Mpts/s) are stable
# on an idle machine; microsecond-scale latency percentiles are quantized
# by the clock and flap at +-50%, so they get the looser factor. Metrics
# present in only one of the two files (e.g. a section newly added by this
# commit and not yet re-recorded) are reported as SKIP, not failed.
#
# Usage:
#   tools/bench_gate.sh [build-dir]     # default build dir: build
#   GATE_TOLERANCE=0.15 tools/bench_gate.sh
#
# Exits non-zero on any regression. Run on an otherwise idle machine: a
# concurrent compile on a small box can alone cost 2x throughput.
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
TOLERANCE="${GATE_TOLERANCE:-0.10}"
LATENCY_FACTOR="${GATE_LATENCY_FACTOR:-2.0}"

if [ ! -d "$BUILD_DIR" ]; then
  cmake -B "$BUILD_DIR" -S .
fi
cmake --build "$BUILD_DIR" -j "${JOBS:-$(nproc)}" \
  --target bench_service bench_kernels bench_load

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

run_benches() {
  echo "==> bench_service (fresh run)"
  "$BUILD_DIR"/bench/bench_service > "$tmp/service.json"
  echo "==> bench_load (fresh run)"
  # bench_load emits {"load": {...}}; fold that section into the fresh
  # service document so both compare against the one committed
  # BENCH_service.json artifact.
  "$BUILD_DIR"/bench/bench_load > "$tmp/load.json"
  python3 - "$tmp" <<'EOF'
import json, sys
tmp = sys.argv[1]
with open(f"{tmp}/service.json") as f:
    service = json.load(f)
with open(f"{tmp}/load.json") as f:
    service["load"] = json.load(f)["load"]
with open(f"{tmp}/service.json", "w") as f:
    json.dump(service, f)
EOF
  echo "==> bench_kernels (fresh run)"
  # bench_kernels prints human-readable text on stdout and writes its JSON
  # artifact as BENCH_kernels.json in the *current directory* — run it from
  # the temp dir so the fresh run cannot clobber the committed artifact.
  local bench_kernels_bin
  bench_kernels_bin="$(cd "$BUILD_DIR" && pwd)/bench/bench_kernels"
  (cd "$tmp" && "$bench_kernels_bin")
  mv "$tmp/BENCH_kernels.json" "$tmp/kernels.json"
}

compare() {
  python3 - "$tmp" "$TOLERANCE" "$LATENCY_FACTOR" <<'EOF'
import json
import sys

tmp, tolerance, lat_factor = sys.argv[1], float(sys.argv[2]), float(sys.argv[3])

# (file pair, dotted path, kind). kind "higher" gates fresh < old*(1-tol);
# "lower" gates fresh > old*lat_factor.
GATES = [
    ("service", "ingest.async_points_per_sec", "higher"),
    ("service", "ingest.blocking_points_per_sec", "higher"),
    ("service", "windowed.points_per_sec", "higher"),
    ("service", "durable.never_points_per_sec", "higher"),
    ("service", "durable.interval_points_per_sec", "higher"),
    ("service", "query.by_id.p50_us", "lower"),
    ("service", "query.probe.p50_us", "lower"),
    # Open-loop TCP load (bench_load): the offered rate must stay
    # sustainable and the p99s bounded. p999 is recorded but not gated —
    # a single scheduler hiccup owns that percentile at this sample size.
    ("service", "load.achieved_rps", "higher"),
    ("service", "load.ingest.p99_us", "lower"),
    ("service", "load.query.p99_us", "lower"),
    ("kernels", "end_to_end.phase35_speedup", "higher"),
]
# Every micro kernel row's dispatched throughput is gated too.
def micro_rows(doc):
    for row in doc.get("micro", []):
        yield f"micro[{row['kernel']}/d{row['dims']}].dispatched_mpts", row["dispatched_mpts"]

def lookup(doc, path):
    cur = doc
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            return None
        cur = cur[part]
    return cur

docs = {}
for name, committed in (("service", "BENCH_service.json"),
                        ("kernels", "BENCH_kernels.json")):
    with open(committed) as f:
        old = json.load(f)
    with open(f"{tmp}/{name}.json") as f:
        new = json.load(f)
    docs[name] = (old, new)

failures = []
rows = []
def check(name, path, kind, old_v, new_v):
    if old_v is None or new_v is None:
        rows.append((name, path, old_v, new_v, "SKIP"))
        return
    if kind == "higher":
        ok = new_v >= old_v * (1.0 - tolerance)
    else:
        ok = new_v <= old_v * lat_factor
    rows.append((name, path, old_v, new_v, "PASS" if ok else "FAIL"))
    if not ok:
        failures.append(path)

for name, path, kind in GATES:
    old, new = docs[name]
    check(name, path, kind, lookup(old, path), lookup(new, path))

old_k, new_k = docs["kernels"]
new_micro = dict(micro_rows(new_k))
for label, old_v in micro_rows(old_k):
    check("kernels", label, "higher", old_v, new_micro.get(label))

width = max(len(r[1]) for r in rows)
for name, path, old_v, new_v, verdict in rows:
    old_s = "-" if old_v is None else f"{old_v:.1f}"
    new_s = "-" if new_v is None else f"{new_v:.1f}"
    print(f"  {verdict}  {path:<{width}}  committed={old_s}  fresh={new_s}")

if failures:
    print(f"bench_gate: {len(failures)} regression(s) beyond tolerance "
          f"{tolerance:.0%} (latency factor {lat_factor}x)")
    sys.exit(1)
print("bench_gate: all gated metrics within tolerance")
EOF
}

# A single scheduler hiccup on a loaded runner can sink one metric by
# 10-15%; a genuine regression sinks it on every run. One retry of the
# full bench pass separates the two.
run_benches
if ! compare; then
  echo "==> bench_gate: regression reported; retrying once to rule out noise"
  run_benches
  compare
fi
