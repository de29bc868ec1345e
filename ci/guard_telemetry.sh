#!/usr/bin/env bash
# Guard the observability invariant: with every telemetry sink enabled
# (--progress to stderr, --trace-out and --metrics-out to sidecar
# files), the stdout CSV must stay byte-identical to a plain run, the
# event stream must parse as JSONL covering all 16 cells with
# cell_start strictly before cell_finish, and the metrics snapshot must
# carry one record per cell.
set -euo pipefail
BIN="${THERM3D_BIN:-target/release/therm3d}"
OUT="${TMPDIR:-/tmp}/therm3d-ci-telemetry"
rm -rf "$OUT" && mkdir -p "$OUT"

"$BIN" sweep examples/sweep_scenarios.toml --format csv > "$OUT/plain.csv"
"$BIN" sweep examples/sweep_scenarios.toml --format csv \
    --progress --trace-out "$OUT/events.jsonl" \
    --metrics-out "$OUT/metrics.json" \
    > "$OUT/telemetered.csv" 2> "$OUT/progress.err"
diff "$OUT/plain.csv" "$OUT/telemetered.csv"
grep -q 'cells' "$OUT/progress.err"
python3 - "$OUT" <<'EOF'
import json, sys
out = sys.argv[1]
events = [json.loads(l) for l in open(f"{out}/events.jsonl")]
by_cell = {}
for ev in events:
    by_cell.setdefault(ev["cell"], []).append(ev["ev"])
assert len(by_cell) == 16, sorted(by_cell)
for cell, tags in by_cell.items():
    assert tags[0] == "cell_start" and tags[-1] == "cell_finish", (cell, tags)
snap = json.load(open(f"{out}/metrics.json"))
assert snap["counters"]["sweep.cells_total"] == 16
assert len(snap["cells"]) == 16
for cell in snap["cells"]:
    assert cell["counters"]["factor_numeric"] >= 1, cell
assert "thermal.factor_numeric_us" in snap["histograms"]
# Run-level solver totals are share-deduplicated: the 16-cell
# scenario matrix resolves to 4 thermal models (2 stack orders
# x 2 TSV variants; sensors and policies never change the RC
# network), each built and analyzed exactly once, and adopted
# factors + computed factors account for every cell's ensured pair.
c = snap["counters"]
assert c["sweep.thermal_models"] == 4, c
assert c["thermal.network_builds"] == 4, c
assert c["thermal.symbolic_analyses"] == 4, c
per_cell = sum(cell["counters"]["factor_numeric"] for cell in snap["cells"])
assert c["sweep.factor_share_hits"] + c["thermal.factor_numeric"] == per_cell, c
print("telemetry guard ok: 16 cells traced, 4 shared thermal models")
EOF
