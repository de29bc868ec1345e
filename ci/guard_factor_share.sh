#!/usr/bin/env bash
# Guard cross-cell factor sharing: the 6-cell single-model spec
# (policies and DPM never touch the RC network) must resolve to exactly
# ONE thermal model — one network build, one symbolic analysis and one
# factor set for the whole campaign — and `check` must preflight the
# same count without simulating.
set -euo pipefail
BIN="${THERM3D_BIN:-target/release/therm3d}"
OUT="${TMPDIR:-/tmp}/therm3d-ci-share"
rm -rf "$OUT" && mkdir -p "$OUT"

"$BIN" check examples/sweep_shared_model.toml > "$OUT/check.out"
grep -F 'thermal models: 1 distinct across 6 cell(s)' "$OUT/check.out"
"$BIN" sweep examples/sweep_shared_model.toml --format csv \
    --metrics-out "$OUT/metrics.json" > "$OUT/report.csv"
python3 - "$OUT" <<'EOF'
import json, sys
c = json.load(open(f"{sys.argv[1]}/metrics.json"))["counters"]
assert c["sweep.thermal_models"] == 1, c
assert c["thermal.network_builds"] == 1, c
assert c["thermal.symbolic_analyses"] == 1, c
assert c["sweep.factor_share_hits"] >= 5, c
print("factor-share guard ok: 6 cells, 1 model, 1 network, 1 analysis")
EOF
