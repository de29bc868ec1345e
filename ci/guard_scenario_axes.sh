#!/usr/bin/env bash
# Cache guard over the scenario axes (stack order x TSV variant x
# sensor fidelity): noisy sensor cells must be cacheable too, and
# `cache compact` must keep the warm store warm.
set -euo pipefail
BIN="${THERM3D_BIN:-target/release/therm3d}"
OUT="${TMPDIR:-/tmp}/therm3d-ci-scenario-guard"
CACHE="$OUT/cache"
rm -rf "$OUT" && mkdir -p "$OUT"

"$BIN" sweep examples/sweep_scenarios.toml --format csv \
    --cache-dir "$CACHE" --cache-stats > "$OUT/sfirst.out" 2> "$OUT/sfirst.err"
"$BIN" cache compact --cache-dir "$CACHE"
"$BIN" sweep examples/sweep_scenarios.toml --format csv \
    --cache-dir "$CACHE" --cache-stats > "$OUT/ssecond.out" 2> "$OUT/ssecond.err"
grep '^cache: 0 hits, 16 misses, 16 inserted' "$OUT/sfirst.err"
grep '^cache: 16 hits, 0 misses, 0 inserted' "$OUT/ssecond.err"
diff "$OUT/sfirst.out" "$OUT/ssecond.out"
echo "scenario-axes cache guard ok"
