#!/usr/bin/env bash
# Guard the result cache: the second run of an identical sweep must
# simulate nothing (0 misses, everything served from --cache-dir) and
# render a byte-identical report. The counters line is `cache:` for
# unsharded runs and `cache[K/N]:` for shards — the greps accept both.
set -euo pipefail
BIN="${THERM3D_BIN:-target/release/therm3d}"
OUT="${TMPDIR:-/tmp}/therm3d-ci-cache-guard"
CACHE="$OUT/cache"
rm -rf "$OUT" && mkdir -p "$OUT"

"$BIN" sweep examples/sweep_quick.toml --format csv \
    --cache-dir "$CACHE" --cache-stats > "$OUT/first.out" 2> "$OUT/first.err"
"$BIN" sweep examples/sweep_quick.toml --format csv \
    --cache-dir "$CACHE" --cache-stats > "$OUT/second.out" 2> "$OUT/second.err"
grep -E '^cache(\[[0-9]+/[0-9]+\])?: 0 hits, [1-9][0-9]* misses' "$OUT/first.err"
grep -E '^cache(\[[0-9]+/[0-9]+\])?: [1-9][0-9]* hits, 0 misses, 0 inserted' "$OUT/second.err"
diff "$OUT/first.out" "$OUT/second.out"

# Preflight agrees with what the warm run just observed.
"$BIN" check examples/sweep_quick.toml --cache-dir "$CACHE" > "$OUT/check.out"
grep -E '12 warm, 0 cold' "$OUT/check.out"
echo "sweep cache guard ok"
