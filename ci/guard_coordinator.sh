#!/usr/bin/env bash
# Guard the campaign service end-to-end: a coordinator on loopback with
# three throttled workers — one of which is SIGKILLed mid-campaign —
# must re-issue the dead worker's lease, finish all 16 scenario cells,
# and write the byte-identical CSV of a single-process run. The
# coordinator owns the one cache, so a warm re-run afterwards serves
# every cell with 0 misses, and a second `serve` over that cache
# completes with no workers and appends nothing.
set -euo pipefail
BIN="${THERM3D_BIN:-target/release/therm3d}"
OUT="${TMPDIR:-/tmp}/therm3d-ci-coord"
rm -rf "$OUT" && mkdir -p "$OUT"

"$BIN" sweep examples/sweep_scenarios.toml --format csv > "$OUT/single.csv"

# --listen :0 picks a free port; --port-file publishes it. The lease
# timeout is far beyond the guard's runtime so only the EOF-abandon
# path (connection death) can re-issue — which is exactly what the
# SIGKILL below must trigger.
"$BIN" serve examples/sweep_scenarios.toml --listen 127.0.0.1:0 \
    --port-file "$OUT/port" --lease 2 --lease-timeout 60 \
    --cache-dir "$OUT/cache" --format csv \
    > "$OUT/served.csv" 2> "$OUT/serve.err" &
SERVE=$!
for _ in $(seq 1 100); do
  [ -s "$OUT/port" ] && break
  sleep 0.1
done
[ -s "$OUT/port" ] || { echo "coordinator never published its port" >&2; exit 1; }
ADDR="$(cat "$OUT/port")"

# A throttled worker sleeps 800 ms between the two cells of each lease,
# so it holds a live lease almost its entire runtime (the leaseless
# window between batch-ack and next grant is sub-millisecond) and the
# whole campaign needs well over 2 s of wall clock — the kill below at
# 1.5 s is guaranteed to land mid-campaign, on a lease holder.
"$BIN" work --connect "$ADDR" --throttle-ms 800 2> "$OUT/w1.err" & W1=$!
"$BIN" work --connect "$ADDR" --throttle-ms 800 2> "$OUT/w2.err" & W2=$!
"$BIN" work --connect "$ADDR" --throttle-ms 800 2> "$OUT/w3.err" & W3=$!
sleep 1.5
kill -9 "$W2"
wait "$W2" 2>/dev/null || true

wait "$SERVE"
# One pid per `wait`: `wait A B` returns only B's status, so a W1 reset
# before it collected its Drain would pass unnoticed.
wait "$W1"
wait "$W3"
grep -F 're-issued' "$OUT/serve.err"
grep -F 'campaign complete' "$OUT/serve.err"
diff "$OUT/single.csv" "$OUT/served.csv"

# The coordinator writes every result into its cache once the campaign
# completes: a plain warm sweep over the same dir must simulate nothing.
"$BIN" sweep examples/sweep_scenarios.toml --format csv \
    --cache-dir "$OUT/cache" --cache-stats \
    > "$OUT/warm.csv" 2> "$OUT/warm.err"
grep -E '^cache: 16 hits, 0 misses, 0 inserted' "$OUT/warm.err"
diff "$OUT/single.csv" "$OUT/warm.csv"

# A second coordinator over the same cache answers every cell itself:
# it completes without a single worker connecting and leaves the
# store's line count unchanged.
LINES="$(wc -l < "$OUT/cache/results.tsv")"
"$BIN" serve examples/sweep_scenarios.toml --listen 127.0.0.1:0 \
    --cache-dir "$OUT/cache" --format csv \
    > "$OUT/warm-served.csv" 2> "$OUT/warm-serve.err"
grep -F '(16 from the cache)' "$OUT/warm-serve.err"
grep -F 'from 0 worker(s)' "$OUT/warm-serve.err"
diff "$OUT/single.csv" "$OUT/warm-served.csv"
test "$(wc -l < "$OUT/cache/results.tsv")" = "$LINES"
echo "coordinator guard ok: lease re-issued after worker death, CSV byte-identical"
