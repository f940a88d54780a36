#!/usr/bin/env bash
# Distribution smoke test: a coordinator and two seep-node workers on
# localhost, a word-frequency job driven end to end, twice.
#
# 1. At the benchmark's rate, nobody killed: the outcome must be
#    byte-identical to the in-process baseline, the data plane must ship
#    batches (fewer than tuples/8 frames — counts, so machine-independent)
#    and the whole cluster, hold included, must be up and down inside a
#    generous 3 s.
# 2. One worker SIGKILLed mid-run: recovery must happen through the standard
#    path (journal event + /metrics counters) and the surviving run's results
#    must be byte-identical to the baseline.
#
# Usage: scripts/dist_smoke.sh [path-to-seep-node-binary]
set -euo pipefail

# Without an explicit binary the release build is brought up to date first
# (a no-op when it is): `cargo test` only builds debug, and a stale release
# binary would test yesterday's protocol.
BIN="${1:-}"
if [ -z "$BIN" ]; then
  BIN=target/release/seep-node
  cargo build --release -p seep-node >&2
fi

DIR="$(mktemp -d)"
trap 'kill -9 ${COORD:-} ${W1:-} ${W2:-} 2>/dev/null || true; rm -rf "$DIR"' EXIT

ROUNDS=20
RATE=20

# Raw-TCP /metrics scrape; CI runners may lack curl but bash has /dev/tcp.
scrape() {
  local host="${1%:*}" port="${1#*:}"
  exec 3<>"/dev/tcp/$host/$port" || return 1
  printf 'GET /metrics HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n' >&3
  cat <&3
  exec 3<&-
}

metric_at_least() {
  local body="$1" name="$2" threshold="$3"
  echo "$body" | awk -v n="$name" -v t="$threshold" \
    'index($1, n) == 1 && $NF + 0 >= t { found = 1 } END { exit !found }'
}

family_sum() {
  echo "$1" | awk -v n="$2" \
    'index($1, n "{") == 1 || $1 == n { sum += $NF } END { printf "%d", sum }'
}

# --- 1. The benchmark's shape, un-killed -----------------------------------
FAST_ROUNDS=5
FAST_RATE=10000
STARTED_NS="$(date +%s%N)"
"$BIN" --coordinator --workers 2 --rounds "$FAST_ROUNDS" --rate "$FAST_RATE" \
  --port-file "$DIR/fast-port" --out "$DIR/fast.txt" \
  --metrics-addr 127.0.0.1:0 --metrics-port-file "$DIR/fast-mport" \
  --hold-ms 500 >/dev/null &
COORD=$!
for _ in $(seq 1 1000); do [ -s "$DIR/fast-port" ] && break; sleep 0.01; done
ADDR="$(cat "$DIR/fast-port")"
"$BIN" --worker --name w1 --coordinator-addr "$ADDR" >/dev/null & W1=$!
"$BIN" --worker --name w2 --coordinator-addr "$ADDR" >/dev/null & W2=$!
for _ in $(seq 1 1000); do [ -s "$DIR/fast.txt" ] && break; sleep 0.01; done
[ -s "$DIR/fast.txt" ] || { echo "dist_smoke: fast run wrote no outcome" >&2; exit 1; }
# Nothing moves after the last capture: any snapshot from here on holds the
# final transport counters.
BODY="$(scrape "$(cat "$DIR/fast-mport")")"
wait "$COORD" || { echo "dist_smoke: fast run: coordinator failed" >&2; exit 1; }
wait "$W1" || { echo "dist_smoke: fast run: w1 exited uncleanly" >&2; exit 1; }
wait "$W2" || { echo "dist_smoke: fast run: w2 exited uncleanly" >&2; exit 1; }
WALL_MS=$(( ($(date +%s%N) - STARTED_NS) / 1000000 ))

"$BIN" --baseline --rounds "$FAST_ROUNDS" --rate "$FAST_RATE" --out "$DIR/fast-base.txt" >/dev/null
diff -u "$DIR/fast-base.txt" "$DIR/fast.txt" \
  || { echo "dist_smoke: fast run differs from baseline" >&2; exit 1; }
FRAMES="$(family_sum "$BODY" seep_transport_frames_total)"
TUPLES="$(family_sum "$BODY" seep_transport_tuples_total)"
[ "$TUPLES" -ge $(( 2 * FAST_ROUNDS * FAST_RATE )) ] \
  || { echo "dist_smoke: only $TUPLES tuples on the transport counters" >&2; exit 1; }
[ $(( FRAMES * 8 )) -lt "$TUPLES" ] \
  || { echo "dist_smoke: $FRAMES frames for $TUPLES tuples: not batching" >&2; exit 1; }
[ "$WALL_MS" -lt 3000 ] \
  || { echo "dist_smoke: fast run took $WALL_MS ms (limit 3000)" >&2; exit 1; }
echo "dist_smoke: fast run OK ($TUPLES tuples in $FRAMES frames, $WALL_MS ms wall, identical to baseline)"

# --- 2. kill -9 mid-run ----------------------------------------------------
"$BIN" --coordinator --workers 2 --rounds "$ROUNDS" --rate "$RATE" \
  --round-delay-ms 150 --port-file "$DIR/port" --out "$DIR/dist.txt" \
  --metrics-addr 127.0.0.1:0 --metrics-port-file "$DIR/mport" \
  --journal "$DIR/journal.jsonl" --hold-ms 2000 >/dev/null &
COORD=$!

for _ in $(seq 1 100); do [ -s "$DIR/port" ] && break; sleep 0.1; done
ADDR="$(cat "$DIR/port")"
echo "dist_smoke: coordinator at $ADDR"

"$BIN" --worker --name w1 --coordinator-addr "$ADDR" >/dev/null & W1=$!
"$BIN" --worker --name w2 --coordinator-addr "$ADDR" >/dev/null & W2=$!

for _ in $(seq 1 100); do [ -s "$DIR/mport" ] && break; sleep 0.1; done
MADDR="$(cat "$DIR/mport")"

# Wait for at least two checkpoints, then SIGKILL the worker hosting the
# stateful operator (w2 under the deterministic round-robin placement).
for _ in $(seq 1 300); do
  if BODY="$(scrape "$MADDR" 2>/dev/null)" \
     && metric_at_least "$BODY" seep_checkpoints_total 2; then
    break
  fi
  sleep 0.2
done
metric_at_least "$BODY" seep_checkpoints_total 2 \
  || { echo "dist_smoke: no checkpoints observed" >&2; exit 1; }

echo "dist_smoke: SIGKILLing worker w2 (pid $W2)"
kill -9 "$W2"

# The failure must surface as a recovery on /metrics.
RECOVERED=0
for _ in $(seq 1 300); do
  if BODY="$(scrape "$MADDR" 2>/dev/null)" \
     && metric_at_least "$BODY" seep_recoveries_total 1; then
    RECOVERED=1
    break
  fi
  sleep 0.2
done
[ "$RECOVERED" = 1 ] || { echo "dist_smoke: recovery never surfaced on /metrics" >&2; exit 1; }
echo "$BODY" | grep -q '^seep_transport_bytes_total' \
  || { echo "dist_smoke: transport counters missing from /metrics" >&2; exit 1; }

wait "$COORD" || { echo "dist_smoke: coordinator failed" >&2; exit 1; }
wait "$W1" || { echo "dist_smoke: surviving worker failed" >&2; exit 1; }

grep -q '"kind":"Recovery"' "$DIR/journal.jsonl" \
  || { echo "dist_smoke: no Recovery event in journal" >&2; exit 1; }

# Results must match a run that never lost a worker. Processed counters
# reset when an instance is replaced, so only `result` lines are compared.
"$BIN" --baseline --rounds "$ROUNDS" --rate "$RATE" --out "$DIR/base.txt" >/dev/null
grep '^result ' "$DIR/dist.txt" > "$DIR/dist-results.txt"
grep '^result ' "$DIR/base.txt" > "$DIR/base-results.txt"
diff -u "$DIR/base-results.txt" "$DIR/dist-results.txt" \
  || { echo "dist_smoke: post-recovery results differ from baseline" >&2; exit 1; }

echo "dist_smoke: OK ($(wc -l < "$DIR/dist-results.txt") result lines identical after kill -9)"
