#!/usr/bin/env bash
# Distribution smoke test: a coordinator and two seep-node workers on
# localhost, a word-frequency job driven end to end, three times.
#
# 1. At the benchmark's rate, nobody killed: the outcome must be
#    byte-identical to the in-process baseline, the data plane must ship
#    batches (fewer than tuples/8 frames — counts, so machine-independent)
#    and the whole cluster, hold included, must be up and down inside a
#    generous 3 s.
# 2. One worker SIGKILLed mid-run: recovery must happen through the standard
#    path (journal event + /metrics counters) and the surviving run's results
#    must be byte-identical to the baseline. Run twice: with two workers,
#    killing the one hosting the stateful operator; with three, killing the
#    one hosting the sink.
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
trap 'kill -9 ${COORD:-} ${W1:-} ${W2:-} ${W3:-} 2>/dev/null || true; rm -rf "$DIR"' EXIT

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
# kill_scenario WORKERS VICTIM OPERATOR: run WORKERS workers (w1..wN; the
# round-robin placement puts feed, count and results on them in that order),
# SIGKILL worker VICTIM after two checkpoints, and require a recovery of
# OPERATOR with results identical to the baseline.
kill_scenario() {
  local workers="$1" victim="$2" operator="$3" run="$DIR/kill-$1"
  mkdir -p "$run"
  "$BIN" --coordinator --workers "$workers" --rounds "$ROUNDS" --rate "$RATE" \
    --round-delay-ms 150 --port-file "$run/port" --out "$run/dist.txt" \
    --metrics-addr 127.0.0.1:0 --metrics-port-file "$run/mport" \
    --journal "$run/journal.jsonl" --hold-ms 2000 >/dev/null &
  COORD=$!

  for _ in $(seq 1 100); do [ -s "$run/port" ] && break; sleep 0.1; done
  local addr pids=() victim_pid
  addr="$(cat "$run/port")"
  echo "dist_smoke: coordinator at $addr ($workers workers)"
  for i in $(seq 1 "$workers"); do
    "$BIN" --worker --name "w$i" --coordinator-addr "$addr" >/dev/null &
    pids+=("$!")
    [ "w$i" = "$victim" ] && victim_pid=$!
  done
  W1="${pids[0]}" W2="${pids[1]}" W3="${pids[2]:-}"

  for _ in $(seq 1 100); do [ -s "$run/mport" ] && break; sleep 0.1; done
  local maddr body=""
  maddr="$(cat "$run/mport")"

  # Wait for at least two checkpoints, then SIGKILL the victim.
  for _ in $(seq 1 300); do
    if body="$(scrape "$maddr" 2>/dev/null)" \
       && metric_at_least "$body" seep_checkpoints_total 2; then
      break
    fi
    sleep 0.2
  done
  metric_at_least "$body" seep_checkpoints_total 2 \
    || { echo "dist_smoke: no checkpoints observed" >&2; exit 1; }

  echo "dist_smoke: SIGKILLing worker $victim (pid $victim_pid), which hosts $operator"
  kill -9 "$victim_pid"
  wait "$victim_pid" 2>/dev/null || true

  # The failure must surface as a recovery on /metrics.
  local recovered=0
  for _ in $(seq 1 300); do
    if body="$(scrape "$maddr" 2>/dev/null)" \
       && metric_at_least "$body" seep_recoveries_total 1; then
      recovered=1
      break
    fi
    sleep 0.2
  done
  [ "$recovered" = 1 ] || { echo "dist_smoke: recovery never surfaced on /metrics" >&2; exit 1; }
  echo "$body" | grep -q '^seep_transport_bytes_total' \
    || { echo "dist_smoke: transport counters missing from /metrics" >&2; exit 1; }

  wait "$COORD" || { echo "dist_smoke: coordinator failed" >&2; exit 1; }
  for pid in "${pids[@]}"; do
    [ "$pid" = "$victim_pid" ] && continue
    wait "$pid" || { echo "dist_smoke: surviving worker failed" >&2; exit 1; }
  done

  grep -q "\"kind\":\"Recovery\".*\"operator\":\"$operator\"" "$run/journal.jsonl" \
    || { echo "dist_smoke: no Recovery event for $operator in journal" >&2; exit 1; }

  # Results must match a run that never lost a worker. Processed counters
  # reset when an instance is replaced, so only `result` lines are compared.
  "$BIN" --baseline --rounds "$ROUNDS" --rate "$RATE" --out "$run/base.txt" >/dev/null
  grep '^result ' "$run/dist.txt" > "$run/dist-results.txt"
  grep '^result ' "$run/base.txt" > "$run/base-results.txt"
  diff -u "$run/base-results.txt" "$run/dist-results.txt" \
    || { echo "dist_smoke: post-recovery results differ from baseline" >&2; exit 1; }

  echo "dist_smoke: OK ($(wc -l < "$run/dist-results.txt") result lines identical after kill -9 of $victim)"
}

kill_scenario 2 w2 count
kill_scenario 3 w3 results
