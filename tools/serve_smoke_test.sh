#!/bin/sh
# End-to-end smoke test for the parapll_serve daemon: generate -> build ->
# serve --watch, then drive it with serve-bench (answered traffic, with
# client trace ids), check the tracing pipeline (trace id echoed into the
# wide-event request log and /debug/requests), check
# the loop-stage histograms and send count on /metrics, watch
# the windowed server.window.* gauges move between /metrics scrapes, force
# explicit shedding against a tiny admission budget, republish the index
# under live load and observe the hot swap, and finally SIGTERM the daemon
# and check the flushed metrics snapshot carries the server.* counters.
# Run by ctest/CI with the CLI binary path as $1. When SMOKE_ARTIFACT_DIR
# is set, the request log / metrics scrapes are copied there
# (CI uploads them as workflow artifacts).
set -eu

CLI="$1"
WORK="$(mktemp -d)"
DAEMON_PID=""
SHED_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null
  [ -n "$SHED_PID" ] && kill "$SHED_PID" 2>/dev/null
  if [ -n "${SMOKE_ARTIFACT_DIR:-}" ]; then
    mkdir -p "$SMOKE_ARTIFACT_DIR"
    for f in requests.jsonl serve_metrics.json \
             metrics_scrape1.txt metrics_scrape2.txt debug_requests.json; do
      [ -e "$WORK/$f" ] && cp "$WORK/$f" "$SMOKE_ARTIFACT_DIR/" || true
    done
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

# A port file is written by `serve` once the socket is bound.
wait_port_file() {
  i=0
  while [ ! -s "$1" ]; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "daemon never wrote $1" >&2; exit 1; }
    sleep 0.1
  done
  cat "$1"
}

# HTTP GET http://127.0.0.1:$1$2 -> file $3.
http_get() {
  python3 -c '
import sys, urllib.request
port, path, out = sys.argv[1:4]
with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=10) as r:
    open(out, "wb").write(r.read())
' "$1" "$2" "$3"
}

# First "name value" sample for a Prometheus metric in a scrape file.
metric_value() {
  awk -v name="$2" '$1 == name {print $2; exit}' "$1"
}

"$CLI" generate --dataset Gnutella --scale 0.03 --seed 7 --out "$WORK/g.txt"
"$CLI" build --graph "$WORK/g.txt" --mode parallel --threads 2 --seed 7 \
  --out "$WORK/g.index"

# --- daemon up + answered traffic ----------------------------------------
# Full observability stack: stats endpoint and wide-event request log
# (keep every OK request, each record carrying its wire trace id).
"$CLI" serve --index "$WORK/g.index" --watch --watch-poll-ms 50 \
  --port-file "$WORK/port" --metrics-json "$WORK/serve_metrics.json" \
  --stats-port 0 --request-log "$WORK/requests.jsonl" \
  --request-log-sample 1 --slo-ms 50 \
  2> "$WORK/daemon.log" &
DAEMON_PID=$!
PORT="$(wait_port_file "$WORK/port")"
i=0
until grep -q 'stats endpoint' "$WORK/daemon.log"; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "stats endpoint never came up" >&2; exit 1; }
  sleep 0.1
done
STATS_PORT="$(sed -n 's#.*http://127.0.0.1:\([0-9]*\)/metrics.*#\1#p' \
  "$WORK/daemon.log")"

# The load generator stamps every request "smoke7-w<conn>-r<k>" and
# verifies the daemon echoes each id on its response.
"$CLI" serve-bench --port "$PORT" --connections 2 --requests 50 \
  --pairs-per-request 8 --trace-prefix smoke7 > "$WORK/bench1.txt"
cat "$WORK/bench1.txt"
ANSWERED="$(awk '/^requests:/ {print $2}' "$WORK/bench1.txt")"
[ "$ANSWERED" -gt 0 ] || { echo "no answered requests" >&2; exit 1; }
grep -q ' 0 errors' "$WORK/bench1.txt"
grep -q '^latency:.*p999' "$WORK/bench1.txt"

# --- one trace id through response, request log and ring -----------------
# serve-bench checked that every response echoed its id; the same
# client-supplied id must appear verbatim in the wide-event request log
# and in the /debug/requests ring.
TRACE="smoke7-w0-r0"
grep -q "\"trace_id\":\"$TRACE\"" "$WORK/requests.jsonl" || {
  echo "trace id $TRACE missing from request log" >&2; exit 1; }
http_get "$STATS_PORT" /debug/requests "$WORK/debug_requests.json"
grep -q "\"trace_id\":\"$TRACE\"" "$WORK/debug_requests.json" || {
  echo "trace id $TRACE missing from /debug/requests" >&2; exit 1; }
# Request-log records carry the coalesced batch's context id, and the
# loop's hold after the batch: encode (answer framed) and flush (send).
grep -q '"batch":"query_batch/' "$WORK/requests.jsonl"
for field in encode_ns flush_ns; do
  grep -q "\"$field\":[0-9]" "$WORK/debug_requests.json" || {
    echo "/debug/requests records carry no $field" >&2; exit 1; }
done

# --- windowed gauges move between scrapes --------------------------------
http_get "$STATS_PORT" /metrics "$WORK/metrics_scrape1.txt"
for name in parapll_server_window_p50_ms parapll_server_window_p99_ms \
            parapll_server_window_qps parapll_server_window_shed_rate \
            parapll_server_window_slo_burn_rate; do
  [ -n "$(metric_value "$WORK/metrics_scrape1.txt" "$name")" ] || {
    echo "windowed gauge $name missing from /metrics" >&2; exit 1; }
done
# The loop explains its own latency: per-cycle stage histograms and the
# send() count, all fed by the load step above.
for name in parapll_server_stage_read_ns_count \
            parapll_server_stage_batch_ns_count \
            parapll_server_stage_encode_ns_count \
            parapll_server_stage_flush_ns_count parapll_server_sends; do
  VALUE="$(metric_value "$WORK/metrics_scrape1.txt" "$name")"
  [ -n "$VALUE" ] && [ "$VALUE" -gt 0 ] || {
    echo "$name missing or zero on /metrics" >&2; exit 1; }
done
# /healthz reports live serving saturation.
http_get "$STATS_PORT" /healthz "$WORK/healthz.json"
grep -q '"serve"' "$WORK/healthz.json"
grep -q '"queue_depth_pairs"' "$WORK/healthz.json"
grep -q '"snapshot_age_seconds"' "$WORK/healthz.json"

# --- overload degrades into explicit SHED responses ----------------------
"$CLI" serve --index "$WORK/g.index" --max-queued-pairs 4 \
  --port-file "$WORK/shed_port" &
SHED_PID=$!
SHED_PORT="$(wait_port_file "$WORK/shed_port")"
"$CLI" serve-bench --port "$SHED_PORT" --connections 1 --requests 20 \
  --pairs-per-request 8 > "$WORK/bench_shed.txt"
cat "$WORK/bench_shed.txt"
SHED="$(awk '/^requests:/ {print $4}' "$WORK/bench_shed.txt")"
[ "$SHED" -eq 20 ] || { echo "expected all 20 requests shed" >&2; exit 1; }
kill "$SHED_PID" && wait "$SHED_PID" || true
SHED_PID=""

# --- hot swap under live load --------------------------------------------
# Republish a different build (new seed -> new manifest) over the watched
# path while a background bench hammers the daemon; the watcher must flip
# the engine without failing a single in-flight query.
"$CLI" serve-bench --port "$PORT" --connections 2 --requests 2000 \
  --pairs-per-request 4 > "$WORK/bench_during_swap.txt" &
LOAD_PID=$!
"$CLI" build --graph "$WORK/g.txt" --mode parallel --threads 2 --seed 8 \
  --out "$WORK/g.index"
wait "$LOAD_PID" || { echo "bench under hot swap failed" >&2; exit 1; }
grep -q ' 0 errors' "$WORK/bench_during_swap.txt"

i=0
until "$CLI" serve-bench --port "$PORT" --connections 1 --requests 1 \
  --pairs-per-request 1 | grep -q ' 1 hot swaps'; do
  i=$((i + 1))
  [ "$i" -le 50 ] || { echo "hot swap never observed" >&2; exit 1; }
  sleep 0.2
done

# --- second scrape: windowed gauges moved with the traffic ---------------
# More than a full 1 s window interval has elapsed (build + 2000-request
# bench), so the windowed rates must differ from the first scrape —
# cumulative gauges would not.
sleep 1.1
http_get "$STATS_PORT" /metrics "$WORK/metrics_scrape2.txt"
QPS1="$(metric_value "$WORK/metrics_scrape1.txt" parapll_server_window_qps)"
QPS2="$(metric_value "$WORK/metrics_scrape2.txt" parapll_server_window_qps)"
[ "$QPS1" != "$QPS2" ] || {
  echo "windowed qps did not move across scrapes ($QPS1)" >&2; exit 1; }

# --- clean shutdown flushes server.* metrics -----------------------------
kill -TERM "$DAEMON_PID"
STATUS=0
wait "$DAEMON_PID" || STATUS=$?
DAEMON_PID=""
# ScopedSignalFlush exits 128+15 after writing the snapshot.
[ "$STATUS" -eq 143 ] || { echo "unexpected exit status $STATUS" >&2; exit 1; }
grep -q '"server.requests":' "$WORK/serve_metrics.json"
grep -q '"server.accepted":' "$WORK/serve_metrics.json"
grep -q '"server.hot_swaps":1' "$WORK/serve_metrics.json"
grep -q '"server.request_latency_ns":' "$WORK/serve_metrics.json"

# --- zero-copy serving: --mmap over the built index -----------------------
# Serve a built index with --mmap, assert the cold-start record (one log
# line carrying path, format version, bytes, and mode), check the storage
# gauges on /metrics, then hot-swap a republish under the watcher.
"$CLI" build --graph "$WORK/g.txt" --mode parallel --threads 2 --seed 7 \
  --out "$WORK/g2.index"
"$CLI" serve --index "$WORK/g2.index" --mmap --watch --watch-poll-ms 50 \
  --port-file "$WORK/mmap_port" --metrics-json "$WORK/mmap_metrics.json" \
  --stats-port 0 2> "$WORK/mmap_daemon.log" &
DAEMON_PID=$!
MMAP_PORT="$(wait_port_file "$WORK/mmap_port")"
i=0
until grep -q 'stats endpoint' "$WORK/mmap_daemon.log"; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "mmap stats endpoint never came up" >&2; exit 1; }
  sleep 0.1
done
MMAP_STATS_PORT="$(sed -n 's#.*http://127.0.0.1:\([0-9]*\)/metrics.*#\1#p' \
  "$WORK/mmap_daemon.log")"

grep -q 'index load: path=.*g2\.index format=v2 bytes=[0-9][0-9]* mode=mmap' \
  "$WORK/mmap_daemon.log" || {
  echo "cold-start index-load record missing from the mmap daemon log" >&2
  exit 1; }

"$CLI" serve-bench --port "$MMAP_PORT" --connections 2 --requests 50 \
  --pairs-per-request 8 > "$WORK/bench_mmap.txt"
cat "$WORK/bench_mmap.txt"
grep -q ' 0 errors' "$WORK/bench_mmap.txt"

http_get "$MMAP_STATS_PORT" /metrics "$WORK/metrics_mmap.txt"
for name in parapll_store_memory_bytes parapll_index_load_seconds; do
  [ -n "$(metric_value "$WORK/metrics_mmap.txt" "$name")" ] || {
    echo "storage gauge $name missing from the mmap /metrics" >&2; exit 1; }
done

# Hot swap stays zero-copy: republish a different build and watch the
# mapped engine flip without an error.
"$CLI" build --graph "$WORK/g.txt" --mode parallel --threads 2 --seed 8 \
  --out "$WORK/g2.index"
i=0
until "$CLI" serve-bench --port "$MMAP_PORT" --connections 1 --requests 1 \
  --pairs-per-request 1 | grep -q ' 1 hot swaps'; do
  i=$((i + 1))
  [ "$i" -le 50 ] || { echo "mmap hot swap never observed" >&2; exit 1; }
  sleep 0.2
done
kill -TERM "$DAEMON_PID"
STATUS=0
wait "$DAEMON_PID" || STATUS=$?
DAEMON_PID=""
[ "$STATUS" -eq 143 ] || {
  echo "unexpected mmap daemon exit status $STATUS" >&2; exit 1; }
grep -q '"index.load_seconds":' "$WORK/mmap_metrics.json"
grep -q '"store.memory_bytes":' "$WORK/mmap_metrics.json"
# Both loads, the first and the hot swap, mapped the file: no heap
# fallback and no heap load.
if grep -q 'falling back to heap\|mode=heap' "$WORK/mmap_daemon.log"; then
  echo "the mmap daemon loaded an index onto the heap" >&2; exit 1
fi
[ "$(grep -c 'index load: .* mode=mmap' "$WORK/mmap_daemon.log")" -ge 2 ]

echo "serve smoke test: OK"
