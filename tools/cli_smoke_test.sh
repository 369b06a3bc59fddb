#!/bin/sh
# End-to-end smoke test for parapll_cli: generate -> build (parallel and
# cluster) -> stats -> query -> verify. Run by ctest with the binary path
# as $1; uses a private temp directory and fails on any nonzero step.
set -eu

CLI="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$CLI" generate --dataset Gnutella --scale 0.03 --seed 7 --out "$WORK/g.txt"

"$CLI" build --graph "$WORK/g.txt" --mode parallel --threads 4 \
  --out "$WORK/g.index"
"$CLI" build --graph "$WORK/g.txt" --mode cluster --nodes 3 --sync 8 \
  --out "$WORK/cluster.index"

# Every mode writes the one index container, index format v2.
[ "$(head -c 8 "$WORK/g.index")" = PLLIdxV2 ]
[ "$(head -c 8 "$WORK/cluster.index")" = PLLIdxV2 ]

"$CLI" stats --index "$WORK/g.index"
"$CLI" stats --index "$WORK/cluster.index" | grep -q '"mode":"cluster"'

"$CLI" query --index "$WORK/g.index" --s 0 --t 5 | grep -q '^d(0, 5) = '
printf '1 2\n3 4\n' | "$CLI" query --index "$WORK/cluster.index" \
  | grep -c '^d(' | grep -qx 2

"$CLI" verify --index "$WORK/g.index" --graph "$WORK/g.txt" --pairs 400
"$CLI" verify --index "$WORK/cluster.index" --graph "$WORK/g.txt" \
  --pairs 400

# The container flags of earlier releases are gone: each is refused as
# an unknown flag before anything is built or written.
if "$CLI" build --graph "$WORK/g.txt" --compact --out "$WORK/old.index" \
  2> "$WORK/flag.log"; then
  exit 1
fi
grep -q 'unknown flag --compact' "$WORK/flag.log"
if "$CLI" build --graph "$WORK/g.txt" --index-format 2 \
  --out "$WORK/old.index" 2> "$WORK/flag.log"; then
  exit 1
fi
grep -q 'unknown flag --index-format' "$WORK/flag.log"
[ ! -e "$WORK/old.index" ]

# Vertex order: the default is BuildPlan's (path-degree), --ordering
# degree pins the paper's sequence; the manifest names the order used and
# both indexes answer exactly. An unknown order is refused before building.
"$CLI" stats --index "$WORK/g.index" | grep -q '"ordering":"path-degree"'
"$CLI" build --graph "$WORK/g.txt" --mode parallel --threads 4 \
  --ordering degree --out "$WORK/degree.index"
"$CLI" stats --index "$WORK/degree.index" | grep -q '"ordering":"degree"'
"$CLI" verify --index "$WORK/degree.index" --graph "$WORK/g.txt" --pairs 400
if "$CLI" build --graph "$WORK/g.txt" --ordering centrality \
  --out "$WORK/unknown.index" 2> "$WORK/ordering.log"; then
  exit 1
fi
grep -q 'unknown --ordering centrality' "$WORK/ordering.log"
[ ! -e "$WORK/unknown.index" ]

# Index files are replaced, never rewritten in place, so a process that
# has the old file mapped (serve --mmap) keeps reading consistent bytes:
# building over an existing file gives it a new inode and leaves no temp
# file behind.
inode() { ls -i "$1" | awk '{print $1}'; }
old="$(inode "$WORK/g.index")"
"$CLI" build --graph "$WORK/g.txt" --mode parallel --threads 4 \
  --out "$WORK/g.index"
[ "$(inode "$WORK/g.index")" != "$old" ]
"$CLI" verify --index "$WORK/g.index" --graph "$WORK/g.txt" --pairs 100
[ -z "$(find "$WORK" -name '*.tmp')" ]
# query-bench reads the index once: under --backend mmap both passes
# answer from the mapping, with no heap load beside it.
"$CLI" query-bench --index "$WORK/g.index" --pairs 200 --backend mmap \
  2> "$WORK/qb.log"
[ "$(grep -c 'index load:' "$WORK/qb.log")" -eq 1 ]
grep -q 'mode=mmap' "$WORK/qb.log"
# A pair naming no vertex of the index is refused with an error.
printf '0 1\n1 99999999\n' > "$WORK/bad.pairs"
if "$CLI" query-bench --index "$WORK/g.index" --pair-file "$WORK/bad.pairs" \
  --backend mmap 2> "$WORK/bad.log"; then
  exit 1
fi
grep -q 'out of range' "$WORK/bad.log"

# Checkpoint -> resume round trip: a halted build must leave a resumable
# checkpoint, and the resumed build must produce a complete index that
# verifies against Dijkstra (query equality, not entry-count equality).
"$CLI" build --graph "$WORK/g.txt" --mode parallel --threads 4 \
  --halt-after 40 --checkpoint-dir "$WORK/ckpt" --checkpoint-every 10 \
  --out "$WORK/partial.index" | grep -q '^halted after '
"$CLI" stats --index "$WORK/partial.index" | grep -q '"complete":false'
"$CLI" build --graph "$WORK/g.txt" --mode parallel --threads 4 \
  --resume "$WORK/ckpt" --out "$WORK/resumed.index"
"$CLI" stats --index "$WORK/resumed.index" | grep -q '"complete":true'
"$CLI" verify --index "$WORK/resumed.index" --graph "$WORK/g.txt" \
  --pairs 400

# ^C on a checkpointing build: once its first snapshot is on disk, SIGINT
# must halt it at a checkpoint, flush the metrics and profile once, exit
# 130 and never publish the partial index to --out. The checkpoint then
# resumes to a complete index. (A background job of a non-interactive
# shell starts with SIGINT ignored; the CLI installs its own handler.)
"$CLI" generate --dataset HI-USA --scale 0.15 --seed 7 --out "$WORK/road.txt"
"$CLI" build --graph "$WORK/road.txt" --mode serial \
  --checkpoint-dir "$WORK/sigckpt" --checkpoint-every 200 \
  --metrics-json "$WORK/sig_metrics.json" --profile "$WORK/sig.collapsed" \
  --out "$WORK/sig.index" > "$WORK/sig.out" 2> "$WORK/sig.err" &
pid=$!
waited=0
while [ ! -e "$WORK/sigckpt/checkpoint.bin" ]; do
  waited=$((waited + 1))
  [ "$waited" -lt 3000 ]  # give up after ~30 s without a first snapshot
  sleep 0.01
done
kill -INT "$pid"
status=0
wait "$pid" || status=$?
[ "$status" -eq 130 ]
[ ! -e "$WORK/sig.index" ]
[ ! -e "$WORK/sig.index.tmp" ]
[ ! -s "$WORK/sig.out" ]
[ "$(grep -c '^metrics snapshot -> ' "$WORK/sig.err")" -eq 1 ]
[ "$(grep -c '^profile (' "$WORK/sig.err")" -eq 1 ]
grep -q '"build.checkpoint.snapshots":' "$WORK/sig_metrics.json"
[ -e "$WORK/sig.collapsed" ]
"$CLI" stats --index "$WORK/sigckpt/checkpoint.bin" \
  | grep -q '"complete":false'
"$CLI" build --graph "$WORK/road.txt" --mode parallel --threads 4 \
  --resume "$WORK/sigckpt" --out "$WORK/sig_resumed.index"
"$CLI" stats --index "$WORK/sig_resumed.index" | grep -q '"complete":true'
"$CLI" verify --index "$WORK/sig_resumed.index" --graph "$WORK/road.txt" \
  --pairs 400

# Telemetry: a fast-sampling build must leave >= 2 JSONL samples carrying
# process stats and the registry (the periodic loop plus the final one).
# Larger graph so the build outlasts a few 1ms sampling periods.
"$CLI" generate --dataset Gnutella --scale 0.2 --seed 7 --out "$WORK/big.txt"
"$CLI" build --graph "$WORK/big.txt" --mode parallel --threads 2 \
  --out "$WORK/g2.index" \
  --telemetry-jsonl "$WORK/telemetry.jsonl" --telemetry-period-ms 1 \
  --profile "$WORK/build.collapsed" --profile-hz 1000 \
  --metrics-json "$WORK/build_metrics.json"
[ "$(wc -l < "$WORK/telemetry.jsonl")" -ge 2 ]
grep -q '"rss_bytes":' "$WORK/telemetry.jsonl"
grep -q '"counters":' "$WORK/telemetry.jsonl"
grep -q '"store.memory_bytes":' "$WORK/telemetry.jsonl"

# Profiler smoke: a dense-rate capture over the big parallel build must
# leave non-empty collapsed stacks ("frame;frame;... count" lines) and
# publish profile.* attribution metrics into the metrics snapshot.
[ -s "$WORK/build.collapsed" ]
grep -q ' [0-9][0-9]*$' "$WORK/build.collapsed"
grep -q '"profile.samples":' "$WORK/build_metrics.json"
grep -q '"profile.hot.0.kind":2' "$WORK/build_metrics.json"

echo "cli smoke test: OK"
