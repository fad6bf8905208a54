#!/usr/bin/env bash
# stream_smoke.sh — curl-level NDJSON smoke test against a live bvqd.
#
# Boots the daemon on the bundled example graph, streams a two-hop query,
# and checks the wire format end to end: the application/x-ndjson content
# type, the header line, one line per answer tuple, the trailer line, the
# full-count contract under limit/offset windowing (count is the FULL
# cardinality, the window only selects which rows are sent, and a limit
# stream's header already carries it), the cached re-serve of a stored
# stream, and the bvqd_streams_total metric. The streams name no engine, so
# they run on bvqd's default — the compiled engine, what serving uses.
#
# `make smoke-stream` runs this; `make check` runs it as part of the gate.
set -euo pipefail

PORT="${BVQD_SMOKE_PORT:-18321}"
BASE="http://127.0.0.1:$PORT"
DIR="$(cd "$(dirname "$0")/.." && pwd)"
TMP="$(mktemp -d)"
PID=""
trap '[ -n "$PID" ] && kill "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

fail() {
	echo "stream smoke: $*" >&2
	exit 1
}

go build -o "$TMP/bvqd" "$DIR/cmd/bvqd"
"$TMP/bvqd" -addr "127.0.0.1:$PORT" -db graph="$DIR/examples/data/graph.db" \
	>"$TMP/bvqd.log" 2>&1 &
PID=$!

for _ in $(seq 1 100); do
	curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
	kill -0 "$PID" 2>/dev/null || { cat "$TMP/bvqd.log" >&2; fail "bvqd exited during startup"; }
	sleep 0.1
done
curl -fsS "$BASE/healthz" >/dev/null || fail "bvqd never became healthy"

# Full stream: header, one row per tuple, trailer whose count equals the rows.
req='{"database":"graph","query":"(x, y). exists z. E(x, z) & E(z, y)","stream":true}'
ctype=$(curl -fsS -o "$TMP/full.ndjson" -w '%{content_type}' \
	-H 'Content-Type: application/json' -d "$req" "$BASE/query")
case "$ctype" in
application/x-ndjson*) ;;
*) fail "content type $ctype, want application/x-ndjson" ;;
esac
head -1 "$TMP/full.ndjson" | grep -q '"request_id"' || fail "first line is not a stream header"
tail -1 "$TMP/full.ndjson" | grep -q '"trailer":true' || fail "last line is not a stream trailer"
lines=$(wc -l <"$TMP/full.ndjson")
rows=$((lines - 2))
[ "$rows" -ge 1 ] || fail "no answer rows in the stream"
full=$(tail -1 "$TMP/full.ndjson" | sed 's/.*"count"://; s/[,}].*//')
[ "$rows" -eq "$full" ] || fail "$rows rows but trailer count $full"

# Windowed stream: limit=1 offset=1 sends exactly one row, reports the
# window in streamed/skipped, keeps count at the FULL cardinality, and —
# because the first stream ran to exhaustion — serves from the result cache.
wreq='{"database":"graph","query":"(x, y). exists z. E(x, z) & E(z, y)","stream":true,"limit":1,"offset":1}'
curl -fsS -H 'Content-Type: application/json' -d "$wreq" "$BASE/query" >"$TMP/win.ndjson"
wlines=$(wc -l <"$TMP/win.ndjson")
[ "$wlines" -eq 3 ] || fail "windowed stream has $wlines lines, want header+row+trailer"
head -1 "$TMP/win.ndjson" | grep -q '"result_cached":true' || fail "windowed stream not served from the result cache"
tail -1 "$TMP/win.ndjson" | grep -q '"streamed":1' || fail "windowed trailer streamed != 1"
tail -1 "$TMP/win.ndjson" | grep -q '"skipped":1' || fail "windowed trailer skipped != 1"
wfull=$(tail -1 "$TMP/win.ndjson" | sed 's/.*"count"://; s/[,}].*//')
[ "$wfull" -eq "$full" ] || fail "windowed count $wfull, want full cardinality $full"

# A limit stream of a fresh sparse-backend run: every evaluation ends in a
# head value that counts, so the header carries the full count before row 1.
lreq='{"database":"graph","query":"(x, y). exists z. E(x, z) & E(z, y)","engine":"compiled","backend":"sparse","stream":true,"limit":1,"no_cache":true}'
curl -fsS -H 'Content-Type: application/json' -d "$lreq" "$BASE/query" >"$TMP/lim.ndjson"
head -1 "$TMP/lim.ndjson" | grep -q '"result_cached":false' || fail "no_cache limit stream served from the result cache"
head -1 "$TMP/lim.ndjson" | grep -q "\"count\":$full," || fail "limit stream header lacks the full count $full: $(head -1 "$TMP/lim.ndjson")"

# Into a file first: grep -q leaving early would fail curl under pipefail.
curl -fsS "$BASE/metrics" >"$TMP/metrics.txt"
grep -q '^bvqd_streams_total' "$TMP/metrics.txt" || fail "bvqd_streams_total missing from /metrics"

echo "stream smoke: ok ($rows rows, full count $full, windowed count matches, limit header counts, metrics exposed)"
