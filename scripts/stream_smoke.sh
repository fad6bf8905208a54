#!/usr/bin/env bash
# stream_smoke.sh — curl-level NDJSON smoke test against a live bvqd.
#
# Boots the daemon on the bundled example graph, streams a two-hop query,
# and checks the wire format end to end: the application/x-ndjson content
# type, the header line, one line per answer tuple, the trailer line, the
# full-count contract under limit/offset windowing (count is the FULL
# cardinality, the window only selects which rows are sent, and a limit
# stream's header already carries it), the cached re-serve of a stored
# stream, what only a connection loop handles (a 100-continue body, an
# HTTP/1.0 request, a HEAD without a body, keep-alive across two queries) and
# the bvqd_streams_total metric. The streams name no engine, so
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

# What only a server's connection loop handles. A > 1 KiB body sent only
# after the server's 100 Continue:
pad=$(printf '%*s' 2048 '')
creq="{\"database\":\"graph\",$pad\"query\":\"(x, y). exists z. E(x, z) & E(z, y)\"}"
curl -fsS -v -H 'Content-Type: application/json' -H 'Expect: 100-continue' -d "$creq" "$BASE/query" \
	>"$TMP/continue.json" 2>"$TMP/continue.log" || fail "100-continue request failed"
grep -q '< HTTP/1.1 100 Continue' "$TMP/continue.log" || fail "no 100 Continue before the body"
grep -q "\"count\":$full," "$TMP/continue.json" || fail "100-continue answer: $(cat "$TMP/continue.json")"
# An HTTP/1.0 request: the answer is delimited by its length or the close.
curl -fsS -0 -H 'Content-Type: application/json' -d "$req" "$BASE/query" >"$TMP/http10.ndjson" ||
	fail "HTTP/1.0 request failed"
cmp -s "$TMP/http10.ndjson" "$TMP/full.ndjson" ||
	[ "$(sed -n '2,$p' "$TMP/http10.ndjson" | sed '$d')" = "$(sed -n '2,$p' "$TMP/full.ndjson" | sed '$d')" ] ||
	fail "HTTP/1.0 stream rows differ from the HTTP/1.1 ones"
# HEAD on /healthz: a head and no body (the raw bytes end at the blank line).
curl -fsS -I "$BASE/healthz" | head -1 | grep -q '^HTTP/1.1 200' || fail "curl -I /healthz is not a 200"
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf 'HEAD /healthz HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n' >&3
head_bytes=$(od -An -c <&3 | tr -d ' \n')
exec 3<&-
case "$head_bytes" in
*'\r\n\r\n') ;;
*) fail "HEAD /healthz sent bytes after its head: $head_bytes" ;;
esac
# Keep-alive: the second of two queries in one curl call opens no connection.
conns=$(curl -fsS -o /dev/null -o /dev/null -w '%{num_connects}\n' -H 'Content-Type: application/json' \
	-d "$req" "$BASE/query" "$BASE/query" | tr '\n' ' ')
[ "$conns" = "1 0 " ] || fail "connections opened per query: $conns, want 1 then 0"

# Into a file first: grep -q leaving early would fail curl under pipefail.
curl -fsS "$BASE/metrics" >"$TMP/metrics.txt"
grep -q '^bvqd_streams_total' "$TMP/metrics.txt" || fail "bvqd_streams_total missing from /metrics"

echo "stream smoke: ok ($rows rows, full count $full, windowed count matches, limit header counts, metrics exposed, 100-continue, HTTP/1.0, HEAD and keep-alive served)"
