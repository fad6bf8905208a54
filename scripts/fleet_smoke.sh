#!/usr/bin/env bash
# fleet_smoke.sh — end-to-end smoke test of a bvqrouter fleet.
#
# Boots three bvqd replicas on the bundled example graph behind one
# bvqrouter and checks the fleet contract end to end:
#
#   1. routed answers are byte-identical to a direct replica's, for both
#      JSON bodies and NDJSON stream rows (request_id/elapsed_ms excluded —
#      they legitimately differ per request);
#   2. a short bvqload run through the router completes with non-zero
#      routed queries and zero 5xx responses, and drives update fan-out
#      (churn) plus streamed queries;
#   3. a capacity point for EXPERIMENTS.md: qps/p50/p99 closed-loop
#      against one direct replica vs the routed 3-replica fleet;
#   4. killing the replica that owns the dominant query mid-load yields
#      health-probe eviction, ring rebalance and transparent retries —
#      zero client-visible 5xx.
#
# bvqload names no engine, so every load here — the capacity table included —
# runs on bvqd's default, the compiled engine: the numbers are serving's.
#
# `make fleet-smoke` runs this, and so does `make check` (the CI gate).
set -euo pipefail

BASE_PORT="${BVQ_FLEET_PORT:-18400}"
DIR="$(cd "$(dirname "$0")/.." && pwd)"
TMP="$(mktemp -d)"
PIDS=()
trap 'for p in "${PIDS[@]:-}"; do kill "$p" 2>/dev/null || true; done; rm -rf "$TMP"' EXIT

fail() {
	echo "fleet smoke: $*" >&2
	for i in 1 2 3; do
		[ -f "$TMP/bvqd$i.log" ] && { echo "--- replica $i log ---" >&2; tail -5 "$TMP/bvqd$i.log" >&2; }
	done
	[ -f "$TMP/router.log" ] && { echo "--- router log ---" >&2; tail -5 "$TMP/router.log" >&2; }
	exit 1
}

# jsonint FIELD FILE — pull an integer field out of bvqload -json output.
jsonint() {
	sed -n "s/.*\"$1\": \(-*[0-9][0-9]*\).*/\1/p" "$2" | head -1
}

# jsonnum FIELD FILE — same for floats.
jsonnum() {
	sed -n "s/.*\"$1\": \(-*[0-9.][0-9.e+-]*\).*/\1/p" "$2" | head -1
}

# normalize — strip the per-request fields from a JSON /query response so
# two responses to the same query compare byte-identically.
normalize() {
	sed 's/"request_id":"[^"]*",*//; s/,*"elapsed_ms":[0-9.e+-]*//; s/,*"trace_id":"[^"]*"//'
}

wait_healthy() {
	for _ in $(seq 1 100); do
		curl -fsS "$1/healthz" >/dev/null 2>&1 && return 0
		sleep 0.1
	done
	fail "$1 never became healthy"
}

go build -o "$TMP/bvqd" "$DIR/cmd/bvqd"
go build -o "$TMP/bvqrouter" "$DIR/cmd/bvqrouter"
go build -o "$TMP/bvqload" "$DIR/cmd/bvqload"

REPLICAS=()
for i in 1 2 3; do
	port=$((BASE_PORT + i))
	"$TMP/bvqd" -addr "127.0.0.1:$port" -db graph="$DIR/examples/data/graph.db" \
		>"$TMP/bvqd$i.log" 2>&1 &
	PIDS+=($!)
	REPLICAS+=("http://127.0.0.1:$port")
done
for r in "${REPLICAS[@]}"; do wait_healthy "$r"; done

ROUTER="http://127.0.0.1:$BASE_PORT"
"$TMP/bvqrouter" -addr "127.0.0.1:$BASE_PORT" \
	-replica "${REPLICAS[0]}" -replica "${REPLICAS[1]}" -replica "${REPLICAS[2]}" \
	-retries 2 -health-interval 100ms -health-failures 2 \
	>"$TMP/router.log" 2>&1 &
ROUTER_PID=$!
PIDS+=("$ROUTER_PID")
wait_healthy "$ROUTER"

# ---- 1. Byte-identity: routed vs direct, JSON and streaming. ----------------
req='{"database":"graph","query":"(x, y). exists z. E(x, z) & E(z, y)"}'
curl -fsS -H 'Content-Type: application/json' -d "$req" "${REPLICAS[0]}/query" | normalize >"$TMP/direct.json"
curl -fsS -H 'Content-Type: application/json' -d "$req" "$ROUTER/query" | normalize >"$TMP/routed.json"
cmp -s "$TMP/direct.json" "$TMP/routed.json" || {
	diff "$TMP/direct.json" "$TMP/routed.json" >&2 || true
	fail "routed JSON answer differs from direct"
}

sreq='{"database":"graph","query":"(x, y). exists z. E(x, z) & E(z, y)","stream":true,"no_cache":true}'
curl -fsS -H 'Content-Type: application/json' -d "$sreq" "${REPLICAS[0]}/query" >"$TMP/direct.ndjson"
curl -fsS -H 'Content-Type: application/json' -d "$sreq" "$ROUTER/query" >"$TMP/routed.ndjson"
sed '1d;$d' "$TMP/direct.ndjson" >"$TMP/direct.rows"
sed '1d;$d' "$TMP/routed.ndjson" >"$TMP/routed.rows"
cmp -s "$TMP/direct.rows" "$TMP/routed.rows" || fail "routed stream rows differ from direct"
[ -s "$TMP/direct.rows" ] || fail "stream produced no rows"
tail -1 "$TMP/routed.ndjson" | grep -q '"trailer":true' || fail "routed stream has no trailer"
tail -1 "$TMP/routed.ndjson" | grep -q '"error"' && fail "routed stream trailer carries an error"
dcount=$(tail -1 "$TMP/direct.ndjson" | sed 's/.*"count"://; s/[,}].*//')
rcount=$(tail -1 "$TMP/routed.ndjson" | sed 's/.*"count"://; s/[,}].*//')
[ "$dcount" = "$rcount" ] || fail "stream counts differ: direct $dcount, routed $rcount"

# ---- 2. Routed load: queries, streams and update fan-out, zero 5xx. ---------
"$TMP/bvqload" -target "$ROUTER" -database graph -duration 3s -workers 4 \
	-churn 0.05 -stream 0.2 -seed 7 -json >"$TMP/load.json"
queries=$(jsonint queries "$TMP/load.json")
updates=$(jsonint updates "$TMP/load.json")
fivexx=$(jsonint server_5xx "$TMP/load.json")
transport=$(jsonint transport_errors "$TMP/load.json")
[ "${queries:-0}" -gt 0 ] || fail "bvqload routed zero queries"
[ "${updates:-0}" -gt 0 ] || fail "bvqload fanned out zero updates"
[ "${fivexx:-1}" -eq 0 ] || fail "bvqload saw $fivexx 5xx responses through the router"
[ "${transport:-1}" -eq 0 ] || fail "bvqload saw $transport transport errors"

# ---- 3. Capacity point: direct single replica vs routed fleet. --------------
"$TMP/bvqload" -target "${REPLICAS[0]}" -database graph -duration 3s -workers 6 \
	-seed 11 -json >"$TMP/cap1.json"
"$TMP/bvqload" -target "$ROUTER" -database graph -duration 3s -workers 6 \
	-seed 11 -json >"$TMP/cap3.json"
echo "capacity (closed loop, 6 workers, mix twohop=3,tc=1,reach=1):"
echo "| setup              | qps   | p50 ms | p99 ms |"
echo "|--------------------|-------|--------|--------|"
printf '| direct, 1 replica  | %s | %s | %s |\n' \
	"$(jsonnum qps "$TMP/cap1.json")" "$(jsonnum p50_ms "$TMP/cap1.json")" "$(jsonnum p99_ms "$TMP/cap1.json")"
printf '| routed, 3 replicas | %s | %s | %s |\n' \
	"$(jsonnum qps "$TMP/cap3.json")" "$(jsonnum p50_ms "$TMP/cap3.json")" "$(jsonnum p99_ms "$TMP/cap3.json")"

# ---- 4. Kill the owner of the dominant query mid-load. ----------------------
owner=$(curl -sS -o /dev/null -D - -H 'Content-Type: application/json' -d "$req" "$ROUTER/query" |
	tr -d '\r' | sed -n 's/^[Xx]-[Bb]vqrouter-[Rr]eplica: //p')
[ -n "$owner" ] || fail "router did not name the serving replica"
owner_pid=""
for i in 0 1 2; do
	[ "${REPLICAS[$i]}" = "$owner" ] && owner_pid="${PIDS[$i]}"
done
[ -n "$owner_pid" ] || fail "owner $owner is not a known replica"

"$TMP/bvqload" -target "$ROUTER" -database graph -duration 4s -workers 4 \
	-seed 13 -json >"$TMP/kill.json" &
LOAD_PID=$!
sleep 1
kill "$owner_pid"
wait "$LOAD_PID" || fail "bvqload failed during the replica kill"

kqueries=$(jsonint queries "$TMP/kill.json")
kfivexx=$(jsonint server_5xx "$TMP/kill.json")
[ "${kqueries:-0}" -gt 0 ] || fail "no queries succeeded across the replica kill"
[ "${kfivexx:-1}" -eq 0 ] || fail "replica kill leaked $kfivexx 5xx responses to the client"

curl -fsS "$ROUTER/healthz" | grep -q '"healthy":2' || fail "router still counts the killed replica healthy"
evictions=$(curl -fsS "$ROUTER/metrics" | awk '$1=="bvqrouter_member_evictions_total"{print $2}')
[ "${evictions:-0}" -ge 1 ] || fail "no ring eviction recorded after the kill"
retries=$(curl -fsS "$ROUTER/metrics" | awk '$1=="bvqrouter_retries_total"{print $2}')
[ "${retries:-0}" -ge 1 ] || fail "no retries recorded after the kill"

echo "fleet smoke: ok (byte-identical answers, $queries routed queries + $updates fan-outs with zero 5xx," \
	"kill survived with $kqueries queries, $evictions eviction(s), $retries retries)"
