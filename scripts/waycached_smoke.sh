#!/usr/bin/env bash
# Smoke test for the waycached HTTP service over real binaries: start a
# multi-tenant server (-workers 4, bearer auth) over a fresh on-disk
# store, submit three overlapping jobs concurrently, stream one to
# completion over SSE, and require the served record bytes (JSON and
# CSV) to be identical to what the offline cmd/sweep CLI emits
# *serially* (-workers 1) for the same grid — the determinism contract
# at any budget. Also checks corpus queries (/results, /aggregate), auth
# enforcement, and that a SIGKILLed server restarted on its store serves
# the same corpus bytes.
# Run from the repo root; CI runs it on every push.
set -euo pipefail

ADDR=127.0.0.1:18080
BASE="http://$ADDR"
TOKEN="smoke-secret"
AUTH=(-H "Authorization: Bearer $TOKEN")
WORK=$(mktemp -d)
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/waycached" ./cmd/waycached
go build -o "$WORK/sweep" ./cmd/sweep

# start_server runs waycached over $WORK/store and waits until it is
# healthy; $1 names its log.
start_server() {
  "$WORK/waycached" -addr "$ADDR" -store "$WORK/store" -workers 4 \
    -auth-tokens "ci=$TOKEN" >"$WORK/$1" 2>&1 &
  SERVER_PID=$!
  for i in $(seq 1 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    if [ "$i" = 50 ]; then
      echo "waycached never became healthy:" >&2
      cat "$WORK/$1" >&2
      exit 1
    fi
    sleep 0.2
  done
}
start_server server.log

# Auth is enforced: no token is 401 with a Bearer challenge, while
# /healthz stays open for probes (verified above).
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/api/v1/jobs")
[ "$CODE" = 401 ] || { echo "unauthenticated request = $CODE, want 401" >&2; exit 1; }

submit() {
  local body=$1
  local resp id
  resp=$(curl -sf "${AUTH[@]}" -X POST "$BASE/api/v1/jobs" -d "$body")
  id=$(echo "$resp" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
  [ -n "$id" ] || { echo "no job id in: $resp" >&2; exit 1; }
  echo "$id"
}

# Three overlapping jobs submitted back to back run concurrently under
# the shared 4-slot budget (one per "client" would need three tokens;
# shared fairness across clients is asserted by TestMultiClientStress —
# here the concurrency itself and the byte contract are on trial).
ID1=$(submit '{
  "Benchmarks": ["gcc", "swim"],
  "DPolicies": ["parallel", "seldm+waypred"],
  "DWays": [2, 4],
  "Insts": 20000
}')
ID2=$(submit '{
  "Benchmarks": ["gcc", "perl"],
  "DPolicies": ["parallel", "seldm+waypred"],
  "DWays": [2, 4],
  "Insts": 20000
}')
ID3=$(submit '{
  "Benchmarks": ["swim", "li"],
  "DPolicies": ["parallel", "seldm+waypred"],
  "DWays": [2, 4],
  "Insts": 20000
}')

# The scheduler reports the configured budget.
curl -sf "${AUTH[@]}" "$BASE/api/v1/stats" | grep -q '"budget": 4' || {
  echo "stats missing scheduler budget:" >&2
  curl -s "${AUTH[@]}" "$BASE/api/v1/stats" >&2
  exit 1
}

# Job 1 is tracked over the SSE events stream — no polling — which must
# end with a terminal status event.
timeout 300 curl -sfN "${AUTH[@]}" "$BASE/api/v1/jobs/$ID1/events" >"$WORK/events.log" || {
  echo "events stream for $ID1 failed:" >&2
  cat "$WORK/events.log" >&2
  exit 1
}
tail -n 5 "$WORK/events.log" | grep -q '"state":"done"' || {
  echo "events stream did not end in a done event:" >&2
  tail -n 5 "$WORK/events.log" >&2
  exit 1
}

poll_done() {
  local id=$1
  for i in $(seq 1 300); do
    STATE=$(curl -sf "${AUTH[@]}" "$BASE/api/v1/jobs/$id" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p')
    case "$STATE" in
      done) return 0 ;;
      failed) echo "job $id failed:" >&2; curl -s "${AUTH[@]}" "$BASE/api/v1/jobs/$id" >&2; exit 1 ;;
    esac
    if [ "$i" = 300 ]; then echo "job $id stuck in state $STATE" >&2; exit 1; fi
    sleep 1
  done
}
poll_done "$ID2"
poll_done "$ID3"

curl -sf "${AUTH[@]}" "$BASE/api/v1/jobs/$ID1/results" >"$WORK/served.json"
curl -sf "${AUTH[@]}" "$BASE/api/v1/jobs/$ID1/results?format=csv" >"$WORK/served.csv"

# Offline *serial* reference (-workers 1) over its own disk store, run
# twice: the first run simulates and persists, the second must recall
# everything ("0 simulated") with byte-identical output — the
# incremental -store acceptance property, exercised on the real CLI.
# Diffing the concurrent server's bytes against a serial run is the
# any-budget determinism gate.
"$WORK/sweep" -benchmarks gcc,swim -dpolicies parallel,seldm+waypred \
  -dways 2,4 -insts 20000 -workers 1 -progress=false -store "$WORK/clistore" \
  -out "$WORK/offline.json" 2>"$WORK/sweep1.log"
"$WORK/sweep" -benchmarks gcc,swim -dpolicies parallel,seldm+waypred \
  -dways 2,4 -insts 20000 -workers 1 -progress=false -store "$WORK/clistore" \
  -out "$WORK/offline2.json" 2>"$WORK/sweep2.log"
grep -q ' 0 simulated, 8 memo hits' "$WORK/sweep2.log" || {
  echo "second -store run was not served from disk:" >&2
  cat "$WORK/sweep2.log" >&2
  exit 1
}
cmp "$WORK/offline.json" "$WORK/offline2.json" || { echo "-store replay changed sweep output" >&2; exit 1; }
"$WORK/sweep" -benchmarks gcc,swim -dpolicies parallel,seldm+waypred \
  -dways 2,4 -insts 20000 -workers 1 -progress=false -store "$WORK/clistore" \
  -format csv -out "$WORK/offline.csv" 2>"$WORK/sweep3.log"
grep -q ' 0 simulated,' "$WORK/sweep3.log" || { echo "CSV -store run re-simulated" >&2; exit 1; }

cmp "$WORK/served.json" "$WORK/offline.json" || { echo "served JSON differs from serial cmd/sweep output" >&2; exit 1; }
cmp "$WORK/served.csv" "$WORK/offline.csv" || { echo "served CSV differs from serial cmd/sweep output" >&2; exit 1; }

# Corpus queries over every job's results: a filtered /results view must
# be byte-identical (JSON and CSV) to the CLI's output for the same slice
# recalled from its -store, and /aggregate must answer CSV under the group
# header.
QUERY='benchmark=gcc&dpolicy=parallel&dways=2,4&insts=20k'
for FMT in json csv; do
  curl -sf "${AUTH[@]}" "$BASE/api/v1/results?$QUERY&format=$FMT" >"$WORK/query.$FMT"
  "$WORK/sweep" -benchmarks gcc -dpolicies parallel -dways 2,4 -insts 20000 -workers 1 \
    -progress=false -store "$WORK/clistore" -format "$FMT" -out "$WORK/recall.$FMT" 2>"$WORK/recall-$FMT.log"
  grep -q ' 0 simulated,' "$WORK/recall-$FMT.log" || {
    echo "$FMT recall from -store re-simulated:" >&2
    cat "$WORK/recall-$FMT.log" >&2
    exit 1
  }
  cmp "$WORK/query.$FMT" "$WORK/recall.$FMT" || { echo "/results?$QUERY ($FMT) differs from cmd/sweep output" >&2; exit 1; }
done
CODE=$(curl -s -o "$WORK/aggregate.csv" -w '%{http_code}' "${AUTH[@]}" \
  "$BASE/api/v1/aggregate?by=dPolicy&metric=procED&format=csv")
[ "$CODE" = 200 ] || { echo "aggregate = $CODE, want 200" >&2; cat "$WORK/aggregate.csv" >&2; exit 1; }
[ "$(head -n 1 "$WORK/aggregate.csv")" = "dPolicy,count,mean,min,max" ] || {
  echo "aggregate CSV header: $(head -n 1 "$WORK/aggregate.csv")" >&2
  exit 1
}

# Restart: SIGKILL the server (no Close, no clean shutdown) and start it
# again on the same -store. Its one recovery path, the scan of the result
# log, must serve the corpus query byte for byte as before the kill.
{ kill -KILL "$SERVER_PID" && wait "$SERVER_PID"; } 2>/dev/null || true
start_server server-restarted.log
grep -q 'holds [1-9][0-9]* results' "$WORK/server-restarted.log" || {
  echo "restarted waycached recalled no results:" >&2
  cat "$WORK/server-restarted.log" >&2
  exit 1
}
for FMT in json csv; do
  curl -sf "${AUTH[@]}" "$BASE/api/v1/results?$QUERY&format=$FMT" >"$WORK/query-restarted.$FMT"
  cmp "$WORK/query.$FMT" "$WORK/query-restarted.$FMT" || {
    echo "/results?$QUERY ($FMT) changed across a SIGKILL and restart" >&2
    exit 1
  }
done

echo "waycached smoke test: OK (jobs $ID1 $ID2 $ID3 concurrent at budget 4, served and queried bytes identical to serial cmd/sweep, corpus unchanged across a SIGKILL restart)"
