#!/usr/bin/env bash
# Smoke-test the live query service end to end:
#   1. start `sdb serve` in the background,
#   2. load tables and run a join through `sdb --connect`,
#   3. check the joined rows arrived, and that a filter over the loaded
#      table returns exactly its matching rows,
#   4. scrape METRICS and verify the exposition parses and counters move,
#   5. SIGTERM the server and verify it drains and exits 0,
#   6. check that `sdb serve --shards 2` and `sdb serve --io poll` are
#      refused as unexpected arguments (sharding and the thread-per-
#      connection front end were removed; the poll reactor is the only
#      front end),
#   7. serve with `--data-dir`, load, SIGKILL the process mid-flight,
#      restart on the same directory, and re-run the join WITHOUT reloading
#      anything: recovery must produce the same rows, report itself in the
#      storage metrics, and survive an explicit checkpoint,
#   8. serve with `--profile-history 2 --trace-out`, PROFILE a query
#      (budget must bound the actual pulses, which must equal the RESULT
#      RunStats), overflow and dump the flight recorder, and check the
#      shutdown trace carries the request spans,
#   9. serve with `--backend columnar --batch-window 300`, fire concurrent
#      clients with DISTINCT filter values over one shared table, check
#      every fused answer byte-matches its solo run, and check the
#      `sdb_columnar_*` metrics advanced (word planes packed at ingest,
#      shared-operand scans actually fused).
# Any failure exits nonzero.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR=127.0.0.1:14171
WORK=$(mktemp -d)
# On any exit, reap servers a failed assertion left behind, then clean up.
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORK"' EXIT

cargo build --bin sdb
SDB=target/debug/sdb

printf 'ada,10\ngrace,20\nedsger,30\n' > "$WORK/emp.csv"
printf '10,storage\n20,query\n' > "$WORK/dept.csv"

"$SDB" serve --addr "$ADDR" > "$WORK/serve.log" 2>&1 &
SRV=$!

for _ in $(seq 1 100); do
  grep -q "listening on" "$WORK/serve.log" && break
  kill -0 "$SRV" 2>/dev/null || { echo "server died early:"; cat "$WORK/serve.log"; exit 1; }
  sleep 0.1
done
grep -q "listening on" "$WORK/serve.log" || { echo "server never came up"; cat "$WORK/serve.log"; exit 1; }

"$SDB" --connect "$ADDR" \
  --table "emp=$WORK/emp.csv:str,int" \
  --table "dept=$WORK/dept.csv:int,str" \
  --stats \
  'join(scan(emp), scan(dept), 1 = 0)' > "$WORK/out.txt"

echo "--- client output ---"
cat "$WORK/out.txt"

grep -q 'ada,10,storage' "$WORK/out.txt" || { echo "missing joined row ada"; exit 1; }
grep -q 'grace,20,query' "$WORK/out.txt" || { echo "missing joined row grace"; exit 1; }
if grep -q 'edsger' "$WORK/out.txt"; then echo "unjoined row leaked"; exit 1; fi
grep -q -- '-- 2 tuples' "$WORK/out.txt" || { echo "missing stats footer"; exit 1; }

# A filter over the already-loaded table: the rows must be the plain answer.
"$SDB" --connect "$ADDR" 'filter(scan(emp), c1 >= 20)' > "$WORK/out3.txt"
grep -q 'grace,20' "$WORK/out3.txt" || { echo "filter: missing grace"; exit 1; }
grep -q 'edsger,30' "$WORK/out3.txt" || { echo "filter: missing edsger"; exit 1; }
if grep -q 'ada' "$WORK/out3.txt"; then echo "filter: unfiltered row leaked"; exit 1; fi

# METRICS scrape: the raw exposition must carry the telemetry families, and
# --check-metrics validates the format and counter monotonicity client-side.
"$SDB" --connect "$ADDR" --metrics > "$WORK/metrics.txt"
echo "--- metrics scrape ---"
cat "$WORK/metrics.txt"
grep -q '# TYPE sdb_server_queries_total counter' "$WORK/metrics.txt" \
  || { echo "missing queries counter family"; exit 1; }
grep -q '# TYPE sdb_request_latency_ns histogram' "$WORK/metrics.txt" \
  || { echo "missing latency histogram family"; exit 1; }
grep -q 'sdb_op_pulses_total{op="join"}' "$WORK/metrics.txt" \
  || { echo "missing per-op pulse counter for the join we ran"; exit 1; }

"$SDB" --connect "$ADDR" --check-metrics > "$WORK/metrics_check.txt"
cat "$WORK/metrics_check.txt"
grep -q 'metrics ok:' "$WORK/metrics_check.txt" || { echo "exposition failed validation"; exit 1; }
grep -q 'counters monotonic' "$WORK/metrics_check.txt" || { echo "counters not monotonic"; exit 1; }

kill -TERM "$SRV"
if ! wait "$SRV"; then
  echo "server did not exit cleanly:"; cat "$WORK/serve.log"; exit 1
fi
grep -q "shutdown:" "$WORK/serve.log" || { echo "missing shutdown summary"; cat "$WORK/serve.log"; exit 1; }

echo "--- server log ---"
cat "$WORK/serve.log"

# ---- Round 2: removed flags ------------------------------------------

# `--shards` and `--io` are no longer flags: the server must refuse each
# and exit nonzero instead of starting.
for removed in "--shards 2" "--io poll"; do
  # shellcheck disable=SC2086 # split the flag from its value
  if "$SDB" serve --addr 127.0.0.1:14170 $removed > "$WORK/serve_removed.log" 2>&1; then
    echo "serve accepted $removed"; cat "$WORK/serve_removed.log"; exit 1
  fi
  grep -q "unexpected serve argument \"${removed%% *}\"" "$WORK/serve_removed.log" \
    || { echo "$removed refused for the wrong reason"; cat "$WORK/serve_removed.log"; exit 1; }
done

# ---- Round 3: durability — SIGKILL, restart, recover ------------------

ADDR3=127.0.0.1:14173
DATA="$WORK/data"
"$SDB" serve --addr "$ADDR3" --data-dir "$DATA" > "$WORK/serve3.log" 2>&1 &
SRV3=$!

for _ in $(seq 1 100); do
  grep -q "listening on" "$WORK/serve3.log" && break
  kill -0 "$SRV3" 2>/dev/null || { echo "durable server died early:"; cat "$WORK/serve3.log"; exit 1; }
  sleep 0.1
done
grep -q "listening on" "$WORK/serve3.log" || { echo "durable server never came up"; cat "$WORK/serve3.log"; exit 1; }

"$SDB" --connect "$ADDR3" \
  --table "emp=$WORK/emp.csv:str,int" \
  --table "dept=$WORK/dept.csv:int,str" \
  --stats \
  'join(scan(emp), scan(dept), 1 = 0)' > "$WORK/out4.txt"
grep -q -- '-- 2 tuples' "$WORK/out4.txt" || { echo "durable: join failed before the crash"; exit 1; }

# SIGKILL: no drain, no flush — only what the WAL already fsynced survives.
kill -KILL "$SRV3"
wait "$SRV3" 2>/dev/null || true

"$SDB" serve --addr "$ADDR3" --data-dir "$DATA" > "$WORK/serve3b.log" 2>&1 &
SRV3=$!
for _ in $(seq 1 100); do
  grep -q "listening on" "$WORK/serve3b.log" && break
  kill -0 "$SRV3" 2>/dev/null || { echo "restarted server died early:"; cat "$WORK/serve3b.log"; exit 1; }
  sleep 0.1
done
grep -q "listening on" "$WORK/serve3b.log" || { echo "restarted server never came up"; cat "$WORK/serve3b.log"; exit 1; }

# Re-run the join WITHOUT reloading: the tables must come back from the log.
"$SDB" --connect "$ADDR3" --stats 'join(scan(emp), scan(dept), 1 = 0)' > "$WORK/out5.txt"
echo "--- recovered client output ---"
cat "$WORK/out5.txt"
grep -q 'ada,10,storage' "$WORK/out5.txt" || { echo "recovery lost joined row ada"; exit 1; }
grep -q 'grace,20,query' "$WORK/out5.txt" || { echo "recovery lost joined row grace"; exit 1; }
grep -q -- '-- 2 tuples' "$WORK/out5.txt" || { echo "recovered join: missing stats footer"; exit 1; }

# A fresh load after recovery must hit the WAL (append + fsync) like any
# other acknowledged write.
"$SDB" --connect "$ADDR3" --table "late=$WORK/emp.csv:str,int" 'dedup(scan(late))' > "$WORK/out6.txt"
grep -q 'ada,10' "$WORK/out6.txt" || { echo "post-recovery load failed"; exit 1; }

# The storage counters must be on the wire: the redo ran at startup
# (recovery families) and the fresh load was fsynced (WAL families).
# Recovery replays through the front door without re-appending, so the
# restarted process's WAL counters count only post-recovery writes.
"$SDB" --connect "$ADDR3" --metrics > "$WORK/metrics3.txt"
grep -q '# TYPE sdb_storage_recovery_records_total counter' "$WORK/metrics3.txt" \
  || { echo "missing recovery records counter family"; exit 1; }
grep -q '# TYPE sdb_storage_recovery_ns_total counter' "$WORK/metrics3.txt" \
  || { echo "missing recovery time counter family"; exit 1; }
awk '$1 == "sdb_storage_recovery_records_total" && $2 >= 2 { found = 1 } END { exit !found }' \
  "$WORK/metrics3.txt" || { echo "recovery replayed nothing"; cat "$WORK/metrics3.txt"; exit 1; }
awk '$1 == "sdb_storage_wal_records_total" && $2 >= 1 { found = 1 } END { exit !found }' \
  "$WORK/metrics3.txt" || { echo "post-recovery load never reached the WAL"; cat "$WORK/metrics3.txt"; exit 1; }
awk '$1 == "sdb_storage_wal_fsyncs_total" && $2 >= 1 { found = 1 } END { exit !found }' \
  "$WORK/metrics3.txt" || { echo "WAL never fsynced"; cat "$WORK/metrics3.txt"; exit 1; }

# Checkpoint through the client: the snapshot absorbs the whole history —
# the two recovered loads plus the one above.
"$SDB" --connect "$ADDR3" --checkpoint > "$WORK/ckpt.txt"
cat "$WORK/ckpt.txt"
grep -q 'checkpointed 3 records' "$WORK/ckpt.txt" || { echo "checkpoint did not cover the recovered history"; exit 1; }

kill -TERM "$SRV3"
if ! wait "$SRV3"; then
  echo "durable server did not exit cleanly:"; cat "$WORK/serve3b.log"; exit 1
fi
grep -q "shutdown:" "$WORK/serve3b.log" || { echo "missing durable shutdown summary"; cat "$WORK/serve3b.log"; exit 1; }

echo "--- durable server logs ---"
cat "$WORK/serve3.log" "$WORK/serve3b.log"

# ---- Round 4: observability — PROFILE, PROFILES, trace-out -------------

ADDR4=127.0.0.1:14174
TRACE="$WORK/trace.json"
"$SDB" serve --addr "$ADDR4" --profile-history 2 --trace-out "$TRACE" \
  > "$WORK/serve4.log" 2>&1 &
SRV4=$!

for _ in $(seq 1 100); do
  grep -q "listening on" "$WORK/serve4.log" && break
  kill -0 "$SRV4" 2>/dev/null || { echo "profiled server died early:"; cat "$WORK/serve4.log"; exit 1; }
  sleep 0.1
done
grep -q "listening on" "$WORK/serve4.log" || { echo "profiled server never came up"; cat "$WORK/serve4.log"; exit 1; }

# PROFILE a query: the result rows and stats footer arrive as usual, plus
# one `-- profile:` JSON line. The analyzer's pulse budget must bound the
# actual pulses, and the profile's actual pulses must be the same number
# the RESULT frame's RunStats printed in the footer. An intersect runs a
# real array pass, so the pulse numbers are nonzero.
printf '1\n2\n3\n4\n' > "$WORK/a.csv"
printf '2\n4\n5\n' > "$WORK/b.csv"
"$SDB" --connect "$ADDR4" \
  --table "emp=$WORK/emp.csv:str,int" \
  --table "a=$WORK/a.csv:int" \
  --table "b=$WORK/b.csv:int" \
  --stats --profile \
  'intersect(scan(a), scan(b))' > "$WORK/out7.txt"

echo "--- profiled client output ---"
cat "$WORK/out7.txt"

grep -q '^2$' "$WORK/out7.txt" || { echo "profiled intersect: missing row 2"; exit 1; }
grep -q '^4$' "$WORK/out7.txt" || { echo "profiled intersect: missing row 4"; exit 1; }
grep -q -- '-- profile: {' "$WORK/out7.txt" || { echo "missing profile line"; exit 1; }
BUDGET=$(sed -n 's/.*"predicted":{"pulse_budget":\([0-9]*\).*/\1/p' "$WORK/out7.txt")
ACTUAL=$(sed -n 's/.*"actual":{"pulses":\([0-9]*\).*/\1/p' "$WORK/out7.txt")
FOOTER=$(sed -n 's/.*-- [0-9]* tuples.*; \([0-9]*\) array pulses.*/\1/p' "$WORK/out7.txt")
if ! awk -v b="$BUDGET" -v a="$ACTUAL" 'BEGIN { exit !(b >= a && a > 0) }'; then
  echo "profile budget $BUDGET does not bound actual pulses $ACTUAL" >&2
  exit 1
fi
if [[ "$ACTUAL" != "$FOOTER" ]]; then
  echo "profile actual pulses $ACTUAL != RESULT RunStats pulses $FOOTER" >&2
  exit 1
fi
echo "profile: budget $BUDGET >= actual $ACTUAL == RunStats $FOOTER"

# Fill the flight recorder past its 2-slot capacity, then dump it: only
# the newest 2 profiles survive, newest first.
"$SDB" --connect "$ADDR4" 'dedup(scan(emp))' > /dev/null
"$SDB" --connect "$ADDR4" 'filter(scan(emp), c1 >= 10)' > /dev/null
"$SDB" --connect "$ADDR4" --profiles > "$WORK/out8.txt"
echo "--- flight recorder dump ---"
cat "$WORK/out8.txt"
grep -q -- '-- flight recorder: 2 profile(s)' "$WORK/out8.txt" \
  || { echo "recorder did not retain exactly 2 profiles"; exit 1; }
sed -n 2p "$WORK/out8.txt" | grep -q 'filter(scan(emp), c1 >= 10)' \
  || { echo "recorder dump is not newest first"; exit 1; }
if grep -q '"query":"intersect(scan(a), scan(b))"' "$WORK/out8.txt"; then
  echo "recorder retained an evicted profile"; exit 1
fi

kill -TERM "$SRV4"
if ! wait "$SRV4"; then
  echo "profiled server did not exit cleanly:"; cat "$WORK/serve4.log"; exit 1
fi
# The shutdown trace must carry the server's request spans in one Chrome
# JSON on the two-clock pid convention.
[[ -f "$TRACE" ]] || { echo "shutdown wrote no trace"; cat "$WORK/serve4.log"; exit 1; }
grep -q '"traceEvents"' "$TRACE" || { echo "trace is not Chrome JSON"; exit 1; }
grep -q 'server.request' "$TRACE" || { echo "trace has no request span"; exit 1; }

echo "--- profiled server log ---"
cat "$WORK/serve4.log"

# ---- Round 5: columnar backend — fused shared-operand batches ----------

ADDR5=127.0.0.1:14175
"$SDB" serve --addr "$ADDR5" --backend columnar --batch-window 300 > "$WORK/serve5.log" 2>&1 &
SRV5=$!

for _ in $(seq 1 100); do
  grep -q "listening on" "$WORK/serve5.log" && break
  kill -0 "$SRV5" 2>/dev/null || { echo "columnar server died early:"; cat "$WORK/serve5.log"; exit 1; }
  sleep 0.1
done
grep -q "listening on" "$WORK/serve5.log" || { echo "columnar server never came up"; cat "$WORK/serve5.log"; exit 1; }

# Load once, then take solo baselines: each filter runs alone, so no
# fusion partner exists and the answer is the plain per-query one. (The
# load is its own invocation so the baselines don't carry its banner.)
"$SDB" --connect "$ADDR5" --table "emp=$WORK/emp.csv:str,int" 'dedup(scan(emp))' > /dev/null
"$SDB" --connect "$ADDR5" 'filter(scan(emp), c1 >= 10)' > "$WORK/solo10.txt"
"$SDB" --connect "$ADDR5" 'filter(scan(emp), c1 >= 20)' > "$WORK/solo20.txt"
"$SDB" --connect "$ADDR5" 'filter(scan(emp), c1 >= 30)' > "$WORK/solo30.txt"
grep -q 'ada,10' "$WORK/solo10.txt" || { echo "columnar solo filter lost a row"; exit 1; }
grep -q 'edsger,30' "$WORK/solo30.txt" || { echo "columnar solo filter lost a row"; exit 1; }

# The LOAD must have packed word planes on the zero-detour path, and the
# backend identity series must say columnar.
"$SDB" --connect "$ADDR5" --metrics > "$WORK/metrics5a.txt"
grep -q 'sdb_server_backend_info{backend="columnar"} 1' "$WORK/metrics5a.txt" \
  || { echo "server is not running the columnar backend"; cat "$WORK/metrics5a.txt"; exit 1; }
awk '$1 == "sdb_columnar_builds" && $2 >= 1 { found = 1 } END { exit !found }' \
  "$WORK/metrics5a.txt" || { echo "columnar ingest never packed word planes"; cat "$WORK/metrics5a.txt"; exit 1; }
BATCHES_BEFORE=$(awk '$1 == "sdb_columnar_fused_batches_total" { print $2 }' "$WORK/metrics5a.txt")
STEPS_BEFORE=$(awk '$1 == "sdb_columnar_fused_steps_total" { print $2 }' "$WORK/metrics5a.txt")
BATCHES_BEFORE=${BATCHES_BEFORE:-0}
STEPS_BEFORE=${STEPS_BEFORE:-0}

# Concurrent clients with DISTINCT filter values land in one 300 ms
# admission window. Distinct values keep the scheduler's CSE out of it,
# so the merged batch really evaluates three predicates — the columnar
# backend answers them with one fused pass over emp's word planes while
# pricing each query exactly as its solo run. Scheduling can in principle
# split the batch, so give the merge a few attempts before failing.
for attempt in 1 2 3; do
  "$SDB" --connect "$ADDR5" 'filter(scan(emp), c1 >= 10)' > "$WORK/fused10.txt" &
  C1=$!
  "$SDB" --connect "$ADDR5" 'filter(scan(emp), c1 >= 20)' > "$WORK/fused20.txt" &
  C2=$!
  "$SDB" --connect "$ADDR5" 'filter(scan(emp), c1 >= 30)' > "$WORK/fused30.txt" &
  C3=$!
  wait "$C1" "$C2" "$C3"
  "$SDB" --connect "$ADDR5" --metrics > "$WORK/metrics5b.txt"
  BATCHES_NOW=$(awk '$1 == "sdb_columnar_fused_batches_total" { print $2 }' "$WORK/metrics5b.txt")
  BATCHES_NOW=${BATCHES_NOW:-0}
  if awk -v a="$BATCHES_NOW" -v b="$BATCHES_BEFORE" 'BEGIN { exit !(a > b) }'; then
    break
  fi
  echo "attempt $attempt: concurrent clients were not admitted as one batch, retrying"
done

# Every fused answer must byte-match its solo baseline.
for v in 10 20 30; do
  cmp -s "$WORK/solo$v.txt" "$WORK/fused$v.txt" \
    || { echo "fused answer for c1 >= $v diverged from its solo run"; \
         diff "$WORK/solo$v.txt" "$WORK/fused$v.txt" || true; exit 1; }
done

# The fused-scan counters must have advanced: at least one fused batch
# covering at least two of the shared-operand steps.
awk -v b="$BATCHES_BEFORE" '$1 == "sdb_columnar_fused_batches_total" && $2 > b+0 { found = 1 } END { exit !found }' \
  "$WORK/metrics5b.txt" || { echo "no fused batch was recorded"; cat "$WORK/metrics5b.txt"; exit 1; }
awk -v s="$STEPS_BEFORE" '$1 == "sdb_columnar_fused_steps_total" && $2 >= s+2 { found = 1 } END { exit !found }' \
  "$WORK/metrics5b.txt" || { echo "fused batch covered fewer than two steps"; cat "$WORK/metrics5b.txt"; exit 1; }
echo "columnar: fused answers match solo; fused batches $BATCHES_BEFORE -> $(awk '$1 == "sdb_columnar_fused_batches_total" { print $2 }' "$WORK/metrics5b.txt")"

kill -TERM "$SRV5"
if ! wait "$SRV5"; then
  echo "columnar server did not exit cleanly:"; cat "$WORK/serve5.log"; exit 1
fi
grep -q "shutdown:" "$WORK/serve5.log" || { echo "missing columnar shutdown summary"; cat "$WORK/serve5.log"; exit 1; }

echo "--- columnar server log ---"
cat "$WORK/serve5.log"
echo "serve smoke test passed"
