#!/usr/bin/env bash
# Validate the `BENCH_<name>.json` experiment artifacts against their
# schema. With a directory argument, validates artifacts already produced
# (CI passes the dir the repro step wrote); without one, runs
# `repro --json` into a temp dir first.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -ge 1 ]]; then
  DIR=$1
else
  DIR=$(mktemp -d)
  trap 'rm -rf "$DIR"' EXIT
  cargo run -p systolic-bench --bin repro --release -- --json "$DIR"
fi

cargo run -p systolic-bench --bin validate_artifacts -- "$DIR"

# The cross-backend speedup experiment must be present and must have
# recorded at least the 5x host-wall-time win the columnar backend promises.
E21="$DIR/BENCH_e21_backend_speedup.json"
if [[ ! -f "$E21" ]]; then
  echo "missing $E21" >&2
  exit 1
fi
SPEEDUP=$(sed -n 's/.*"speedup": \([0-9.]*\).*/\1/p' "$E21")
if ! awk -v s="$SPEEDUP" 'BEGIN { exit !(s >= 5.0) }'; then
  echo "e21 speedup $SPEEDUP is below the required 5x" >&2
  exit 1
fi
echo "e21 columnar-vs-sim speedup: ${SPEEDUP}x (>= 5x)"

# The durability experiment must be present with a live WAL append rate —
# a zero rate would mean the fsynced append path never ran.
DUR="$DIR/BENCH_durability.json"
if [[ ! -f "$DUR" ]]; then
  echo "missing $DUR" >&2
  exit 1
fi
WAL_RATE=$(sed -n 's/.*"wal_append_records_per_sec": \([0-9.]*\).*/\1/p' "$DUR")
if ! awk -v r="$WAL_RATE" 'BEGIN { exit !(r > 0) }'; then
  echo "durability wal_append_records_per_sec $WAL_RATE is not positive" >&2
  exit 1
fi
echo "durability WAL append rate: ${WAL_RATE} records/sec (fsync per append)"

# The observability experiment must be present with a full flight recorder
# and a non-empty shutdown trace — an empty trace would mean the server's
# spans and the recorder's simulated track never reached the merge.
OBS="$DIR/BENCH_observability.json"
if [[ ! -f "$OBS" ]]; then
  echo "missing $OBS" >&2
  exit 1
fi
PROFILES=$(sed -n 's/.*"flight_recorder_profiles": \([0-9]*\).*/\1/p' "$OBS")
if ! awk -v p="$PROFILES" 'BEGIN { exit !(p > 0) }'; then
  echo "observability flight_recorder_profiles $PROFILES is not positive" >&2
  exit 1
fi
TRACE_EVENTS=$(sed -n 's/.*"trace_events": \([0-9]*\).*/\1/p' "$OBS")
if ! awk -v e="$TRACE_EVENTS" 'BEGIN { exit !(e > 0) }'; then
  echo "observability trace_events $TRACE_EVENTS is not positive" >&2
  exit 1
fi
echo "observability: ${PROFILES} profiles retained, ${TRACE_EVENTS} merged trace events"

# The plan-compiler experiment must be present, must have saved pulses
# (pulses_optimized <= pulses_baseline with a real reduction), and must
# have recorded actual rewrite activity.
OPT="$DIR/BENCH_optimizer.json"
if [[ ! -f "$OPT" ]]; then
  echo "missing $OPT" >&2
  exit 1
fi
P_BASE=$(sed -n 's/.*"pulses_baseline": \([0-9]*\).*/\1/p' "$OPT")
P_OPT=$(sed -n 's/.*"pulses_optimized": \([0-9]*\).*/\1/p' "$OPT")
if ! awk -v b="$P_BASE" -v o="$P_OPT" 'BEGIN { exit !(o+0 <= b+0 && b+0 > 0) }'; then
  echo "optimizer pulses_optimized $P_OPT exceeds pulses_baseline $P_BASE" >&2
  exit 1
fi
HITS=$(sed -n 's/.*"rewrite_hits": \([0-9]*\).*/\1/p' "$OPT")
if ! awk -v h="$HITS" 'BEGIN { exit !(h > 0) }'; then
  echo "optimizer rewrite_hits $HITS is not positive" >&2
  exit 1
fi
RULES=$(sed -n 's/.*"rules_fired": \([0-9]*\).*/\1/p' "$OPT")
if ! awk -v r="$RULES" 'BEGIN { exit !(r >= 4) }'; then
  echo "optimizer rules_fired $RULES is below the required 4 distinct rules" >&2
  exit 1
fi
echo "optimizer: $P_BASE -> $P_OPT pulses, $HITS rewrite sites across $RULES rules"

# The fusion experiment must be present, and fused shared-operand batches
# must not lose to running the same queries one at a time on the same
# (columnar) backend.
E22="$DIR/BENCH_e22_columnar.json"
if [[ ! -f "$E22" ]]; then
  echo "missing $E22" >&2
  exit 1
fi
FUSED=$(sed -n 's/.*"fused_qps_16": \([0-9.]*\).*/\1/p' "$E22")
UNFUSED=$(sed -n 's/.*"unfused_qps_16": \([0-9.]*\).*/\1/p' "$E22")
if ! awk -v f="$FUSED" -v u="$UNFUSED" 'BEGIN { exit !(f+0 >= u+0 && f+0 > 0) }'; then
  echo "e22 fused_qps_16 $FUSED is below unfused_qps_16 $UNFUSED" >&2
  exit 1
fi
echo "e22 fused 16-client batch: ${FUSED} q/s vs ${UNFUSED} unfused"
