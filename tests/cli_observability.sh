#!/bin/sh
# Exercises the observability surface of uld3d_cli:
#   --trace FILE    Chrome trace_event JSON
#   --metrics FILE  flat metrics JSON / CSV
#   --profile       human-readable summary tables on stdout
#   ULD3D_TRACE     env var mirror of --trace
# Usage: cli_observability.sh /path/to/uld3d_cli
set -u

cli="$1"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
failures=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

json_ok() {
  # Validate with a real parser when python3 is around; fall back to a
  # structural grep so the test still runs on minimal images.
  if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$1" >/dev/null 2>&1
  else
    grep -q '{' "$1" && grep -q '}' "$1"
  fi
}

# --trace/--metrics: run succeeds and both files are non-empty, valid JSON.
trace="$tmpdir/trace.json"
metrics="$tmpdir/metrics.json"
if ! "$cli" sweep --keep-going --trace "$trace" --metrics "$metrics" \
    >"$tmpdir/sweep.out" 2>"$tmpdir/sweep.err"; then
  fail "sweep --trace/--metrics exited non-zero"
fi
[ -s "$trace" ] || fail "trace file missing or empty"
[ -s "$metrics" ] || fail "metrics file missing or empty"
json_ok "$trace" || fail "trace file is not valid JSON"
json_ok "$metrics" || fail "metrics file is not valid JSON"
grep -q '"traceEvents"' "$trace" || fail "trace file lacks traceEvents"
grep -q '"ph": "X"' "$trace" || fail "trace file lacks complete events"
grep -q 'dse.sweep.point' "$trace" || fail "trace file lacks per-point spans"
grep -q '"metrics"' "$metrics" || fail "metrics file lacks metrics array"
grep -q 'dse.sweep.points' "$metrics" || fail "metrics file lacks sweep series"
series="$(grep -c '"name"' "$metrics")"
if [ "$series" -lt 10 ]; then
  fail "expected >= 10 metric series, got $series"
fi

# .csv extension selects the CSV exporter.  (--keep-going throughout: the
# default grid contains naturally infeasible points.)
csv="$tmpdir/metrics.csv"
"$cli" sweep --keep-going --metrics "$csv" >/dev/null 2>&1 \
  || fail "sweep --metrics csv failed"
head -n 1 "$csv" | grep -q '^name,kind,value$' \
  || fail "metrics CSV header wrong: $(head -n 1 "$csv")"

# --profile: summary tables land on stdout.
profile_out="$("$cli" sweep --keep-going --profile 2>/dev/null)"
case "$profile_out" in
  *"Span summary"*) : ;;
  *) fail "--profile missing span summary table" ;;
esac
case "$profile_out" in
  *"Run metrics"*) : ;;
  *) fail "--profile missing run metrics table" ;;
esac

# ULD3D_TRACE mirrors --trace.
envtrace="$tmpdir/envtrace.json"
env ULD3D_TRACE="$envtrace" "$cli" compare --network alexnet >/dev/null 2>&1 \
  || fail "compare under ULD3D_TRACE exited non-zero"
[ -s "$envtrace" ] || fail "ULD3D_TRACE produced no trace file"
json_ok "$envtrace" || fail "ULD3D_TRACE trace is not valid JSON"
grep -q 'sim.network' "$envtrace" || fail "env trace lacks sim spans"

# --events: NDJSON stream with a run_start/run_end envelope, RunId labels
# shared with the metrics export (DESIGN.md §14).
events="$tmpdir/events.ndjson"
evmetrics="$tmpdir/evmetrics.json"
"$cli" sweep --keep-going --events "$events" --metrics "$evmetrics" \
  >/dev/null 2>&1 || fail "sweep --events failed"
[ -s "$events" ] || fail "events file missing or empty"
grep -q '"ev": "run_start"' "$events" || fail "events lack run_start"
grep -q '"ev": "sweep_start"' "$events" || fail "events lack sweep_start"
grep -q '"ev": "point_done"' "$events" || fail "events lack point_done"
grep -q '"ev": "run_end"' "$events" || fail "events lack run_end"
grep -q '"status": "failed"' "$events" \
  || fail "events lack failed point_done rows (grid has infeasible points)"
# Every line is one JSON object (NDJSON), schema-stamped.
lines="$(wc -l < "$events")"
objs="$(grep -c '^{"schema": 1, "ev": ' "$events")"
[ "$lines" = "$objs" ] || fail "events file is not schema-stamped NDJSON"
# The metrics export carries the same RunId as the event stream.
run_id="$(sed -n 's/.*"run": "\([^"]*\)".*/\1/p' "$events" | head -n 1)"
[ -n "$run_id" ] || fail "events carry no run id"
grep -q "\"run_id\": \"$run_id\"" "$evmetrics" \
  || fail "metrics export run_id does not match the event stream"

# ULD3D_EVENTS mirrors --events (datasheet exercises the phys-flow stage
# timers as well as the run envelope).
envevents="$tmpdir/envevents.ndjson"
env ULD3D_EVENTS="$envevents" "$cli" datasheet --network alexnet \
  >/dev/null 2>&1 || fail "datasheet under ULD3D_EVENTS exited non-zero"
[ -s "$envevents" ] || fail "ULD3D_EVENTS produced no events file"
grep -q '"ev": "run_end"' "$envevents" || fail "env events lack run_end"
grep -q '"ev": "stage"' "$envevents" || fail "env events lack stage timings"

# Disabled by default: no trace/metrics files appear, nothing extra on stdout.
plain_out="$(cd "$tmpdir" && "$cli" sweep --keep-going 2>/dev/null)"
case "$plain_out" in
  *"Span summary"*) fail "profile table printed without --profile" ;;
  *) : ;;
esac

if [ "$failures" -ne 0 ]; then
  echo "$failures observability check(s) failed" >&2
  exit 1
fi
echo "all observability checks passed"
