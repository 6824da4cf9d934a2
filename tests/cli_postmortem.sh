#!/bin/sh
# Integration test for the flight recorder's fatal-path dump (DESIGN.md §15):
#
#  1. SIGSEGV inside a sweep point (crash_sweep_driver raises it in the
#     third evaluation at jobs 2) -> the process dies by signal AND leaves a
#     parseable postmortem JSON that names the in-flight stage in some
#     thread's active-span stack.
#  2. The postmortem joins the crashed run's event stream by RunId:
#     `uld3d-report EVENTS --postmortem DUMP` exits 0 and reports the
#     crashing thread; a foreign run's dump is refused (exit 1).
#  3. The CLI's arming rules, on a real `kill -SEGV`: `--postmortem`
#     defaults ON for sweep (dump lands at <run>.postmortem.json in the
#     cwd), `--no-postmortem` disarms it, other commands arm it only on
#     request, and a clean sweep leaves no dump.
#
# ASAN_OPTIONS: on sanitizer builds ASan's own SEGV/abort interception
# would swallow the crash before our handler runs, so the crashing runs,
# and only those, get options that hand the signals back (inert on
# non-sanitizer builds).  The report joins and the clean sweep inherit the
# caller's ASAN_OPTIONS, leak checking included.
#
# Usage: cli_postmortem.sh /path/to/uld3d_cli /path/to/uld3d-report
#                          /path/to/crash_sweep_driver
set -u

# Absolute paths: the arming checks below run the CLI from other cwds.
cli="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
report="$(cd "$(dirname "$2")" && pwd)/$(basename "$2")"
driver="$(cd "$(dirname "$3")" && pwd)/$(basename "$3")"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
failures=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

asan_opts="handle_segv=0:handle_abort=0:detect_leaks=0"
# Death by SIGSEGV surfaces as 139 under sh (128 + 11).
segv_exit=139

# --- 1. SIGSEGV in a sweep point -> death by signal + parseable dump --------
ASAN_OPTIONS="$asan_opts" \
  "$driver" "$tmpdir/crash.ndjson" "$tmpdir/crash.pm.json" \
  >/dev/null 2>"$tmpdir/crash.stderr"
code=$?
[ "$code" -eq "$segv_exit" ] \
  || fail "crashed sweep: expected death by SIGSEGV, got $code"
[ -s "$tmpdir/crash.pm.json" ] || fail "no postmortem written on SIGSEGV"
grep -q 'postmortem' "$tmpdir/crash.stderr" \
  || fail "no stderr breadcrumb pointing at the dump"
grep -q '"reason": "SIGSEGV"' "$tmpdir/crash.pm.json" \
  || fail "postmortem does not name SIGSEGV as the reason"
# The crash fires inside a sweep-point evaluation: the dumping thread's
# active spans must name the in-flight stage.
grep -q '"dse.sweep.point"' "$tmpdir/crash.pm.json" \
  || fail "postmortem does not name the in-flight dse.sweep.point span"
grep -q '"dse.point"' "$tmpdir/crash.pm.json" \
  || fail "postmortem ring lacks the dse.point event records"

# --- 2. RunId join with the crashed run's event stream ----------------------
[ -s "$tmpdir/crash.ndjson" ] || fail "crashed sweep left no events"
"$report" "$tmpdir/crash.ndjson" --postmortem "$tmpdir/crash.pm.json" \
  > "$tmpdir/join.txt" || fail "postmortem join should exit 0"
grep -q 'SIGSEGV' "$tmpdir/join.txt" || fail "join does not report the signal"

# A dump from a DIFFERENT run must be refused.
ASAN_OPTIONS="$asan_opts" \
  "$driver" "$tmpdir/other.ndjson" "$tmpdir/other.pm.json" >/dev/null 2>&1
[ -s "$tmpdir/other.pm.json" ] || fail "second crash left no postmortem"
"$report" "$tmpdir/crash.ndjson" --postmortem "$tmpdir/other.pm.json" \
  >/dev/null 2>&1
code=$?
[ "$code" -eq 1 ] || fail "foreign postmortem join: expected exit 1, got $code"

# --- 3. the CLI's arming rules ----------------------------------------------
# run_killed DIR ARGS... runs `uld3d_cli ARGS --config config.fifo` in a new
# DIR and sets $code.  The CLI opens --config only after it has armed the
# dumper (if it arms it) and flushed run_start, so `exec 3>fifo` returns
# once the CLI is inside its cli.<command> span, blocked reading the FIFO;
# the kill -SEGV lands there.
run_killed() {
  dir="$1"
  shift
  mkdir "$dir"
  mkfifo "$dir/config.fifo"
  (cd "$dir" && ulimit -c 0 && ASAN_OPTIONS="$asan_opts" \
    exec "$cli" "$@" --config config.fifo >out.txt 2>err.txt) &
  pid=$!
  exec 3>"$dir/config.fifo"
  kill -SEGV "$pid"
  wait "$pid"
  code=$?
  exec 3>&-
}

run_killed "$tmpdir/sweep" sweep --keep-going --jobs 1 --events events.ndjson
[ "$code" -eq "$segv_exit" ] \
  || fail "killed sweep: expected death by SIGSEGV, got $code"
dump="$(ls "$tmpdir"/sweep/*.postmortem.json 2>/dev/null)"
if [ -z "$dump" ]; then
  fail "sweep default did not write <run>.postmortem.json in the cwd"
else
  grep -q '"active_spans": \["cli.sweep"\]' "$dump" \
    || fail "killed sweep's dump does not name the cli.sweep span"
  [ "$(grep -c '"ev": "run_start"' "$tmpdir/sweep/events.ndjson")" -eq 1 ] \
    || fail "killed sweep's events lack exactly one run_start"
  "$report" "$tmpdir/sweep/events.ndjson" --postmortem "$dump" >/dev/null \
    || fail "killed sweep's dump does not join its events"
fi

run_killed "$tmpdir/sweep_off" sweep --keep-going --jobs 1 --no-postmortem
[ "$code" -eq "$segv_exit" ] \
  || fail "--no-postmortem sweep: expected death by SIGSEGV, got $code"
if ls "$tmpdir"/sweep_off/*.postmortem.json >/dev/null 2>&1; then
  fail "--no-postmortem still wrote a dump"
fi

run_killed "$tmpdir/compare" compare --jobs 1
[ "$code" -eq "$segv_exit" ] \
  || fail "killed compare: expected death by SIGSEGV, got $code"
if ls "$tmpdir"/compare/*.postmortem.json >/dev/null 2>&1; then
  fail "compare armed the dumper without --postmortem"
fi

run_killed "$tmpdir/compare_on" compare --jobs 1 --postmortem=pm.json
[ "$code" -eq "$segv_exit" ] \
  || fail "killed compare --postmortem: expected SIGSEGV, got $code"
grep -q '"reason": "SIGSEGV"' "$tmpdir/compare_on/pm.json" 2>/dev/null \
  || fail "compare --postmortem=PATH did not write PATH"

# A clean (non-crashing) sweep must not leave a dump behind either.
cleandir="$tmpdir/cleancwd"
mkdir "$cleandir"
(cd "$cleandir" && "$cli" sweep --keep-going --jobs 1 >/dev/null 2>&1) \
  || fail "clean sweep failed"
if ls "$cleandir"/*.postmortem.json >/dev/null 2>&1; then
  fail "clean sweep left a postmortem dump"
fi

if [ "$failures" -ne 0 ]; then
  echo "$failures postmortem check(s) failed" >&2
  exit 1
fi
echo "all postmortem checks passed"
