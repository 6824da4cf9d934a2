#!/bin/sh
# Integration test for the sweep checkpoint/restart flow (DESIGN.md §13):
#
#  1. SIGTERM mid-sweep -> exit 5 (interrupted, resumable), then --resume
#     reproduces the uninterrupted run's stdout/stderr byte for byte.
#  2. SIGKILL mid-sweep (no handler can run) -> the last atomic checkpoint
#     is intact and --resume still reproduces the run byte for byte.
#  3. Refusals: an existing checkpoint without --resume, resuming against a
#     different config, a truncated checkpoint and a schema-1 checkpoint
#     exit 3; --resume / --checkpoint-interval without --checkpoint, and the
#     retired `merge` command and --shard flag, exit 2.
#
# Usage: cli_checkpoint_resume.sh /path/to/uld3d_cli
set -u

cli="$1"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
failures=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# The reference: one uninterrupted keep-going sweep (it has failing design
# points, so failure_summary output is part of what must survive resume).
"$cli" sweep --keep-going --jobs 4 \
  > "$tmpdir/ref.out" 2> "$tmpdir/ref.err" || fail "reference sweep failed"

# --- 1. SIGTERM, then resume ------------------------------------------------
# Retry if the sweep outran the signal (the delay is per point, but a loaded
# CI machine can still reorder the sleep against the sweep).
attempt=0
got=0
while [ "$attempt" -lt 5 ]; do
  attempt=$((attempt + 1))
  rm -f "$tmpdir/term.json"
  ULD3D_SWEEP_DELAY_MS=300 "$cli" sweep --keep-going --jobs 2 \
    --checkpoint "$tmpdir/term.json" --checkpoint-interval 1 \
    > "$tmpdir/term.out" 2> "$tmpdir/term.err" &
  pid=$!
  sleep 1
  kill -TERM "$pid" 2>/dev/null
  wait "$pid"
  got=$?
  [ "$got" -eq 5 ] && break
done
if [ "$got" -ne 5 ]; then
  fail "SIGTERM-ed sweep: expected exit 5 (interrupted, resumable), got $got"
fi
[ -f "$tmpdir/term.json" ] || fail "SIGTERM left no checkpoint file"

"$cli" sweep --keep-going --jobs 4 --checkpoint "$tmpdir/term.json" --resume \
  > "$tmpdir/term_resumed.out" 2> "$tmpdir/term_resumed.err" \
  || fail "resume after SIGTERM failed"
cmp -s "$tmpdir/ref.out" "$tmpdir/term_resumed.out" \
  || fail "stdout after SIGTERM+resume differs from uninterrupted run"
cmp -s "$tmpdir/ref.err" "$tmpdir/term_resumed.err" \
  || fail "stderr after SIGTERM+resume differs from uninterrupted run"

# --- 2. SIGKILL, then resume ------------------------------------------------
# SIGKILL can't be caught, so only the periodic atomic flushes protect the
# state.  Retry in case the sweep finishes before the kill lands (slow CI).
attempt=0
killed=no
while [ "$attempt" -lt 5 ]; do
  attempt=$((attempt + 1))
  rm -f "$tmpdir/kill.json"
  ULD3D_SWEEP_DELAY_MS=300 "$cli" sweep --keep-going --jobs 2 \
    --checkpoint "$tmpdir/kill.json" --checkpoint-interval 1 \
    > /dev/null 2>&1 &
  pid=$!
  sleep 1
  if kill -KILL "$pid" 2>/dev/null; then
    wait "$pid" 2>/dev/null
    killed=yes
    break
  fi
  wait "$pid" 2>/dev/null  # finished before the kill; try again
done
if [ "$killed" = yes ]; then
  [ -f "$tmpdir/kill.json" ] || fail "SIGKILL run left no checkpoint flush"
  "$cli" sweep --keep-going --jobs 4 --checkpoint "$tmpdir/kill.json" \
    --resume > "$tmpdir/kill_resumed.out" 2> "$tmpdir/kill_resumed.err" \
    || fail "resume after SIGKILL failed"
  cmp -s "$tmpdir/ref.out" "$tmpdir/kill_resumed.out" \
    || fail "stdout after SIGKILL+resume differs from uninterrupted run"
  cmp -s "$tmpdir/ref.err" "$tmpdir/kill_resumed.err" \
    || fail "stderr after SIGKILL+resume differs from uninterrupted run"
else
  echo "note: sweep always finished before SIGKILL; skipping kill check" >&2
fi

# --- 3. refusals ------------------------------------------------------------
# Existing checkpoint without --resume: refuse to clobber completed work.
"$cli" sweep --keep-going --checkpoint "$tmpdir/term.json" > /dev/null 2>&1
[ $? -eq 3 ] || fail "checkpoint without --resume should exit 3"

# Checkpoint from a different sweep identity (other network): refused.
"$cli" sweep --keep-going --network alexnet \
  --checkpoint "$tmpdir/term.json" --resume > /dev/null 2>&1
[ $? -eq 3 ] || fail "fingerprint mismatch on resume should exit 3"

# Truncated checkpoint: clean config error, not a crash.
head -c 60 "$tmpdir/term.json" > "$tmpdir/trunc.json"
"$cli" sweep --checkpoint "$tmpdir/trunc.json" --resume > /dev/null 2>&1
[ $? -eq 3 ] || fail "truncated checkpoint should exit 3"

# A schema-1 checkpoint (it still carried the shard members) is refused.
sed -e 's/"schema_version": 2,/"schema_version": 1,/' \
  -e 's/^\(  "grid_size": [0-9]*,\)$/\1\n  "shard_index": 0,\n  "shard_count": 1,/' \
  "$tmpdir/term.json" > "$tmpdir/schema1.json"
grep -q '"shard_count": 1,' "$tmpdir/schema1.json" \
  || fail "fixture: could not write a schema-1 checkpoint"
"$cli" sweep --keep-going --checkpoint "$tmpdir/schema1.json" --resume \
  > /dev/null 2>&1
[ $? -eq 3 ] || fail "schema-1 checkpoint should exit 3"

# Usage errors.
"$cli" sweep --checkpoint-interval 0 > /dev/null 2>&1
[ $? -eq 2 ] || fail "--checkpoint-interval 0 should exit 2"
# --resume / --checkpoint-interval act only on a checkpoint; without one
# they are usage errors, not a silently fresh full sweep.
"$cli" sweep --resume > /dev/null 2>&1
[ $? -eq 2 ] || fail "--resume without --checkpoint should exit 2"
"$cli" sweep --checkpoint-interval 5 > /dev/null 2>&1
[ $? -eq 2 ] || fail "--checkpoint-interval without --checkpoint should exit 2"
# Sharding is retired: the command and the flag are unknown.
"$cli" merge "$tmpdir/term.json" > /dev/null 2>&1
[ $? -eq 2 ] || fail "merge should exit 2"
"$cli" sweep --shard 0/4 > /dev/null 2>&1
[ $? -eq 2 ] || fail "--shard 0/4 should exit 2"

if [ "$failures" -ne 0 ]; then
  echo "$failures checkpoint/resume check(s) failed" >&2
  exit 1
fi
echo "cli_checkpoint_resume: all checks passed"
exit 0
