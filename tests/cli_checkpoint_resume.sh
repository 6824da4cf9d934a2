#!/bin/sh
# Integration test for the sweep checkpoint/restart + sharding flow
# (DESIGN.md §13):
#
#  1. SIGTERM mid-sweep -> exit 5 (interrupted, resumable), then --resume
#     reproduces the uninterrupted run's stdout/stderr byte for byte.
#  2. SIGKILL mid-sweep (no handler can run) -> the last atomic checkpoint
#     is intact and --resume still reproduces the run byte for byte.
#  3. --shard 0/4..3/4 + merge is byte-identical to the unsharded sweep at
#     --jobs 1 and --jobs 8.
#  4. Refusals: resuming against a different config exits 3; a bad --shard
#     spec, a bare merge, and --resume / --checkpoint-interval without
#     --checkpoint exit 2; an existing checkpoint without --resume exits 3.
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

# --- 3. shard + merge equivalence at --jobs 1 and 8 -------------------------
for jobs in 1 8; do
  for i in 0 1 2 3; do
    "$cli" sweep --keep-going --jobs "$jobs" --shard "$i/4" \
      --checkpoint "$tmpdir/shard_${jobs}_${i}.json" > /dev/null 2>&1 \
      || fail "shard $i/4 at --jobs $jobs failed"
  done
  "$cli" merge "$tmpdir/shard_${jobs}_0.json" "$tmpdir/shard_${jobs}_1.json" \
    "$tmpdir/shard_${jobs}_2.json" "$tmpdir/shard_${jobs}_3.json" \
    > "$tmpdir/merged_$jobs.out" 2> "$tmpdir/merged_$jobs.err" \
    || fail "merge at --jobs $jobs failed"
  cmp -s "$tmpdir/ref.out" "$tmpdir/merged_$jobs.out" \
    || fail "merged stdout at --jobs $jobs differs from unsharded sweep"
  cmp -s "$tmpdir/ref.err" "$tmpdir/merged_$jobs.err" \
    || fail "merged stderr at --jobs $jobs differs from unsharded sweep"
done

# --- 4. refusals ------------------------------------------------------------
# Existing checkpoint without --resume: refuse to clobber completed work.
"$cli" sweep --keep-going --checkpoint "$tmpdir/shard_1_0.json" \
  > /dev/null 2>&1
[ $? -eq 3 ] || fail "checkpoint without --resume should exit 3"

# Checkpoint from a different sweep identity (other network): refused.
"$cli" sweep --keep-going --network alexnet \
  --checkpoint "$tmpdir/term.json" --resume > /dev/null 2>&1
[ $? -eq 3 ] || fail "fingerprint mismatch on resume should exit 3"

# Same identity mismatch caught at merge time too.
"$cli" merge --network alexnet "$tmpdir/shard_1_0.json" \
  "$tmpdir/shard_1_1.json" "$tmpdir/shard_1_2.json" \
  "$tmpdir/shard_1_3.json" > /dev/null 2>&1
[ $? -eq 3 ] || fail "fingerprint mismatch on merge should exit 3"

# Truncated checkpoint: clean config error, not a crash.
head -c 60 "$tmpdir/term.json" > "$tmpdir/trunc.json"
"$cli" merge "$tmpdir/trunc.json" > /dev/null 2>&1
[ $? -eq 3 ] || fail "truncated checkpoint should exit 3"

# Usage errors.
"$cli" sweep --shard 4/4 > /dev/null 2>&1
[ $? -eq 2 ] || fail "--shard 4/4 should exit 2"
"$cli" sweep --shard banana > /dev/null 2>&1
[ $? -eq 2 ] || fail "--shard banana should exit 2"
"$cli" merge > /dev/null 2>&1
[ $? -eq 2 ] || fail "bare merge should exit 2"
"$cli" sweep --checkpoint-interval 0 > /dev/null 2>&1
[ $? -eq 2 ] || fail "--checkpoint-interval 0 should exit 2"
# --resume / --checkpoint-interval act only on a checkpoint; without one
# they are usage errors, not a silently fresh full sweep.
"$cli" sweep --resume > /dev/null 2>&1
[ $? -eq 2 ] || fail "--resume without --checkpoint should exit 2"
"$cli" sweep --checkpoint-interval 5 > /dev/null 2>&1
[ $? -eq 2 ] || fail "--checkpoint-interval without --checkpoint should exit 2"

if [ "$failures" -ne 0 ]; then
  echo "$failures checkpoint/resume check(s) failed" >&2
  exit 1
fi
echo "cli_checkpoint_resume: all checks passed"
exit 0
