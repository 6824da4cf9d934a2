#!/bin/sh
# Integration test for `uld3d-report --diff`, the regression localizer
# (DESIGN.md §15):
#
#  1. Two identical sweeps diff clean (exit 0) — with tolerances sized for
#     shared-runner noise, same-binary same-grid runs must not self-flag.
#  2. A slowed copy of the base stream (100 ms added to every dur_us) is
#     flagged (exit 1) and the report names the slowed stage (dse.sweep).
#  3. --json emits a parseable document carrying the same verdict.
#  4. Error contract: usage errors exit 2 (including a flag of another
#     mode and --canon with --diff); malformed input and different-sweep
#     streams exit 3.
#  5. A base stream whose run_start provenance still carries "simd_isa"
#     (recorded while the batch kernels existed) diffs clean against a
#     stream without it.
#  6. --metrics BASE CURRENT joins each side's metrics export by RunId: the
#     matching pair diffs clean, a swapped pair is incomparable (exit 3).
#
# Usage: cli_diff.sh /path/to/uld3d_cli /path/to/uld3d-report
set -u

cli="$1"
report="$2"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
failures=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# Generous gates for the identical-runs checks: wall noise on a shared
# runner can be large relative to a fast sweep, so require a 2x blow-up
# AND half a second of absolute excess before calling it a regression.
noise_gates="--time-tol 100% --min-delta-us 500000"

"$cli" sweep --keep-going --jobs 1 --events "$tmpdir/base.ndjson" \
  --metrics "$tmpdir/base.json" >/dev/null 2>&1 || fail "base sweep failed"
"$cli" sweep --keep-going --jobs 1 --events "$tmpdir/same.ndjson" \
  --metrics "$tmpdir/same.json" >/dev/null 2>&1 \
  || fail "second identical sweep failed"
# The slowed run: every point and stage of the base run, 100 ms slower.
awk '{
  out = ""
  while (match($0, /"dur_us": [-+.eE0-9]+/)) {
    value = substr($0, RSTART + 10, RLENGTH - 10) + 100000
    out = out substr($0, 1, RSTART + 9) sprintf("%.3f", value)
    $0 = substr($0, RSTART + RLENGTH)
  }
  print out $0
}' "$tmpdir/base.ndjson" > "$tmpdir/slow.ndjson"
grep -q '"dur_us": 1000[0-9][0-9]\.[0-9][0-9][0-9]}$' "$tmpdir/slow.ndjson" \
  || fail "fixture: the slowed stream carries no slowed dur_us"

# --- 1. identical runs diff clean -------------------------------------------
"$report" --diff "$tmpdir/base.ndjson" "$tmpdir/same.ndjson" $noise_gates \
  > "$tmpdir/clean.txt"
code=$?
[ "$code" -eq 0 ] || fail "identical runs: expected exit 0, got $code"
grep -q 'OK' "$tmpdir/clean.txt" || fail "clean diff does not say OK"

# --- 2. slowed run is flagged and localized ---------------------------------
# Every point slowed too, so the stage finding needs --top headroom to
# stay visible among the per-point rows.
"$report" --diff "$tmpdir/base.ndjson" "$tmpdir/slow.ndjson" --top 200 \
  > "$tmpdir/slow.txt"
code=$?
[ "$code" -eq 1 ] || fail "slowed run: expected exit 1, got $code"
grep -q 'dse.sweep' "$tmpdir/slow.txt" \
  || fail "regression table does not name the slowed dse.sweep stage"
grep -q 'REGRESSION' "$tmpdir/slow.txt" || fail "verdict line missing"

# --- 3. --json carries the same verdict -------------------------------------
"$report" --diff "$tmpdir/base.ndjson" "$tmpdir/slow.ndjson" --json \
  > "$tmpdir/slow.json"
code=$?
[ "$code" -eq 1 ] || fail "--json slowed run: expected exit 1, got $code"
grep -q '"kind": "diff"' "$tmpdir/slow.json" || fail "json kind missing"
grep -q '"scope": "stage"' "$tmpdir/slow.json" \
  || fail "json regressions lack a stage finding"
grep -q '"dse.sweep"' "$tmpdir/slow.json" \
  || fail "json does not name the slowed stage"
"$report" --diff "$tmpdir/base.ndjson" "$tmpdir/same.ndjson" $noise_gates \
  --json > "$tmpdir/clean.json"
code=$?
[ "$code" -eq 0 ] || fail "--json identical runs: expected exit 0, got $code"
grep -q '"regressions": \[\]' "$tmpdir/clean.json" \
  || fail "clean json should carry an empty regressions array"

# --- 4. error contract ------------------------------------------------------
"$report" --diff >/dev/null 2>&1
code=$?
[ "$code" -eq 2 ] || fail "no arguments: expected exit 2, got $code"
"$report" --diff "$tmpdir/base.ndjson" >/dev/null 2>&1
code=$?
[ "$code" -eq 2 ] || fail "one positional: expected exit 2, got $code"
"$report" --diff "$tmpdir/base.ndjson" "$tmpdir/same.ndjson" --bogus \
  >/dev/null 2>&1
code=$?
[ "$code" -eq 2 ] || fail "unknown flag: expected exit 2, got $code"
"$report" --diff "$tmpdir/base.ndjson" "$tmpdir/same.ndjson" \
  --trace "$tmpdir/trace.json" >/dev/null 2>&1
code=$?
[ "$code" -eq 2 ] || fail "--diff with a summary flag: expected exit 2, got $code"
"$report" "$tmpdir/base.ndjson" --time-tol 50% >/dev/null 2>&1
code=$?
[ "$code" -eq 2 ] || fail "summary with a --diff flag: expected exit 2, got $code"
"$report" --canon --diff "$tmpdir/base.ndjson" "$tmpdir/same.ndjson" \
  >/dev/null 2>&1
code=$?
[ "$code" -eq 2 ] || fail "--canon with --diff: expected exit 2, got $code"

echo 'not json' > "$tmpdir/garbage.ndjson"
echo 'still not json' >> "$tmpdir/garbage.ndjson"
"$report" --diff "$tmpdir/garbage.ndjson" "$tmpdir/same.ndjson" \
  >/dev/null 2>&1
code=$?
[ "$code" -eq 3 ] || fail "malformed input: expected exit 3, got $code"

# A stream with a different sweep fingerprint is a different experiment.
sed 's/"fingerprint": "[^"]*"/"fingerprint": "deadbeef"/' \
  "$tmpdir/same.ndjson" > "$tmpdir/othersweep.ndjson"
"$report" --diff "$tmpdir/base.ndjson" "$tmpdir/othersweep.ndjson" \
  >/dev/null 2>&1
code=$?
[ "$code" -eq 3 ] || fail "different sweep: expected exit 3, got $code"

# --- 5. a base stream recorded with the simd_isa provenance field -----------
sed 's/\("ev": "run_start".*"hardware_concurrency": [0-9]*\)}}$/\1, "simd_isa": "avx2"}}/' \
  "$tmpdir/base.ndjson" > "$tmpdir/basesimd.ndjson"
grep -q '"simd_isa": "avx2"}}$' "$tmpdir/basesimd.ndjson" \
  || fail "fixture: could not add simd_isa to the run_start provenance"
"$report" --diff "$tmpdir/basesimd.ndjson" "$tmpdir/same.ndjson" \
  $noise_gates >/dev/null
code=$?
[ "$code" -eq 0 ] || fail "base stream with simd_isa: expected exit 0, got $code"

# --- 6. metrics exports joined by RunId -------------------------------------
"$report" --diff "$tmpdir/base.ndjson" "$tmpdir/same.ndjson" $noise_gates \
  --metrics "$tmpdir/base.json" "$tmpdir/same.json" >/dev/null
code=$?
[ "$code" -eq 0 ] || fail "matching metrics exports: expected exit 0, got $code"
"$report" --diff "$tmpdir/base.ndjson" "$tmpdir/same.ndjson" $noise_gates \
  --metrics "$tmpdir/same.json" "$tmpdir/base.json" >/dev/null 2>&1
code=$?
[ "$code" -eq 3 ] || fail "swapped metrics exports: expected exit 3, got $code"

if [ "$failures" -ne 0 ]; then
  echo "$failures diff check(s) failed" >&2
  exit 1
fi
echo "all diff checks passed"
