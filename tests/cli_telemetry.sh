#!/bin/sh
# Integration test for the telemetry event stream + uld3d-report analyzer
# (DESIGN.md §14):
#
#  1. `uld3d-report --canon` of a jobs=1 stream and a jobs=8 stream of the
#     same sweep are byte-identical (the determinism contract extends to
#     telemetry).
#  2. SIGTERM mid-sweep -> exit 5 AND the events file written so far is a
#     parseable NDJSON prefix (uld3d-report accepts it without error).
#  3. An interrupted-then-resumed stream (two runs appended to one file)
#     canonicalizes byte-identical to the uninterrupted run's stream.
#  4. uld3d-report joins artifacts by RunId: a matching --metrics export
#     exits 0, a foreign one exits 1.
#  5. Analyzer error contract: usage errors exit 2, malformed mid-file
#     JSON exits 3, while one torn FINAL line is tolerated.
#  6. A stream whose run_start provenance still carries "simd_isa" (every
#     stream recorded while the batch kernels existed) loads in every mode,
#     and its canonical projection is that of the same stream without it.
#  7. A stream recorded while sharding existed ("shard" labels on every
#     line, a shard_info event) loads in every mode, canonicalizes like the
#     same stream without them, and `--diff` compares it cleanly.
#  8. A stream whose sweep_start still carries "domain_size" (written until
#     the field went; it always equalled grid_size) loads in every mode,
#     canonicalizes like the same stream without it, and `--diff` against
#     that stream is clean.
#  9. An integer member out of its type's range ("index": -1) is malformed
#     input: exit 3 in the summary, --canon and --diff modes alike.
#
# Usage: cli_telemetry.sh /path/to/uld3d_cli /path/to/uld3d-report
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

# --- 1. canon byte-equality across jobs counts ------------------------------
"$cli" sweep --keep-going --jobs 1 --events "$tmpdir/ev1.ndjson" \
  >/dev/null 2>&1 || fail "jobs=1 sweep with --events failed"
"$cli" sweep --keep-going --jobs 8 --events "$tmpdir/ev8.ndjson" \
  >/dev/null 2>&1 || fail "jobs=8 sweep with --events failed"
"$report" --canon "$tmpdir/ev1.ndjson" > "$tmpdir/canon1.txt" \
  || fail "uld3d-report --canon rejected the jobs=1 stream"
"$report" --canon "$tmpdir/ev8.ndjson" > "$tmpdir/canon8.txt" \
  || fail "uld3d-report --canon rejected the jobs=8 stream"
cmp -s "$tmpdir/canon1.txt" "$tmpdir/canon8.txt" \
  || fail "canonical projection differs between jobs=1 and jobs=8"
grep -q '"ev": "sweep"' "$tmpdir/canon1.txt" || fail "canon lacks sweep header"
grep -q '"ev": "end"' "$tmpdir/canon1.txt" || fail "canon lacks end footer"

# --- 2 + 3. SIGTERM -> parseable prefix, then resume -> identical canon -----
# Retry if the sweep outran the signal (slow CI can reorder the sleep).
attempt=0
got=0
while [ "$attempt" -lt 5 ]; do
  attempt=$((attempt + 1))
  rm -f "$tmpdir/evi.ndjson" "$tmpdir/ckpt.json"
  ULD3D_SWEEP_DELAY_MS=300 "$cli" sweep --keep-going --jobs 2 \
    --checkpoint "$tmpdir/ckpt.json" --checkpoint-interval 1 \
    --events "$tmpdir/evi.ndjson" >/dev/null 2>&1 &
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
[ -s "$tmpdir/evi.ndjson" ] || fail "interrupted sweep left no events"
"$report" "$tmpdir/evi.ndjson" > "$tmpdir/interrupted.txt" \
  || fail "interrupted events file is not a parseable prefix"
grep -q 'interrupted' "$tmpdir/interrupted.txt" \
  || fail "interrupted run_end status not reported"

"$cli" sweep --keep-going --jobs 4 --checkpoint "$tmpdir/ckpt.json" --resume \
  --events "$tmpdir/evi.ndjson" >/dev/null 2>&1 \
  || fail "resume with --events failed"
runs="$(grep -c '"ev": "run_start"' "$tmpdir/evi.ndjson")"
[ "$runs" = 2 ] || fail "resumed stream should hold 2 runs, holds $runs"
"$report" --canon "$tmpdir/evi.ndjson" > "$tmpdir/canoni.txt" \
  || fail "uld3d-report --canon rejected the resumed stream"
cmp -s "$tmpdir/canoni.txt" "$tmpdir/canon1.txt" \
  || fail "canonical projection differs between resumed and uninterrupted"

# --- 4. RunId joins ---------------------------------------------------------
"$cli" sweep --keep-going --events "$tmpdir/evm.ndjson" \
  --metrics "$tmpdir/metrics.json" >/dev/null 2>&1 \
  || fail "sweep with --events --metrics failed"
"$report" "$tmpdir/evm.ndjson" --metrics "$tmpdir/metrics.json" \
  > "$tmpdir/join.txt" || fail "matching metrics join should exit 0"
grep -q 'matches' "$tmpdir/join.txt" || fail "metrics join not reported"
# A metrics export from a DIFFERENT run must be refused (exit 1).
"$cli" sweep --keep-going --metrics "$tmpdir/foreign.json" >/dev/null 2>&1 \
  || fail "foreign metrics run failed"
"$report" "$tmpdir/evm.ndjson" --metrics "$tmpdir/foreign.json" \
  >/dev/null 2>&1
code=$?
[ "$code" -eq 1 ] || fail "foreign metrics join: expected exit 1, got $code"

# --- 5. analyzer error contract ---------------------------------------------
"$report" >/dev/null 2>&1
code=$?
[ "$code" -eq 2 ] || fail "no-argument usage: expected exit 2, got $code"
"$report" --bogus-flag x >/dev/null 2>&1
code=$?
[ "$code" -eq 2 ] || fail "unknown flag: expected exit 2, got $code"

# Numeric operands are read whole: a sign or trailing text is a usage
# error, not a different number (--top -1 once listed every point).
for args in "--top -1" "--top 5abc" "--top 2.5"; do
  "$report" "$tmpdir/ev1.ndjson" $args >/dev/null 2>&1
  code=$?
  [ "$code" -eq 2 ] || fail "summary $args: expected exit 2, got $code"
done
for args in "--min-delta-us -5" "--min-delta-us 5abc" \
  "--min-delta-bytes -1" "--min-delta-bytes inf" "--top -1"; do
  "$report" --diff "$tmpdir/ev1.ndjson" "$tmpdir/ev1.ndjson" $args \
    >/dev/null 2>&1
  code=$?
  [ "$code" -eq 2 ] || fail "--diff $args: expected exit 2, got $code"
done
"$report" "$tmpdir/ev1.ndjson" --top 3 >/dev/null 2>&1 \
  || fail "--top 3 should be accepted"
"$report" --diff "$tmpdir/ev1.ndjson" "$tmpdir/ev1.ndjson" --top 3 \
  --min-delta-us 2.5e4 --min-delta-bytes 0 >/dev/null 2>&1 \
  || fail "whole --diff operands should be accepted"

# Malformed JSON mid-file (NOT at the end) is corruption, exit 3.
head -n 3 "$tmpdir/ev1.ndjson" > "$tmpdir/bad.ndjson"
echo '{"schema": 1, "ev": truncated' >> "$tmpdir/bad.ndjson"
tail -n 2 "$tmpdir/ev1.ndjson" >> "$tmpdir/bad.ndjson"
"$report" "$tmpdir/bad.ndjson" >/dev/null 2>&1
code=$?
[ "$code" -eq 3 ] || fail "mid-file corruption: expected exit 3, got $code"

# One torn FINAL line (a killed writer) is tolerated and reported.
head -n 5 "$tmpdir/ev1.ndjson" > "$tmpdir/torn.ndjson"
printf '{"schema": 1, "ev": "point_done", "ind' >> "$tmpdir/torn.ndjson"
"$report" "$tmpdir/torn.ndjson" > "$tmpdir/torn.txt" \
  || fail "one torn final line should be tolerated"
grep -q 'torn final line' "$tmpdir/torn.txt" \
  || fail "torn final line not reported"

# A future schema version is refused, not misread.
echo '{"schema": 999, "ev": "run_start", "run": "x", "shard": "0/1", "ts_ms": 0}' \
  > "$tmpdir/future.ndjson"
"$report" "$tmpdir/future.ndjson" >/dev/null 2>&1
code=$?
[ "$code" -eq 3 ] || fail "future schema: expected exit 3, got $code"

# --- 6. streams recorded with the simd_isa provenance field -----------------
sed 's/\("ev": "run_start".*"hardware_concurrency": [0-9]*\)}}$/\1, "simd_isa": "avx2"}}/' \
  "$tmpdir/ev1.ndjson" > "$tmpdir/evsimd.ndjson"
grep -q '"simd_isa": "avx2"}}$' "$tmpdir/evsimd.ndjson" \
  || fail "fixture: could not add simd_isa to the run_start provenance"
"$report" "$tmpdir/evsimd.ndjson" >/dev/null 2>&1 \
  || fail "stream with simd_isa: summary should exit 0"
"$report" --json "$tmpdir/evsimd.ndjson" > "$tmpdir/simd.json" 2>/dev/null \
  || fail "stream with simd_isa: --json should exit 0"
grep -q 'simd_isa' "$tmpdir/simd.json" \
  && fail "stream with simd_isa: --json still reports the field"
"$report" --canon "$tmpdir/evsimd.ndjson" > "$tmpdir/canonsimd.txt" \
  || fail "stream with simd_isa: --canon should exit 0"
cmp -s "$tmpdir/canonsimd.txt" "$tmpdir/canon1.txt" \
  || fail "simd_isa changed the canonical projection"

# --- 7. streams recorded with shard labels and shard_info events ------------
# Such a stream labels every line "shard": "i/N" after the run id, and a
# sharded run wrote a shard_info event right after its sweep_start.
sed -e 's/^\({"schema": [0-9]*, "ev": "[a-z_]*", "run": "[^"]*"\), /\1, "shard": "2\/4", /' \
  -e '/"ev": "sweep_start"/{p;s/"ev": "sweep_start"\(.*"ts_ms": [0-9]*\).*$/"ev": "shard_info"\1, "shard_index": 2, "shard_count": 4, "domain_size": 9, "sentinels": [0, 5, 10, 15]}/;}' \
  "$tmpdir/ev1.ndjson" > "$tmpdir/evshard.ndjson"
lines="$(wc -l < "$tmpdir/ev1.ndjson")"
labelled="$(grep -c '"shard": "2/4", "ts_ms"' "$tmpdir/evshard.ndjson")"
[ "$labelled" -eq $((lines + 1)) ] \
  || fail "fixture: $labelled of $((lines + 1)) lines carry a shard label"
grep -q '"ev": "shard_info", "run": "[^"]*", "shard": "2/4"' \
  "$tmpdir/evshard.ndjson" || fail "fixture: no shard_info event"
"$report" "$tmpdir/evshard.ndjson" >/dev/null 2>&1 \
  || fail "stream with shard labels: summary should exit 0"
"$report" --json "$tmpdir/evshard.ndjson" >/dev/null 2>&1 \
  || fail "stream with shard labels: --json should exit 0"
"$report" --canon "$tmpdir/evshard.ndjson" > "$tmpdir/canonshard.txt" \
  || fail "stream with shard labels: --canon should exit 0"
cmp -s "$tmpdir/canonshard.txt" "$tmpdir/canon1.txt" \
  || fail "shard labels changed the canonical projection"
"$report" --diff "$tmpdir/ev1.ndjson" "$tmpdir/evshard.ndjson" >/dev/null 2>&1
code=$?
[ "$code" -eq 0 ] || fail "--diff of the shard-labelled copy: expected exit 0, got $code"

# --- 8. streams recorded with domain_size in sweep_start --------------------
grep -q '"domain_size"' "$tmpdir/ev1.ndjson" \
  && fail "sweep_start still writes domain_size"
sed 's/\("ev": "sweep_start".*\)\(, "jobs": [0-9]*}\)$/\1, "domain_size": 20\2/' \
  "$tmpdir/ev1.ndjson" > "$tmpdir/evdomain.ndjson"
grep -q '"ev": "sweep_start".*"domain_size": 20, "jobs": 1}$' \
  "$tmpdir/evdomain.ndjson" \
  || fail "fixture: could not add domain_size to the sweep_start event"
"$report" "$tmpdir/evdomain.ndjson" > "$tmpdir/domain.txt" 2>&1 \
  || fail "stream with domain_size: summary should exit 0"
grep -q 'domain [0-9]' "$tmpdir/domain.txt" \
  && fail "stream with domain_size: the summary still reports it"
"$report" --json "$tmpdir/evdomain.ndjson" > "$tmpdir/domain.json" 2>/dev/null \
  || fail "stream with domain_size: --json should exit 0"
grep -q 'domain_size' "$tmpdir/domain.json" \
  && fail "stream with domain_size: --json still reports the field"
"$report" --canon "$tmpdir/evdomain.ndjson" > "$tmpdir/canondomain.txt" \
  || fail "stream with domain_size: --canon should exit 0"
cmp -s "$tmpdir/canondomain.txt" "$tmpdir/canon1.txt" \
  || fail "domain_size changed the canonical projection"
"$report" --diff "$tmpdir/evdomain.ndjson" "$tmpdir/ev1.ndjson" >/dev/null 2>&1
code=$?
[ "$code" -eq 0 ] || fail "--diff of the domain_size copy: expected exit 0, got $code"

# --- 9. out-of-range integers are malformed input ---------------------------
sed 's/"index": 0,/"index": -1,/' "$tmpdir/ev1.ndjson" > "$tmpdir/evneg.ndjson"
grep -q '"index": -1,' "$tmpdir/evneg.ndjson" \
  || fail "fixture: could not set a point index to -1"
"$report" "$tmpdir/evneg.ndjson" >/dev/null 2>&1
code=$?
[ "$code" -eq 3 ] || fail "index -1, summary: expected exit 3, got $code"
"$report" --canon "$tmpdir/evneg.ndjson" >/dev/null 2>&1
code=$?
[ "$code" -eq 3 ] || fail "index -1, --canon: expected exit 3, got $code"
"$report" --diff "$tmpdir/ev1.ndjson" "$tmpdir/evneg.ndjson" >/dev/null 2>&1
code=$?
[ "$code" -eq 3 ] || fail "index -1, --diff: expected exit 3, got $code"

if [ "$failures" -ne 0 ]; then
  echo "$failures telemetry check(s) failed" >&2
  exit 1
fi
echo "all telemetry checks passed"
