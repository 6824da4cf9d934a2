#!/bin/sh
# Integration test for cross-run computation reuse (DESIGN.md §17):
#
#  1. A --mapper sweep run twice against one --mapcache-file is byte-identical
#     on stdout, and the second (warm) run's metrics show nonzero
#     mapper.mapcache.file_hits and file_loads with zero file_appends.  The
#     warm run leaves the store in place: same inode, so it was not
#     rewritten.
#  2. ULD3D_MAPCACHE_FILE mirrors the flag.
#  3. A corrupted cache file is refused with exit 3 (config error) before
#     any work runs; ULD3D_NO_MAPCACHE_FILE bypasses the file layer and the
#     same run exits 0.
#
# Usage: cli_mapcache.sh /path/to/uld3d_cli
set -u

cli="$1"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
failures=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# Metric check: the named counter's exported value is nonzero / zero (a
# counter that was never touched may be absent entirely — that counts as 0).
metric_nonzero() { # file name
  grep "\"name\": \"$2\"" "$1" | grep -q '"value": [1-9]'
}
metric_zero() { # file name
  ! metric_nonzero "$1" "$2"
}

store="$tmpdir/mapcache.bin"

# --- 1. cold run, then warm run: byte-identical, file hits counted ----------
"$cli" sweep --mapper --keep-going --jobs 4 --mapcache-file "$store" \
  --metrics "$tmpdir/cold.json" \
  > "$tmpdir/cold.out" 2> "$tmpdir/cold.err" || fail "cold mapper sweep failed"
[ -s "$store" ] || fail "cold run left no cache file"
metric_nonzero "$tmpdir/cold.json" mapper.mapcache.file_appends \
  || fail "cold run appended nothing to the store"
metric_zero "$tmpdir/cold.json" mapper.mapcache.file_loads \
  || fail "cold run claims to have loaded entries"

inode() { ls -i "$1" | awk '{print $1}'; }
cold_inode="$(inode "$store")"
"$cli" sweep --mapper --keep-going --jobs 4 --mapcache-file "$store" \
  --metrics "$tmpdir/warm.json" \
  > "$tmpdir/warm.out" 2> "$tmpdir/warm.err" || fail "warm mapper sweep failed"
[ "$(inode "$store")" = "$cold_inode" ] \
  || fail "warm run rewrote a store it added nothing to"
cmp -s "$tmpdir/cold.out" "$tmpdir/warm.out" \
  || fail "warm-cache stdout differs from cold run"
metric_nonzero "$tmpdir/warm.json" mapper.mapcache.file_hits \
  || fail "warm run shows no file hits"
metric_nonzero "$tmpdir/warm.json" mapper.mapcache.file_loads \
  || fail "warm run loaded nothing"
metric_zero "$tmpdir/warm.json" mapper.mapcache.file_appends \
  || fail "warm run appended entries it should already have"
metric_zero "$tmpdir/warm.json" mapper.mapcache.misses \
  || fail "warm run missed the cache"

# --- 2. env var mirrors the flag --------------------------------------------
env ULD3D_MAPCACHE_FILE="$store" "$cli" sweep --mapper --keep-going --jobs 4 \
  --metrics "$tmpdir/env.json" > "$tmpdir/env.out" 2> /dev/null \
  || fail "sweep under ULD3D_MAPCACHE_FILE exited non-zero"
cmp -s "$tmpdir/cold.out" "$tmpdir/env.out" \
  || fail "ULD3D_MAPCACHE_FILE stdout differs"
metric_nonzero "$tmpdir/env.json" mapper.mapcache.file_hits \
  || fail "ULD3D_MAPCACHE_FILE run shows no file hits"

# --- 3. corrupt store: refused with exit 3; escape hatch bypasses it --------
cp "$store" "$tmpdir/corrupt.bin"
# Flip one mid-file byte (printf octal escape keeps this POSIX-portable).
printf '\252' | dd of="$tmpdir/corrupt.bin" bs=1 seek=100 conv=notrunc 2>/dev/null
"$cli" sweep --mapper --keep-going --mapcache-file "$tmpdir/corrupt.bin" \
  > /dev/null 2> "$tmpdir/corrupt.err"
[ $? -eq 3 ] || fail "corrupt cache file should exit 3 (config error)"
grep -qi "checksum\|map-cache" "$tmpdir/corrupt.err" \
  || fail "corrupt-cache refusal does not name the cache file problem"

env ULD3D_NO_MAPCACHE_FILE=1 "$cli" sweep --mapper --keep-going \
  --mapcache-file "$tmpdir/corrupt.bin" > "$tmpdir/nofile.out" 2> /dev/null \
  || fail "ULD3D_NO_MAPCACHE_FILE should ignore the corrupt store and exit 0"
cmp -s "$tmpdir/cold.out" "$tmpdir/nofile.out" \
  || fail "ULD3D_NO_MAPCACHE_FILE stdout differs"

# A truncated store is refused too.
head -c 40 "$store" > "$tmpdir/trunc.bin"
"$cli" sweep --mapper --keep-going --mapcache-file "$tmpdir/trunc.bin" \
  > /dev/null 2>&1
[ $? -eq 3 ] || fail "truncated cache file should exit 3"

if [ "$failures" -ne 0 ]; then
  echo "$failures mapcache check(s) failed" >&2
  exit 1
fi
echo "cli_mapcache: all checks passed"
exit 0
