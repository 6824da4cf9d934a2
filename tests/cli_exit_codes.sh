#!/bin/sh
# Exercises uld3d_cli's exit-code discipline:
#   0 success, 2 usage error, 3 config error, 4 model/evaluation error.
# Usage: cli_exit_codes.sh /path/to/uld3d_cli
set -u

cli="$1"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
failures=0

check() {
  expected="$1"
  shift
  "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" -ne "$expected" ]; then
    echo "FAIL: expected exit $expected, got $got: $*" >&2
    failures=$((failures + 1))
  fi
}

# 0: success paths
check 0 "$cli" dump-config
check 0 "$cli" compare --network alexnet

# 2: usage errors
check 2 "$cli"
check 2 "$cli" frobnicate
check 2 "$cli" compare --bogus-flag
check 2 "$cli" arch --network alexnet   # arch without --config
check 2 "$cli" compare --network bogus  # a misspelt network name
check 2 "$cli" sweep --keep-going --progress  # no live progress display

# 3: config errors
check 3 "$cli" compare --config "$tmpdir/does_not_exist.ini"

printf '[study]\ncapacity_mb = -4\n' > "$tmpdir/bad_range.ini"
check 3 "$cli" compare --config "$tmpdir/bad_range.ini"

printf '[study]\ncapacity_mb = oops\n' > "$tmpdir/bad_value.ini"
check 3 "$cli" compare --config "$tmpdir/bad_value.ini"

# a PE count whose product overflows 64 bits is refused, not priced
printf '[arch]\nspatial_k = 4294967296\nspatial_c = 4294967296\n' > "$tmpdir/pe_overflow.ini"
check 3 "$cli" arch --config "$tmpdir/pe_overflow.ini"

# unknown-key typo: warning by default, fatal under --strict
printf '[study]\ncapcity_mb = 64\n' > "$tmpdir/typo.ini"
check 0 "$cli" compare --config "$tmpdir/typo.ini"
check 3 "$cli" compare --strict --config "$tmpdir/typo.ini"

# the typo warning (with suggestion) must land on stderr
stderr_out="$("$cli" compare --config "$tmpdir/typo.ini" 2>&1 >/dev/null)"
case "$stderr_out" in
  *did_you_mean=capacity_mb*) : ;;
  *) echo "FAIL: expected typo suggestion on stderr, got: $stderr_out" >&2
     failures=$((failures + 1)) ;;
esac

# 4: model errors.  A plain sweep fails fast on the grid's own infeasible
# points (n_cs > n_geom) and surfaces their StatusError.
check 4 "$cli" sweep

# an SRAM half thinner than the placer's bin quantization is refused by the
# placer (a model error), not committed into a collision (an internal one)
printf '[cs]\nsram_kb = 1e-20\n' > "$tmpdir/tiny_sram.ini"
check 4 "$cli" datasheet --config "$tmpdir/tiny_sram.ini"

# --keep-going: the grid's 7 infeasible points are all recorded, the sweep
# completes, and the summary lands on stderr
check 0 "$cli" sweep --keep-going
summary="$("$cli" sweep --keep-going 2>&1 >/dev/null)"
case "$summary" in
  *"7 of 20 design points failed"*) : ;;
  *) echo "FAIL: expected failure summary on stderr, got: $summary" >&2
     failures=$((failures + 1)) ;;
esac
# Every itemized point carries the same code: 7 lines name kInfeasiblePoint.
infeasible="$(printf '%s\n' "$summary" | grep -c ': kInfeasiblePoint: ')"
if [ "$infeasible" -ne 7 ]; then
  echo "FAIL: expected 7 kInfeasiblePoint lines, got $infeasible: $summary" >&2
  failures=$((failures + 1))
fi

if [ "$failures" -ne 0 ]; then
  echo "$failures exit-code check(s) failed" >&2
  exit 1
fi
echo "all exit-code checks passed"
