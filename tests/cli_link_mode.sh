#!/bin/sh
# Checks how the command-line tools are linked (DESIGN.md §18):
#
#   static   a position-independent executable (ELF type DYN) with no INTERP
#            program header and no NEEDED dynamic entry, so it starts without
#            the dynamic loader.  A plain -static link (type EXEC) fails.
#   dynamic  an INTERP program header is present.
#
# Usage: cli_link_mode.sh READELF static|dynamic TOOL...
set -u

readelf="$1"
mode="$2"
shift 2
failures=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

for tool in "$@"; do
  headers="$("$readelf" -lW "$tool")" || { fail "readelf -l $tool"; continue; }
  dynamic="$("$readelf" -dW "$tool")" || { fail "readelf -d $tool"; continue; }
  if [ "$mode" = static ]; then
    printf '%s\n' "$headers" | grep -q 'Elf file type is DYN' \
      || fail "$tool is not position-independent"
    printf '%s\n' "$headers" | grep -q INTERP \
      && fail "$tool has an INTERP header (dynamically linked)"
    printf '%s\n' "$dynamic" | grep -q '(NEEDED)' \
      && fail "$tool needs shared libraries"
  else
    printf '%s\n' "$headers" | grep -q INTERP \
      || fail "$tool has no INTERP header (statically linked)"
  fi
done

if [ "$failures" -ne 0 ]; then
  echo "$failures link-mode check(s) failed" >&2
  exit 1
fi
echo "cli_link_mode: $# tools linked $mode"
exit 0
