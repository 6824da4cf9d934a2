#!/bin/sh
# Run the CI jobs' build-and-test legs on one machine.
#
# Usage: tools/ci_local.sh [OUT_DIR [LEG...]]
#
# LEG is any of release, e2e, asan and tsan (default: all four, in that
# order).  Each leg prints its name and the script stops at the first
# failure.  Build trees go under OUT_DIR (default build-ci):
#   release  Release tree + ctest                  (CI job "release")
#   e2e      bench/e2e's own package + its ctest    (CI job "release")
#   asan     ASan+UBSan tree with -D_GLIBCXX_ASSERTIONS, the full ctest and
#            the ULD3D_JOBS=4 label set             (CI job "sanitize")
#   tsan     googletest built from /usr/src/googletest with
#            -fsanitize=thread into OUT_DIR/gtest-tsan, a TSan tree against
#            it, and the label set at ULD3D_JOBS=8  (CI job "tsan")
# The configure flags and ctest lines are those of .github/workflows/ci.yml.
# bench_e2e_smoke (the e2e leg) reads timing bounds from two samples and
# can fail on a busy host; re-run the leg before suspecting the code.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
out=${1:-build-ci}
[ "$#" -gt 0 ] && shift
legs=${*:-release e2e asan tsan}
jobs=$(nproc)
mkdir -p "$out"
out=$(cd "$out" && pwd)
cd "$root"

leg() {
  echo "== $1 =="
}

for name in $legs; do
  case "$name" in
    release)
      leg release
      cmake -B "$out/release" -S . -DCMAKE_BUILD_TYPE=Release
      cmake --build "$out/release" -j"$jobs"
      ctest --test-dir "$out/release" --output-on-failure -j"$jobs"
      ;;
    e2e)
      leg e2e
      cmake -S bench/e2e -B .bench_build/e2e
      cmake --build .bench_build/e2e -j"$jobs"
      ctest --test-dir .bench_build/e2e -L bench_e2e --output-on-failure
      ;;
    asan)
      leg asan
      cmake -B "$out/asan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DULD3D_SANITIZE=ON -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS
      cmake --build "$out/asan" -j"$jobs"
      ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
      UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
        ctest --test-dir "$out/asan" --output-on-failure -j"$jobs"
      ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
      UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 ULD3D_JOBS=4 \
        ctest --test-dir "$out/asan" --output-on-failure -j"$jobs" \
        -L 'test_dse|test_mapper|test_util_parallel|test_phys'
      ;;
    tsan)
      leg tsan
      cmake -B "$out/gtest-tsan-build" -S /usr/src/googletest \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread -g" \
        -DCMAKE_INSTALL_PREFIX="$out/gtest-tsan"
      cmake --build "$out/gtest-tsan-build" -j"$jobs"
      cmake --install "$out/gtest-tsan-build"
      cmake -B "$out/tsan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DULD3D_SANITIZE=thread -DGTest_DIR="$out/gtest-tsan/lib/cmake/GTest"
      cmake --build "$out/tsan" -j"$jobs"
      TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" ULD3D_JOBS=8 \
        ctest --test-dir "$out/tsan" --output-on-failure -j2 \
        -L 'test_dse|test_mapper|test_util|test_phys'
      ;;
    *)
      echo "unknown leg: $name (release, e2e, asan or tsan)" >&2
      exit 2
      ;;
  esac
  echo "== $name passed =="
done
