#!/bin/sh
# Run the CI jobs' build-and-test legs on one machine.
#
# Usage: tools/ci_local.sh [OUT_DIR [LEG...]]
#
# LEG is any of release, e2e, bench, march-v3, asan and tsan (default: all
# six, in that order).  Each leg prints its name and the script stops at
# the first failure.  Build trees go under OUT_DIR (default build-ci):
#   release  Release tree + ctest, then the release job's later steps
#            (the getenv allowlist, the observability, telemetry and diff
#            smokes and the cross-run reuse check), run from ci.yml's own
#            scripts in OUT_DIR/release-steps      (CI job "release")
#   e2e      bench/e2e's own package + its ctest    (CI job "release")
#   bench    the Release tree, tools/run_benches.sh into OUT_DIR/bench_out
#            and uld3d-bench-compare against bench/baselines at the CI
#            tolerances                              (CI job "bench")
#   march-v3 a Release tree with -march=x86-64-v3, ctest, the suite and the
#            same compare                            (CI job "march-v3";
#            the host needs AVX2, FMA, BMI2 and MOVBE)
#   asan     ASan+UBSan tree with -D_GLIBCXX_ASSERTIONS, the full ctest and
#            the ULD3D_JOBS=4 label set, then the sanitize job's later steps
#            (bench smoke to crash postmortem), run from ci.yml's own scripts
#            and env blocks in OUT_DIR/asan-steps   (CI job "sanitize")
#   tsan     googletest built from /usr/src/googletest with
#            -fsanitize=thread into OUT_DIR/gtest-tsan, a TSan tree against
#            it, and the label set at ULD3D_JOBS=8  (CI job "tsan")
# The configure flags, ctest lines and compare tolerances are those of
# .github/workflows/ci.yml, built with the host's default compiler (CI pins
# g++-12 for the two bench legs).  The compare fails only on fidelity: its
# timing verdict is advisory, as in CI.
# bench_e2e_smoke (the e2e leg) reads timing bounds from two samples and
# can fail on a busy host; re-run the leg before suspecting the code.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
out=${1:-build-ci}
[ "$#" -gt 0 ] && shift
legs=${*:-release e2e bench march-v3 asan tsan}
jobs=$(nproc)
mkdir -p "$out"
out=$(cd "$out" && pwd)
cd "$root"

leg() {
  echo "== $1 =="
}

# The `run: |` script of the ci.yml step named $1 (a prefix of its name),
# preceded by one export line per entry of the step's `env:` block.
ci_step() {
  awk -v name="- name: $1" '
    index($0, name) { found = 1; next }
    found && !inrun && /^ *- name: / { exit }
    found && !inrun && /^ *env:$/ { inenv = 1; next }
    inenv && /^ *[A-Z][A-Z0-9_]*: / {
      sub(/^ */, "export "); sub(/: /, "=\047"); print $0 "\047"; next
    }
    { inenv = 0 }
    found && /^ *run: \|$/ { match($0, /^ */); key = RLENGTH; inrun = 1; next }
    inrun {
      match($0, /^ */)
      if ($0 != "" && RLENGTH <= key) exit
      print substr($0, key + 3)
    }' "$root/.github/workflows/ci.yml"
}

# Run ci.yml's step $1 as the runner does (bash -e with pipefail), in the
# current directory, against build tree $2 where it names ./build.
run_ci_step() {
  script=$(ci_step "$1")
  [ -n "$script" ] || { echo "ci.yml has no step '$1'" >&2; return 1; }
  echo "-- $1"
  bash --noprofile --norc -eo pipefail \
    -c "$(printf '%s\n' "$script" | sed "s#\./build/#$2/#g")"
}

# The bench suite of build tree $1 into $1-bench, compared with the
# committed baselines as the CI bench job compares it.
bench_compare() {
  ./tools/run_benches.sh "$1" "$1-bench"
  "$1/tools/uld3d-bench-compare" bench/baselines/BENCH_all.json \
    "$1-bench/BENCH_all.json" --time-tol 15% --value-tol 1e-7 --time-advisory
}

for name in $legs; do
  case "$name" in
    release)
      leg release
      cmake -B "$out/release" -S . -DCMAKE_BUILD_TYPE=Release
      cmake --build "$out/release" -j"$jobs"
      ctest --test-dir "$out/release" --output-on-failure -j"$jobs"
      run_ci_step 'No new environment hooks' "$out/release"
      mkdir -p "$out/release-steps" && cd "$out/release-steps"
      for step in 'Observability smoke' 'Telemetry smoke' 'Diff smoke' \
        'Cross-run reuse'; do
        run_ci_step "$step" "$out/release"
      done
      cd "$root"
      ;;
    e2e)
      leg e2e
      cmake -S bench/e2e -B .bench_build/e2e
      cmake --build .bench_build/e2e -j"$jobs"
      ctest --test-dir .bench_build/e2e -L bench_e2e --output-on-failure
      ;;
    bench)
      leg bench
      cmake -B "$out/release" -S . -DCMAKE_BUILD_TYPE=Release
      cmake --build "$out/release" -j"$jobs"
      bench_compare "$out/release"
      ;;
    march-v3)
      leg march-v3
      cmake -B "$out/march-v3" -S . -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_FLAGS=-march=x86-64-v3
      cmake --build "$out/march-v3" -j"$jobs"
      ctest --test-dir "$out/march-v3" --output-on-failure -j"$jobs"
      bench_compare "$out/march-v3"
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
      mkdir -p "$out/asan-steps" && cd "$out/asan-steps"
      for step in 'Bench smoke under sanitizers' \
        'Corrupt map-cache refusal under ASan' 'Checkpoint soak under ASan' \
        'Interrupted telemetry under ASan' 'Crash postmortem under ASan'; do
        run_ci_step "$step" "$out/asan"
      done
      cd "$root"
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
      echo "unknown leg: $name (release, e2e, bench, march-v3, asan or tsan)" >&2
      exit 2
      ;;
  esac
  echo "== $name passed =="
done
