#!/usr/bin/env bash
# Job-level benchmark entry point.  Builds losynthd, lorouter and the
# jobbench program from this checkout (incrementally, into
# $CARGO_TARGET_DIR or .bench_build), then runs jobbench:
#
#   bash jobbench/run.sh --workload synth_cold --seed 1 --seconds 25 --trace 0
#   bash jobbench/run.sh --tests          # the benchmark's own unit tests
#
# Build output goes to <build>/build.log; stdout carries only jobbench's
# report, whose last line is the JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
log="$build/build.log"

targets=(losynthd lorouter jobbench)
[ "${1:-}" = "--tests" ] && targets=(jobbench_tests)

if ! {
  if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S "$root" -B "$build" -DCMAKE_PROJECT_INCLUDE="$root/jobbench/attach.cmake"
  fi
  cmake --build "$build" -j4 --target "${targets[@]}"
} >"$log" 2>&1; then
  tail -n 30 "$log" >&2
  echo "jobbench: build failed (full log: $log)" >&2
  exit 1
fi

if [ "${1:-}" = "--tests" ]; then
  exec "$build/jobbench/jobbench_tests"
fi
exec "$build/jobbench/jobbench" --tools "$build/tools" --work "$build/runs" \
  --goldens "$root/jobbench/goldens" "$@"
