#!/usr/bin/env bash
# Which library functions does no shipped binary reach?
#
#   bash tools/unreached.sh <build-dir>
#
# Configures and builds the whole project into <build-dir> (its own tree,
# not the tier-1 one) at -O0 with one section per function and
# -Wl,--gc-sections, with the job benchmark attached through
# jobbench/attach.cmake.  The linker then keeps exactly the functions each
# executable can reach.  A strong function is a global text symbol (nm type
# T) of a lo_* library; inline and template functions are weak and are not
# counted.  The shipped binaries are the executables under tools/, bench/
# and examples/ plus jobbench; the test binaries are those under tests/
# plus jobbench_tests.
#
# Prints the strong functions kept by no binary, those kept only by test
# binaries (each line names its library) and the counts, then, for
# information only, every lo:: function kept only by test binaries, inline
# and template ones included.  That last list leaves out anonymous
# namespaces, lo::testkit (the test-support library, whose strong functions
# the second list shows), the special members compilers define implicitly
# (default, copy and move constructors, copy and move assignments,
# destructors), and helpers defined under tests/, which the line tables of
# -g1 locate.  Exits 1 when the first list is not empty, whatever the last
# one holds.  The build log is <build-dir>/unreached-build.log.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mkdir -p "$1"
build="$(cd "$1" && pwd)"
log="$build/unreached-build.log"

if ! {
  cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0 \
    -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections -g1" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" \
    -DCMAKE_PROJECT_INCLUDE="$root/jobbench/attach.cmake"
  cmake --build "$build" -j4
} >"$log" 2>&1; then
  tail -n 30 "$log" >&2
  echo "unreached: build failed (full log: $log)" >&2
  exit 2
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# "<library> <demangled name>" for every strong function of every lo_* library.
# A constructor or destructor has two symbols and one name.
for lib in "$build"/src/*/liblo_*.a; do
  name="$(basename "$lib" .a)"
  nm --defined-only "$lib" | awk '$2 == "T" { print $3 }' | tee -a "$work/symbols" |
    c++filt | sed "s/^/${name#lib} /"
done | sort -u -k2 >"$work/strong"
cut -d' ' -f2- "$work/strong" >"$work/strong.names"

# The demangled names of the functions a set of executables keeps.
kept() {
  for bin in "$@"; do
    nm --defined-only "$bin" | awk '$2 == "T" || $2 == "t" { print $3 }'
  done | c++filt | sort -u
}
executables() {
  find "$@" -maxdepth 1 -type f -perm -u+x 2>/dev/null
}
mapfile -t shipped < <(executables "$build/tools" "$build/bench" "$build/examples";
                       echo "$build/jobbench/jobbench")
mapfile -t tests < <(executables "$build/tests"; echo "$build/jobbench/jobbench_tests")
kept "${shipped[@]}" >"$work/shipped"
kept "${tests[@]}" >"$work/tests"

# Restrict to the library functions, keeping each line's library name.
select_names() {  # <names file>: the lines of $work/strong whose name is listed
  awk 'NR == FNR { want[$0] = 1; next }
       { name = $0; sub(/^[^ ]+ /, "", name); if (name in want) print }' "$1" "$work/strong"
}
comm -23 "$work/strong.names" "$work/shipped" >"$work/unshipped"
comm -23 "$work/unshipped" "$work/tests" >"$work/none.names"
comm -12 "$work/unshipped" "$work/tests" >"$work/tests_only.names"
select_names "$work/none.names" >"$work/none"
select_names "$work/tests_only.names" >"$work/tests_only"

echo "== strong lo_* functions kept by no binary"
cat "$work/none"
echo "== strong lo_* functions kept only by test binaries"
cat "$work/tests_only"
echo "== counts"
echo "strong functions: $(wc -l <"$work/strong") ($(sort -u "$work/symbols" | wc -l) symbols)"
echo "kept by a shipped binary: $(($(wc -l <"$work/strong") - $(wc -l <"$work/unshipped")))"
echo "kept only by tests: $(wc -l <"$work/tests_only")" \
  "(outside lo_testkit: $(grep -vc '^lo_testkit ' "$work/tests_only" || true))"
echo "kept by no binary: $(wc -l <"$work/none")"
echo "binaries: ${#shipped[@]} shipped, ${#tests[@]} test"

# "<binary> <address> <mangled>" for every lo:: function outside anonymous
# namespaces that each binary keeps, weak ones included.
lo_text() {
  for bin in "$@"; do
    nm --defined-only "$bin" | awk -v bin="$bin" \
      '$2 ~ /^[TtWw]$/ && $3 ~ /^_ZNK?2lo/ && $3 !~ /_GLOBAL__N/ { print bin, $1, $3 }'
  done
}
lo_text "${shipped[@]}" | cut -d' ' -f3 | sort -u >"$work/shipped.lo"
# One test binary per symbol, then its source file from that binary.
lo_text "${tests[@]}" | sort -k3,3 -u |
  awk 'NR == FNR { shipped[$0] = 1; next } !($3 in shipped)' "$work/shipped.lo" - |
  sort -k1,1 >"$work/tests.lo"
for bin in $(cut -d' ' -f1 "$work/tests.lo" | uniq); do
  awk -v bin="$bin" '$1 == bin { print $3 }' "$work/tests.lo" >"$work/bin.syms"
  awk -v bin="$bin" '$1 == bin { print "0x" $2 }' "$work/tests.lo" |
    addr2line -e "$bin" | paste -d' ' "$work/bin.syms" -
done | awk -v tests="$root/tests/" 'index($2, tests) != 1 { print $1 }' | c++filt |
  grep -v '^lo::testkit::' |
  # Default, copy and move constructors, copy and move assignments, destructors.
  grep -Ev '^((.*::)?([A-Za-z_][A-Za-z_0-9]*)(<.*>)?)::(~?\3|operator=)\((\1 const&|\1&&)?\)$' |
  sort -u >"$work/tests_only_all" || true
echo "== lo:: functions kept only by test binaries, inline and template ones included"
cat "$work/tests_only_all"
echo "count: $(wc -l <"$work/tests_only_all")"

[ ! -s "$work/none" ]
