#!/bin/sh
# Golden test for streamline-analyzer.
#
#   run_fixture_test.sh <path-to-streamline-analyzer>
#
# Runs the analyzer over the fixture corpus and compares the diagnostics
# byte-for-byte against testdata/expected.txt (which demonstrates, for every
# check, one firing case, one waived case, and one clean case -- clean cases
# prove themselves by their absence). Also asserts the exit-code contract:
# 1 for the firing corpus, 0 with empty stdout for a waiver-only scope, and
# 2 for a bad invocation.
set -u

if [ $# -ne 1 ]; then
  echo "usage: $0 <streamline-analyzer binary>" >&2
  exit 2
fi
analyzer=$1
cd "$(dirname "$0")"

fail=0

# 1. Firing corpus: exit 1, output matches the golden file exactly.
out=$("$analyzer" --src testdata/fixture_src 2>/dev/null)
status=$?
if [ "$status" -ne 1 ]; then
  echo "FAIL: expected exit 1 on fixture corpus, got $status" >&2
  fail=1
fi
if ! printf '%s\n' "$out" | diff -u testdata/expected.txt -; then
  echo "FAIL: diagnostics differ from testdata/expected.txt" >&2
  echo "      (if the change is intentional, regenerate with:" >&2
  echo "       streamline-analyzer --src testdata/fixture_src > testdata/expected.txt)" >&2
  fail=1
fi

# 2. Single-check scoping: only that check's diagnostics appear.
out=$("$analyzer" --src testdata/fixture_src --check lock-order-cycle \
      2>/dev/null)
status=$?
if [ "$status" -ne 1 ]; then
  echo "FAIL: expected exit 1 with --check lock-order-cycle, got $status" >&2
  fail=1
fi
if printf '%s\n' "$out" | grep -q 'block-in-morsel\|record-copy\|nondeterminism'; then
  echo "FAIL: --check lock-order-cycle leaked other checks' diagnostics" >&2
  fail=1
fi
if ! printf '%s\n' "$out" | grep -q 'lock-order cycle: InvertedPair'; then
  echo "FAIL: --check lock-order-cycle missed the InvertedPair cycle" >&2
  fail=1
fi

# 3. Usage errors exit 2.
"$analyzer" >/dev/null 2>&1
if [ $? -ne 2 ]; then
  echo "FAIL: expected exit 2 with no arguments" >&2
  fail=1
fi
"$analyzer" --src testdata/no_such_dir >/dev/null 2>&1
if [ $? -ne 2 ]; then
  echo "FAIL: expected exit 2 on missing directory" >&2
  fail=1
fi

# 4. --list-waivers inventories every allow comment in the corpus.
count=$("$analyzer" --src testdata/fixture_src --list-waivers | wc -l)
if [ "$count" -ne 9 ]; then
  echo "FAIL: expected 9 waivers from --list-waivers, got $count" >&2
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "PASS: analyzer fixture golden test"
fi
exit "$fail"
