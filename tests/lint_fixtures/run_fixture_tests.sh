#!/usr/bin/env bash
# Exercises scripts/lint_protocol.py against the planted-violation
# fixtures: every bad fixture must fail with a diagnostic pointing at
# its planted line, and the clean fixture must pass. Run from anywhere;
# the repo root is derived from this script's location.
set -u

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
LINT="python3 ${ROOT}/scripts/lint_protocol.py --root ${ROOT} --no-metrics"
FIXTURES="${ROOT}/tests/lint_fixtures"
failures=0

# expect_fail <fixture> <rule-tag> <line> [message-substring]
expect_fail() {
  local fixture="$1" rule="$2" line="$3" message="${4:-}"
  local out
  out="$(${LINT} "${FIXTURES}/${fixture}" 2>&1)"
  local status=$?
  if [ "${status}" -eq 0 ]; then
    echo "FAIL: ${fixture}: linter exited 0, expected nonzero"
    failures=$((failures + 1))
    return
  fi
  if ! echo "${out}" | grep "${fixture}:${line}: \[${rule}\]" |
      grep -qF -- "${message}"; then
    echo "FAIL: ${fixture}: no [${rule}] diagnostic at line ${line}" \
         "${message:+containing '${message}'}; got:"
    echo "${out}"
    failures=$((failures + 1))
    return
  fi
  echo "PASS: ${fixture} -> [${rule}] at line ${line}"
}

expect_fail naked_mutex.cc naked-mutex 15
expect_fail acquire_without_release.cc acquire-without-release 10
# Both tiers are declared, so the diagnostic must be the inversion itself,
# not an unknown-tier complaint.
expect_fail lock_order_inversion.cc lock-order 20 \
  "no 'net.inbox -> engine.out' edge"
expect_fail relaxed_no_mo.cc memory-order 18

out="$(${LINT} "${FIXTURES}/clean.cc" 2>&1)"
if [ $? -ne 0 ]; then
  echo "FAIL: clean.cc: linter exited nonzero; got:"
  echo "${out}"
  failures=$((failures + 1))
else
  echo "PASS: clean.cc lints clean"
fi

if [ "${failures}" -ne 0 ]; then
  echo "${failures} fixture test(s) failed"
  exit 1
fi
echo "all lint fixture tests passed"
