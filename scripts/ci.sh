#!/usr/bin/env bash
# CI driver: release build + full suite, a runtime budget on the fast
# suite, explicit chaos/trace labeled subsets, then the sanitizer
# presets over the concurrency-heavy suites — including test_trace,
# whose snapshot-while-writing test is the one the trace ring's
# relaxed-atomic slot design exists to keep race-free — and the chaos
# suites under asan. Every ctest run
# goes through run_ctest so a failing subset is named and its exit
# status propagated, never masked by the EXIT trap's preset message.
#
# Environment knobs:
#   FAST_BUDGET_S  fast-suite wall-clock budget in seconds (default 120)
#   SKIP_SANITIZERS=1  release build + budget check only
set -euo pipefail
set -o pipefail
cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || echo 4)
FAST_BUDGET_S=${FAST_BUDGET_S:-120}

# Name of the preset currently being driven, for the failure trap: a
# plain `set -e` exit says nothing about WHICH preset died, and the
# tsan/asan loop makes that the first question every triage asks.
CURRENT_PRESET=default
trap 'status=$?; if [ "$status" -ne 0 ]; then
        echo "ci.sh: FAILED (exit $status) while driving preset '\''${CURRENT_PRESET}'\''" >&2
      fi' EXIT

# run_preset NAME — configure + build + full ctest for one configure
# preset. Each stage is checked explicitly so a configure failure (bad
# generator, missing toolchain) exits non-zero instead of letting a
# stale build tree masquerade as a pass.
run_preset() {
  CURRENT_PRESET=$1
  if ! cmake --preset "$1"; then
    echo "ci.sh: configure failed for preset '$1'" >&2
    exit 1
  fi
  if ! cmake --build --preset "$1" -j"$JOBS"; then
    echo "ci.sh: build failed for preset '$1'" >&2
    exit 1
  fi
}

# run_ctest LABEL CMD... — explicit pass/fail guard around a ctest
# invocation. Every ctest below goes through this instead of leaning on
# `set -e`: a bare failing ctest surfaces only as the generic trap
# message for whatever CURRENT_PRESET happens to be, which has twice
# let a later-label failure read like an infra hiccup on the preceding
# stage. The guard names the exact subset that died and propagates its
# real exit status.
run_ctest() {
  local label=$1
  shift
  local status=0
  "$@" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "ci.sh: ctest subset '${label}' FAILED (exit $status)" >&2
    exit "$status"
  fi
}

run_preset default
run_ctest "default-full" ctest --test-dir build --output-on-failure -j"$JOBS"

# Budget check: the sanitizer loops below iterate on `ctest -L fast`,
# so the fast suite staying fast is itself a CI invariant.
start=$(date +%s)
run_ctest "default-fast" ctest --test-dir build -L fast --output-on-failure
elapsed=$(( $(date +%s) - start ))
echo "fast suite: ${elapsed}s (budget ${FAST_BUDGET_S}s)"
if [ "$elapsed" -gt "$FAST_BUDGET_S" ]; then
  echo "error: 'ctest -L fast' took ${elapsed}s, over the ${FAST_BUDGET_S}s budget" >&2
  exit 1
fi

# Labeled subsets after the budget check, mirroring ci.yml's
# Release-only chaos|trace step. These ran inside the full suite above,
# but running them again as named subsets means a chaos-only or
# trace-only failure is reported as exactly that — and the explicit
# run_ctest guard propagates the nonzero exit instead of letting the
# EXIT trap's preset-oriented message mask which label died.
run_ctest "default-chaos" ctest --test-dir build -L chaos --output-on-failure
run_ctest "default-trace" ctest --test-dir build -L trace --output-on-failure

if [ "${SKIP_SANITIZERS:-0}" = "1" ]; then
  echo "SKIP_SANITIZERS=1: done."
  CURRENT_PRESET=done
  exit 0
fi

for preset in tsan asan; do
  run_preset "$preset"
  run_ctest "$preset-fast" ctest --preset "$preset-fast"
  run_ctest "$preset-trace" ctest --preset "$preset-trace"
done
# The fault schedules over the production allocator path: the tensor
# block pool runs under ASan exactly as in Release.
start=$(date +%s)
run_ctest "asan-chaos" ctest --preset asan-chaos -j"$JOBS"
echo "asan-chaos: $(( $(date +%s) - start ))s"
CURRENT_PRESET=done
