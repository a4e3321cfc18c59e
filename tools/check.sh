#!/usr/bin/env bash
# Tier-1 verify sequence (CI entrypoint): configure, build, ctest (the
# gtest suites, the example smoke runs and one golden_<name> test per
# bench/scenarios/golden file, `ctest -L golden`), then a --dry-run of
# every checked-in spec, the spec-grammar fuzzer's fixed corpus and the
# bench smoke.
# Usage: tools/check.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$JOBS"
# cd instead of --test-dir: the latter needs ctest >= 3.20, the project's
# declared minimum is 3.16.
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS")
# Every checked-in scenario spec must at least validate (registry lookups,
# record/aggregate/sweep grammar, driver compatibility) without executing.
"$BUILD_DIR"/dynagg_run --dry-run bench/scenarios/*.scenario
# Spec-grammar fuzzer, fixed corpus: 500 generated/mutated specs, each of
# which must either fail --dry-run with an actionable diagnostic or
# execute clean — any runtime-only rejection is a validation gap and dumps
# a fuzz_repro_*.scenario artifact.
mkdir -p "$BUILD_DIR/fuzz"
"$BUILD_DIR"/dynagg_fuzz --seed-corpus --out-dir="$BUILD_DIR/fuzz"
echo "check.sh: fuzz seed corpus clean"
# Perf smoke: the round-kernel microbenchmarks must still run and the
# 100k-host scale spec must validate. The full perf snapshot
# (BENCH_roundkernel.json) is regenerated with `tools/bench.sh`.
tools/bench.sh --smoke "$BUILD_DIR"
