#!/usr/bin/env bash
# Tier-1 verify sequence (CI entrypoint): configure, build, ctest.
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
# Goldens: every bench/scenarios/golden/<name>.csv is the byte-exact
# output of bench/scenarios/<name>.scenario at --threads=2, so a change
# that moves numbers (not just structure) fails here. A new golden is one
# new file; each spec's header says how to regenerate it after an
# intentional change. Each driver has its own pins: smoke covers the
# rounds and trace drivers; crawdad_trace pins the trace driver's
# timeline (a tick before a coinciding sample, the horizon inclusive);
# loss_sweep, async_latency and async_ties pin the async driver
# (async_ties: the same-instant drain/tick/drain/sample order). Beyond
# the drivers, heavy_hitters covers the keyed streams and churn_sweep
# two-sided membership churn under record.every (the skipped-round
# record path).
for golden in bench/scenarios/golden/*.csv; do
  name="$(basename "$golden" .csv)"
  "$BUILD_DIR"/dynagg_run --threads=2 --output="$BUILD_DIR/${name}_out.csv" \
    "bench/scenarios/$name.scenario"
  diff -u "$golden" "$BUILD_DIR/${name}_out.csv"
  echo "check.sh: $name scenario output matches golden"
done
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
