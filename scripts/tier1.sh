#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the full suite, then re-run
# the randomized stress tier (chaos tests) with a pinned seed so CI is
# reproducible. Override the seed by exporting HSPMV_TEST_SEED, or pass a
# build directory as the first argument (default: build).
#
# Optional lanes (first argument):
#   tier1.sh asan   — rebuild under AddressSanitizer, run the functional
#                     suite (bench-smoke excluded) in build-asan
#   tier1.sh ubsan  — same under UBSan (-fno-sanitize-recover) in
#                     build-ubsan
#   tier1.sh tsan   — same under ThreadSanitizer in build-tsan
#   tier1.sh lint   — static-analysis pass (scripts/lint.sh: hspmv-check,
#                     then clang-tidy when available, strict GCC
#                     warnings otherwise)
#   tier1.sh staticcheck — project-specific invariant analysis only:
#                     hspmv-check over the tree against the committed
#                     baseline (scripts/staticcheck.sh, writes
#                     ANALYSIS_report.json) plus the staticcheck-labeled
#                     ctest suite. Skips with a notice where the
#                     toolchain cannot build the tool.
#   tier1.sh resilience — repeated runs of the fault-tolerance suites
#                     (ctest -L resilience; docs/resilience.md) so flaky
#                     recovery interleavings surface before they land
# Without a lane argument the classic full tier-1 runs.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

sanitizer_lane() {
  local lane="$1" sanitize="$2"
  local lane_dir="${repo_root}/build-${lane}"
  cmake -B "${lane_dir}" -S "${repo_root}" -DHSPMV_SANITIZE="${sanitize}"
  cmake --build "${lane_dir}" -j
  # Full functional suite under the sanitizer; the benchmark smoke lane
  # is excluded (sanitizer timings are meaningless and slow).
  # Note: -j needs an explicit count here — a bare -j would swallow the
  # following -LE flag as its argument and silently drop the exclusion.
  ctest --test-dir "${lane_dir}" --output-on-failure -j "$(nproc)" \
    -LE bench-smoke
  # Dedicated pass over the blocked-SpMM suites: the bitwise
  # variant x backend x K equivalence claims must hold under the
  # sanitizers too (TSan especially — the K-wide halo exchange and
  # blocked kernels are new cross-thread surface).
  ctest --test-dir "${lane_dir}" --output-on-failure -L spmm
  # Elasticity tier under the sanitizer: the spawn rendezvous, joiner
  # threads entering live collectives and the migration alltoallv are
  # fresh cross-thread surface (the thread lane also gets the dedicated
  # tsan_* grow/shrink re-runs via the tsan label).
  ctest --test-dir "${lane_dir}" --output-on-failure -L elastic
}

case "${1:-}" in
  asan)
    sanitizer_lane asan address
    exit 0
    ;;
  ubsan)
    sanitizer_lane ubsan undefined
    exit 0
    ;;
  tsan)
    sanitizer_lane tsan thread
    exit 0
    ;;
  lint)
    "${repo_root}/scripts/lint.sh" "${2:-${repo_root}/build}"
    exit 0
    ;;
  staticcheck)
    lane_dir="${2:-${repo_root}/build}"
    # The analyzer run over the whole tree (graceful skip inside the
    # script when the tool cannot be built)...
    "${repo_root}/scripts/staticcheck.sh" "${lane_dir}"
    # ...plus the fixture/clean-tree suite, wherever the tests build.
    if cmake -B "${lane_dir}" -S "${repo_root}" >/dev/null &&
       cmake --build "${lane_dir}" -j --target test_hspmv_check \
         >/dev/null; then
      ctest --test-dir "${lane_dir}" --output-on-failure -L staticcheck
    else
      echo "staticcheck: test_hspmv_check unavailable; ctest lane skipped"
    fi
    exit 0
    ;;
  resilience)
    # Recovery paths are interleaving-sensitive (revocation racing
    # in-flight halo traffic, shrink rendezvous, checkpoint commit
    # windows): run the resilience label repeatedly to shake out flakes.
    lane_dir="${2:-${repo_root}/build}"
    repeats="${HSPMV_RESILIENCE_REPEATS:-5}"
    cmake -B "${lane_dir}" -S "${repo_root}"
    cmake --build "${lane_dir}" -j
    for ((i = 1; i <= repeats; ++i)); do
      echo "== resilience pass ${i}/${repeats} =="
      ctest --test-dir "${lane_dir}" --output-on-failure -L resilience
    done
    exit 0
    ;;
esac

build_dir="${1:-${repo_root}/build}"

# Fixed CI seed for the stress lane (tests/common/seeded_fixture.hpp uses
# the same value as its built-in default).
: "${HSPMV_TEST_SEED:=104372034215974}"  # 0x5eed02062026
export HSPMV_TEST_SEED

cmake -B "${build_dir}" -S "${repo_root}"
cmake --build "${build_dir}" -j

ctest --test-dir "${build_dir}" --output-on-failure -j

# The stress label selects the chaos suites; their timeouts double as the
# deadlock detector for the fault-injection error paths.
ctest --test-dir "${build_dir}" --output-on-failure -L stress

# The SIMD/autotune tier: SIMD-vs-scalar kernel equivalence per the
# documented bitwise/ulp policy, plus the autotuner cache/fingerprint/
# determinism suite (docs/performance.md).
ctest --test-dir "${build_dir}" --output-on-failure -L autotune

# The elasticity tier: Comm::spawn/grow, incremental repartitioning,
# elastic solvers/server and the traffic-scenario engine
# (docs/resilience.md "Elasticity").
ctest --test-dir "${build_dir}" --output-on-failure -L elastic

# Bench smoke lane: gather + thread-scaling microbenchmarks, medians over
# repetitions, written to BENCH_kernels.json in the build tree's bench/
# directory. Persisting the perf-trajectory artifact at the repo root is
# the explicit `scripts/bench_smoke.sh` step. Report-only unless
# BENCH_SMOKE_STRICT=1.
ctest --test-dir "${build_dir}" --output-on-failure -L bench-smoke
