#!/usr/bin/env bash
# Bench smoke lane: run the thread-scaling, halo-gather and dot
# microbenchmarks with repetitions and write the median-aggregated
# google-benchmark JSON to BENCH_kernels.json at the repository root —
# the perf-trajectory artifact future PRs diff against. Run it by hand to
# persist that file; the bench_smoke ctest writes into the build tree.
#
# Environment:
#   BENCH_SMOKE_BIN    kernels_micro binary (default: build/bench/kernels_micro)
#   BENCH_SMOKE_OUT    output JSON path (default: <repo>/BENCH_kernels.json;
#                      the bench_smoke ctest points it into the build tree)
#   BENCH_SMOKE_REPS   benchmark repetitions (default: 5)
#   BENCH_SMOKE_STRICT 1 = fail if the team gather does not beat the
#                      serial gather at 2 threads (default: report only —
#                      CI hosts can be 1-core and noisy)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
bin="${BENCH_SMOKE_BIN:-${repo_root}/build/bench/kernels_micro}"
out="${BENCH_SMOKE_OUT:-${repo_root}/BENCH_kernels.json}"
reps="${BENCH_SMOKE_REPS:-5}"

if [[ ! -x "${bin}" ]]; then
  echo "bench_smoke: kernels_micro not found at ${bin} (build first)" >&2
  exit 1
fi

# BENCH_kernels.json is the perf-trajectory artifact future PRs diff
# against: numbers from a non-Release binary would poison that record.
# Refuse to (over)write it unless the binary's build tree says Release.
build_dir="$(cd "$(dirname "${bin}")/.." && pwd)"
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
  "${build_dir}/CMakeCache.txt" 2>/dev/null || true)"
if [[ "${build_type}" != "Release" ]]; then
  echo "bench_smoke: refusing to write ${out}: ${bin} comes from a" \
       "'${build_type:-unknown}' build tree (${build_dir}), need Release." >&2
  echo "bench_smoke: configure with -DCMAKE_BUILD_TYPE=Release" \
       "(scripts/tier1.sh does) and rebuild." >&2
  exit 1
fi

# Thread-scaling kernels (1/2/4 threads), the gather pair, the
# blocked-SpMM K-sweep (K = 1/2/4/8/16 right-hand sides) plus the
# K = 1/8 pair on the server-hmep matrix (BM_SpmmHmep), the SELL
# SIMD-vs-scalar sweep plus its autotuned pair, the solvers' dot
# product and team-parallel CG vector phase at one samg-cg rank slice
# (2^17 elements), and the empty team fork/join. Medians over repetitions
# land in the JSON as *_median aggregate entries. The tuning cache stays
# inside the build tree so bench runs never touch ~/.cache.
"${bin}" \
  --tuning-cache="${build_dir}/tuning-cache.json" \
  --benchmark_filter='(Parallel|HaloGather|Spmm|SellScalar|SellSimd|SellAuto|BM_Dot|TeamForkJoin|CgStepTeam)' \
  --benchmark_repetitions="${reps}" \
  --benchmark_report_aggregates_only=true \
  --benchmark_out="${out}" \
  --benchmark_out_format=json

# Stamp provenance into the JSON context: the commit the numbers belong
# to (perf trajectories are meaningless without it), whether the tree
# had uncommitted tracked changes on top of it, and the build type the
# gate above verified.
git_head="$(git -C "${repo_root}" rev-parse HEAD 2>/dev/null || echo unknown)"
git_dirty=unknown
if changes="$(git -C "${repo_root}" status --porcelain --untracked-files=no \
                -- . ':!BENCH_kernels.json' 2>/dev/null)"; then
  if [[ -n "${changes}" ]]; then git_dirty=true; else git_dirty=false; fi
fi
python3 - "${out}" "${git_head}" "${build_type}" "${git_dirty}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
data.setdefault("context", {})
data["context"]["git_head"] = sys.argv[2]
data["context"]["build_type"] = sys.argv[3]
# true: the numbers come from uncommitted changes on top of git_head.
data["context"]["git_dirty"] = {"true": True, "false": False}.get(
    sys.argv[4], sys.argv[4])
with open(sys.argv[1], "w") as f:
    json.dump(data, f, indent=2)
    f.write("\n")
EOF

echo "bench_smoke: wrote ${out} (HEAD ${git_head}, dirty ${git_dirty}, ${build_type})"

# Gather comparison: the team-parallel gather (max over participating
# threads' spans — the engine's gather_s semantics) against the serial
# baseline, medians over repetitions.
status=0
python3 - "${out}" <<'EOF' || status=$?
import json, sys

with open(sys.argv[1]) as f:
    data = json.load(f)

medians = {
    b["name"]: b["real_time"]
    for b in data["benchmarks"]
    if b.get("aggregate_name") == "median"
}

serial = next((v for k, v in medians.items()
               if k.startswith("BM_HaloGatherSerial")), None)
team2 = medians.get("BM_HaloGatherTeam/2/manual_time_median")
team4 = medians.get("BM_HaloGatherTeam/4/manual_time_median")

if serial is None or team2 is None:
    print("bench_smoke: gather benchmarks missing from JSON", file=sys.stderr)
    sys.exit(2)

print(f"gather medians: serial={serial:.1f} ns, "
      f"team/2={team2:.1f} ns, team/4={team4:.1f} ns"
      if team4 is not None else
      f"gather medians: serial={serial:.1f} ns, team/2={team2:.1f} ns")
faster = team2 < serial
print(f"team-parallel gather at 2 threads vs serial: "
      f"{serial / team2:.2f}x {'(faster)' if faster else '(NOT faster)'}")
sys.exit(0 if faster else 3)
EOF

if [[ "${status}" -ne 0 && "${BENCH_SMOKE_STRICT:-0}" == "1" ]]; then
  echo "bench_smoke: STRICT mode — gather comparison failed" >&2
  exit "${status}"
fi

# SpMM K-sweep: per-vector speedup of the blocked kernel over K=1.
# Streaming the matrix once for K right-hand sides amortizes its
# traffic, so per-vector time t_K/K should fall as K grows
# (B_SpMM(K) = 6/K + 12/Nnzr + kappa/2 per vector vs Eq. 1's
# 6 + 12/Nnzr + kappa/2). The K=8 point is the acceptance bar:
# per-vector speedup >= 1.5x over K=1.
spmm_status=0
python3 - "${out}" <<'EOF' || spmm_status=$?
import json, sys

with open(sys.argv[1]) as f:
    data = json.load(f)

medians = {
    b["name"]: b["real_time"]
    for b in data["benchmarks"]
    if b.get("aggregate_name") == "median"
}

ok = True
for bench in ("BM_SpmmCrs", "BM_SpmmSell", "BM_SpmmHmep"):
    t1 = medians.get(f"{bench}/1_median")
    if t1 is None:
        print(f"bench_smoke: {bench}/1 median missing from JSON",
              file=sys.stderr)
        sys.exit(2)
    row = []
    speedup8 = None
    for k in (2, 4, 8, 16):
        tk = medians.get(f"{bench}/{k}_median")
        if tk is None:
            continue
        # Per-vector speedup: K vectors in t_K vs K runs of t_1.
        speedup = (t1 * k) / tk
        row.append(f"K={k}: {speedup:.2f}x")
        if k == 8:
            speedup8 = speedup
    print(f"{bench} per-vector speedup vs K=1: " + ", ".join(row))
    if speedup8 is not None and speedup8 < 1.5:
        print(f"bench_smoke: {bench} K=8 per-vector speedup "
              f"{speedup8:.2f}x < 1.5x target", file=sys.stderr)
        ok = False
sys.exit(0 if ok else 3)
EOF

if [[ "${spmm_status}" -ne 0 && "${BENCH_SMOKE_STRICT:-0}" == "1" ]]; then
  echo "bench_smoke: STRICT mode — SpMM K-sweep check failed" >&2
  exit "${spmm_status}"
fi

# SELL SIMD-vs-scalar: the C-sweep ratios plus the before/after pair at
# the autotuned (C, sigma). The pair is the acceptance bar: SIMD must be
# >= 1.2x the pinned-scalar reference on the skewed-row family (the
# kernels are bitwise-identical, so this is pure throughput).
simd_status=0
python3 - "${out}" <<'EOF' || simd_status=$?
import json, sys

with open(sys.argv[1]) as f:
    data = json.load(f)

medians = {
    b["name"]: b["real_time"]
    for b in data["benchmarks"]
    if b.get("aggregate_name") == "median"
}

row = []
for c in (4, 8, 16, 32, 64):
    scalar = medians.get(f"BM_SpmvSellScalar/{c}_median")
    simd = medians.get(f"BM_SpmvSellSimd/{c}_median")
    if scalar is not None and simd is not None:
        row.append(f"C={c}: {scalar / simd:.2f}x")
if row:
    print("SELL SIMD vs scalar (C-sweep, sigma=8C): " + ", ".join(row))

scalar = medians.get("BM_SpmvSellAutoScalar_median")
simd = medians.get("BM_SpmvSellAutoSimd_median")
if scalar is None or simd is None:
    print("bench_smoke: SellAuto pair missing from JSON", file=sys.stderr)
    sys.exit(2)
speedup = scalar / simd
print(f"SELL SIMD vs scalar at autotuned (C, sigma): {speedup:.2f}x "
      f"{'(>= 1.2x target)' if speedup >= 1.2 else '(BELOW 1.2x target)'}")
sys.exit(0 if speedup >= 1.2 else 3)
EOF

if [[ "${simd_status}" -ne 0 && "${BENCH_SMOKE_STRICT:-0}" == "1" ]]; then
  echo "bench_smoke: STRICT mode — SELL SIMD speedup check failed" >&2
  exit "${simd_status}"
fi

# Elastic scenario smoke: replay every named traffic trace at a small
# matrix size and fold the structural per-scenario summary (completions,
# grows, rebuilds, rows migrated vs full re-replication — deterministic
# under the seed) into the JSON context as "scenario_smoke". Attainment
# is wall clock and reported for trend-watching only.
scenarios_bin="${BENCH_SMOKE_SCENARIOS_BIN:-${repo_root}/build/bench/elastic_scenarios}"
if [[ -x "${scenarios_bin}" ]]; then
  scenario_out="$("${scenarios_bin}" --n 600 --seed 42 --json)" || {
    echo "bench_smoke: elastic_scenarios failed" >&2
    [[ "${BENCH_SMOKE_STRICT:-0}" == "1" ]] && exit 4
    scenario_out=""
  }
  if [[ -n "${scenario_out}" ]]; then
    printf '%s\n' "${scenario_out}"
    python3 - "${out}" <<EOF
import json, sys
text = """${scenario_out}"""
marker = "SCENARIO_SMOKE_JSON "
idx = text.find(marker)
if idx < 0:
    print("bench_smoke: scenario smoke marker missing", file=sys.stderr)
    sys.exit(2)
smoke = json.loads(text[idx + len(marker):])
with open(sys.argv[1]) as f:
    data = json.load(f)
data.setdefault("context", {})
data["context"]["scenario_smoke"] = smoke
with open(sys.argv[1], "w") as f:
    json.dump(data, f, indent=2)
    f.write("\n")
print(f"bench_smoke: folded {len(smoke['scenarios'])} scenario summaries "
      f"into {sys.argv[1]}")
EOF
  fi
else
  echo "bench_smoke: elastic_scenarios not found at ${scenarios_bin};" \
       "skipping scenario smoke" >&2
fi
exit 0
