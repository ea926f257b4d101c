// EXP-K1 — google-benchmark microbenchmarks of the computational kernels:
// the CRS spMVM (sequential and thread-parallel), the split
// local/non-local variant (Eq. 2's penalty, measured for real on this
// host), the SELL-C-sigma sweeps, the halo gather, the solvers' dot
// product, and supporting operations. These are host measurements, not
// paper-machine models — the interesting quantity is the *ratio*
// split/full (and parallel/serial).
//
// Perf trajectory tracking: pass --benchmark_out=BENCH_kernels.json
// (with the default --benchmark_out_format=json) to dump the results in
// machine-readable form; future PRs diff that file to track kernel
// regressions.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <string>

#include "common/paper_matrices.hpp"
#include "matgen/poisson.hpp"
#include "matgen/random_matrix.hpp"
#include "sparse/ell.hpp"
#include "sparse/kernels.hpp"
#include "sparse/rcm.hpp"
#include "sparse/vector_ops.hpp"
#include "spmv/autotune.hpp"
#include "spmv/comm_plan.hpp"
#include "spmv/partition.hpp"
#include "team/thread_team.hpp"
#include "util/aligned.hpp"
#include "util/prng.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

namespace {

using namespace hspmv;
using sparse::CsrMatrix;
using sparse::index_t;
using sparse::value_t;

CsrMatrix bench_matrix(std::int64_t n, int nnzr) {
  return matgen::random_banded(static_cast<index_t>(n),
                               static_cast<index_t>(n / 8), nnzr, 12345);
}

util::AlignedVector<value_t> random_vector(std::size_t n) {
  util::Xoshiro256 rng(99);
  util::AlignedVector<value_t> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// `flops` per iteration; the counter reports 1e9 flop/s.
void set_gflops(benchmark::State& state, double flops) {
  state.counters["GFlop/s"] = benchmark::Counter(
      flops * 1e-9, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}

void BM_SpmvCrs(benchmark::State& state) {
  const auto a = bench_matrix(state.range(0), 15);
  const auto b = random_vector(static_cast<std::size_t>(a.cols()));
  util::AlignedVector<value_t> c(static_cast<std::size_t>(a.rows()));
  for (auto _ : state) {
    sparse::spmv(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, 2.0 * static_cast<double>(a.nnz()));
}
BENCHMARK(BM_SpmvCrs)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_SpmvCrsParallel(benchmark::State& state) {
  // Node-level thread scaling of the monolithic kernel (Fig. 3's axis).
  const auto a = bench_matrix(1 << 17, 15);
  const auto b = random_vector(static_cast<std::size_t>(a.cols()));
  util::AlignedVector<value_t> c(static_cast<std::size_t>(a.rows()));
  team::ThreadTeam team(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    sparse::spmv_parallel(a, b, c, team);
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, 2.0 * static_cast<double>(a.nnz()));
}
BENCHMARK(BM_SpmvCrsParallel)->Arg(1)->Arg(2)->Arg(4);

void BM_SpmvSplit(benchmark::State& state) {
  // The Eq. 2 scenario: the same matrix swept in two phases around a
  // column split at 80 % (a typical local fraction).
  const auto a = bench_matrix(state.range(0), 15);
  const auto split = static_cast<index_t>(a.cols() * 8 / 10);
  const auto b = random_vector(static_cast<std::size_t>(a.cols()));
  util::AlignedVector<value_t> c(static_cast<std::size_t>(a.rows()));
  for (auto _ : state) {
    sparse::spmv_local(a, split, b, c);
    sparse::spmv_nonlocal(a, split, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, 2.0 * static_cast<double>(a.nnz()));
}
BENCHMARK(BM_SpmvSplit)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_SpmvSplitParallel(benchmark::State& state) {
  const auto a = bench_matrix(1 << 17, 15);
  const auto split = static_cast<index_t>(a.cols() * 8 / 10);
  const auto b = random_vector(static_cast<std::size_t>(a.cols()));
  util::AlignedVector<value_t> c(static_cast<std::size_t>(a.rows()));
  team::ThreadTeam team(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    sparse::spmv_local_parallel(a, split, b, c, team);
    sparse::spmv_nonlocal_parallel(a, split, b, c, team);
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, 2.0 * static_cast<double>(a.nnz()));
}
BENCHMARK(BM_SpmvSplitParallel)->Arg(1)->Arg(2)->Arg(4);

void BM_SpmvSell(benchmark::State& state) {
  const auto a = bench_matrix(state.range(0), 15);
  const auto s = sparse::SellMatrix::from_csr(a, 32, 256);
  const auto b = random_vector(static_cast<std::size_t>(a.cols()));
  util::AlignedVector<value_t> c(static_cast<std::size_t>(a.rows()));
  for (auto _ : state) {
    s.spmv(b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, 2.0 * static_cast<double>(a.nnz()));
}
BENCHMARK(BM_SpmvSell)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_SpmvSellParallel(benchmark::State& state) {
  const auto a = bench_matrix(1 << 17, 15);
  const auto s = sparse::SellMatrix::from_csr(a, 32, 256);
  const auto b = random_vector(static_cast<std::size_t>(a.cols()));
  util::AlignedVector<value_t> c(static_cast<std::size_t>(a.rows()));
  team::ThreadTeam team(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    s.spmv_parallel(b, c, team);
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, 2.0 * static_cast<double>(a.nnz()));
}
BENCHMARK(BM_SpmvSellParallel)->Arg(1)->Arg(2)->Arg(4);

/// EXP-K3 — SIMD-vs-scalar SELL pair on a skewed-row family, the regime
/// sigma-sorting targets: power-law row lengths pad unsorted chunks and
/// starve vector lanes, so both the chunk width C and the sorting window
/// sigma matter. The *Scalar twins run the pinned no-autovec reference
/// sweeps (SellMatrix::spmv_chunks_scalar) — the honest baseline the
/// SIMD path is diffed against (tests/sparse/test_simd_kernels.cpp
/// certifies the two agree bitwise).
CsrMatrix skewed_matrix() {
  return matgen::random_power_law(1 << 16, 6, 0.55, 4242);
}

void run_sell_pair(benchmark::State& state, const CsrMatrix& a, int chunk,
                   int sigma, bool simd) {
  const auto s = sparse::SellMatrix::from_csr(a, chunk, sigma);
  const auto b = random_vector(static_cast<std::size_t>(a.cols()));
  util::AlignedVector<value_t> c(static_cast<std::size_t>(a.rows()));
  for (auto _ : state) {
    if (simd) {
      s.spmv_chunks(0, s.chunk_count(), b, c);
    } else {
      s.spmv_chunks_scalar(0, s.chunk_count(), b, c);
    }
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, 2.0 * static_cast<double>(a.nnz()));
  state.counters["C"] = static_cast<double>(chunk);
  state.counters["sigma"] = static_cast<double>(s.sigma());
  state.counters["beta"] = s.padding_ratio();
}

void BM_SpmvSellScalar(benchmark::State& state) {
  const auto chunk = static_cast<int>(state.range(0));
  run_sell_pair(state, skewed_matrix(), chunk, 8 * chunk, /*simd=*/false);
}
BENCHMARK(BM_SpmvSellScalar)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_SpmvSellSimd(benchmark::State& state) {
  const auto chunk = static_cast<int>(state.range(0));
  run_sell_pair(state, skewed_matrix(), chunk, 8 * chunk, /*simd=*/true);
}
BENCHMARK(BM_SpmvSellSimd)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

/// The SELL configuration the autotuner's candidate list rates best on
/// this matrix, by direct min-of-reps measurement. The overall autotuned
/// winner may be CRS (the byte-balance model and the timed sweep both
/// can prefer it); the Auto pair below exists to record the SIMD-vs-
/// scalar ratio at the *autotuned* (C, sigma), so it always picks the
/// best SELL candidate.
spmv::TunedConfig best_sell_config(const sparse::CsrMatrix& a,
                                   const spmv::TunedConfig& tuned) {
  if (tuned.backend == spmv::LocalBackend::kSell) return tuned;
  spmv::AutotuneOptions options;
  options.prune_ratio = 0.0;  // rate every SELL candidate
  const auto b = random_vector(static_cast<std::size_t>(a.cols()));
  util::AlignedVector<value_t> y(static_cast<std::size_t>(a.rows()));
  spmv::TunedConfig best{spmv::LocalBackend::kSell, 32, 256, true};
  double best_seconds = 1e30;
  for (const auto& candidate : spmv::candidate_configs(a, options)) {
    if (candidate.backend != spmv::LocalBackend::kSell) continue;
    const auto s = sparse::SellMatrix::from_csr(a, candidate.sell_chunk,
                                                candidate.sell_sigma);
    double seconds = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      util::Timer timer;
      s.spmv(b, y);
      seconds = std::min(seconds, timer.seconds());
    }
    if (seconds < best_seconds) {
      best_seconds = seconds;
      best = candidate;
    }
  }
  return best;
}

/// EXP-K2 — blocked multi-RHS (SpMM) sweep over K right-hand sides,
/// K in {1, 2, 4, 8, 16}. GFlop/s counts 2*nnz*K flops per iteration, so
/// dividing by K gives effective per-vector throughput: the measured
/// counterpart of B_CRS / B_SpMM(K) (perfmodel::spmm_speedup_bound).
/// The matrix is sized well past cache (Nnzr = 15 at 2^20 rows, ~190 MB
/// of CRS arrays) so the K = 1 baseline is genuinely bandwidth-bound.
void BM_SpmmCrs(benchmark::State& state) {
  const auto a = bench_matrix(1 << 20, 15);
  const auto k = static_cast<int>(state.range(0));
  const auto b = random_vector(static_cast<std::size_t>(a.cols()) *
                               static_cast<std::size_t>(k));
  util::AlignedVector<value_t> c(static_cast<std::size_t>(a.rows()) *
                                 static_cast<std::size_t>(k));
  for (auto _ : state) {
    sparse::spmm(a, k, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, 2.0 * static_cast<double>(a.nnz()) *
                        static_cast<double>(k));
  state.counters["K"] = static_cast<double>(k);
}
BENCHMARK(BM_SpmmCrs)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

/// Blocked CRS sweep on the server-hmep matrix (HMeP, make_hmep(1):
/// 184,800 rows, 2.27 M nonzeros). Its right-hand-side accesses are
/// cache-friendly, so the kernel's own cost shows: K = 8 runs the
/// K-wide panel path, K = 1 the single-column row_dot. BM_SpmmCrs's
/// random banded matrix is latency-bound on the gathers and hides it.
void BM_SpmmHmep(benchmark::State& state) {
  static const CsrMatrix a = bench::make_hmep(1).matrix;
  const auto k = static_cast<int>(state.range(0));
  const auto b = random_vector(static_cast<std::size_t>(a.cols()) *
                               static_cast<std::size_t>(k));
  util::AlignedVector<value_t> c(static_cast<std::size_t>(a.rows()) *
                                 static_cast<std::size_t>(k));
  for (auto _ : state) {
    sparse::spmm(a, k, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, 2.0 * static_cast<double>(a.nnz()) *
                        static_cast<double>(k));
  state.counters["K"] = static_cast<double>(k);
}
BENCHMARK(BM_SpmmHmep)->Arg(1)->Arg(8);

/// SELL-C-sigma blocked sweep, same K axis (the format Kreutzer et al.
/// designed with blocked RHS in mind).
void BM_SpmmSell(benchmark::State& state) {
  const auto a = bench_matrix(1 << 20, 15);
  const auto s = sparse::SellMatrix::from_csr(a, 32, 256);
  const auto k = static_cast<int>(state.range(0));
  const auto b = random_vector(static_cast<std::size_t>(a.cols()) *
                               static_cast<std::size_t>(k));
  util::AlignedVector<value_t> c(static_cast<std::size_t>(a.rows()) *
                                 static_cast<std::size_t>(k));
  for (auto _ : state) {
    s.spmm(k, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, 2.0 * static_cast<double>(a.nnz()) *
                        static_cast<double>(k));
  state.counters["K"] = static_cast<double>(k);
}
BENCHMARK(BM_SpmmSell)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_SpmvLowNnzr(benchmark::State& state) {
  // The sAMG-like regime: Nnzr ~ 7 has a higher relative index overhead.
  const auto a =
      matgen::poisson7({.nx = 64, .ny = 64, .nz = static_cast<int>(
                            state.range(0))});
  const auto b = random_vector(static_cast<std::size_t>(a.cols()));
  util::AlignedVector<value_t> c(static_cast<std::size_t>(a.rows()));
  for (auto _ : state) {
    sparse::spmv(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, 2.0 * static_cast<double>(a.nnz()));
}
BENCHMARK(BM_SpmvLowNnzr)->Arg(16)->Arg(64);

void BM_Dot(benchmark::State& state) {
  // sparse::dot in its pinned 8-lane order over one rank's slice of the
  // samg-cg problem (2^17 rows): the solvers' dot products, 16 B/element.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_vector(n);
  const auto y = random_vector(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::dot(x, y));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 16);
  set_gflops(state, 2.0 * static_cast<double>(n));
}
BENCHMARK(BM_Dot)->Arg(1 << 17);

void BM_TeamForkJoin(benchmark::State& state) {
  // One ThreadTeam::execute with an empty body: the handoff every team
  // dispatch pays, back to back (the spinning path of EpochWait).
  team::ThreadTeam team(static_cast<int>(state.range(0)));
  const std::function<void(int)> empty = [](int) {};
  for (auto _ : state) team.execute(empty);
}
BENCHMARK(BM_TeamForkJoin)->Arg(2)->Arg(4);

void BM_CgStepTeam(benchmark::State& state) {
  // resilient_cg's vector phase on one samg-cg rank slice (2^17
  // elements) with a team of range(0): p.Ap, the x/r update fused into
  // r.r, and p = r + beta p, one dispatch each over the fixed
  // 8192-element blocks. 88 B/element: 16 + 48 + 24.
  const std::size_t n = 1 << 17;
  auto x = random_vector(n);
  auto r = random_vector(n);
  auto p = random_vector(n);
  const auto ap = random_vector(n);
  team::ThreadTeam team(static_cast<int>(state.range(0)));
  // Small fixed scalars keep the vectors bounded over many iterations.
  const value_t alpha = 1e-6;
  const value_t beta = 0.5;
  for (auto _ : state) {
    const value_t p_ap = sparse::team_dot(team, p, ap);
    const value_t rr = sparse::team_fused_dot(
        team, r, r, [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
          }
        });
    sparse::team_xpay(team, r, beta, p);
    benchmark::DoNotOptimize(p_ap + rr);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 88);
}
BENCHMARK(BM_CgStepTeam)->Arg(1)->Arg(2);

void BM_HaloGather(benchmark::State& state) {
  // Packing the send buffer: indexed reads, contiguous writes.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto source = random_vector(n);
  util::Xoshiro256 rng(3);
  std::vector<index_t> gather(n / 10);
  for (auto& g : gather) {
    g = static_cast<index_t>(rng.bounded(n));
  }
  util::AlignedVector<value_t> buffer(gather.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < gather.size(); ++i) {
      buffer[i] = source[static_cast<std::size_t>(gather[i])];
    }
    benchmark::DoNotOptimize(buffer.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(gather.size()) * 16);
}
BENCHMARK(BM_HaloGather)->Arg(1 << 16)->Arg(1 << 20);

/// A skewed send side: one dominant peer block holding half the elements
/// plus smaller ones — the shape that defeats block-granular distribution
/// and motivates GatherSchedule's element-balanced split.
spmv::CommPlan skewed_send_plan(std::size_t owned, std::size_t elements,
                                int blocks) {
  spmv::CommPlan plan;
  plan.local_rows = static_cast<index_t>(owned);
  util::Xoshiro256 rng(5);
  for (int b = 0; b < blocks; ++b) {
    const std::size_t count =
        b == 0 ? elements / 2
               : (elements - elements / 2) /
                     static_cast<std::size_t>(blocks - 1);
    spmv::SendBlock block;
    block.peer = b;
    block.gather.resize(count);
    for (auto& g : block.gather) {
      g = static_cast<index_t>(rng.bounded(owned));
    }
    plan.send_blocks.push_back(std::move(block));
  }
  return plan;
}

/// Serial baseline of the engine's vector-mode gather (the pre-PR path:
/// thread 0 walks every block). Manual time so the metric is identical to
/// the team version: the participating thread's own span.
void BM_HaloGatherSerial(benchmark::State& state) {
  const std::size_t owned = 1 << 20;
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto plan = skewed_send_plan(owned, n, 4);
  const auto source = random_vector(owned);
  std::vector<util::AlignedVector<value_t>> buffers(plan.send_blocks.size());
  for (std::size_t s = 0; s < buffers.size(); ++s) {
    buffers[s].resize(plan.send_blocks[s].gather.size());
  }
  for (auto _ : state) {
    util::Timer timer;
    for (std::size_t s = 0; s < plan.send_blocks.size(); ++s) {
      const auto& gather = plan.send_blocks[s].gather;
      value_t* __restrict buffer = buffers[s].data();
      const value_t* __restrict src = source.data();
      for (std::size_t i = 0; i < gather.size(); ++i) {
        buffer[i] = src[static_cast<std::size_t>(gather[i])];
      }
    }
    state.SetIterationTime(timer.seconds());
    benchmark::DoNotOptimize(buffers.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 16);
}
BENCHMARK(BM_HaloGatherSerial)->Arg(1 << 17)->UseManualTime();

/// Team-parallel gather through GatherSchedule, timed as the engine times
/// gather_s: each member clocks its own share, the iteration reports the
/// max over participating threads.
void BM_HaloGatherTeam(benchmark::State& state) {
  const std::size_t owned = 1 << 20;
  const std::size_t n = 1 << 17;
  const auto plan = skewed_send_plan(owned, n, 4);
  const auto source = random_vector(owned);
  std::vector<util::AlignedVector<value_t>> buffers(plan.send_blocks.size());
  for (std::size_t s = 0; s < buffers.size(); ++s) {
    buffers[s].resize(plan.send_blocks[s].gather.size());
  }
  team::ThreadTeam team(static_cast<int>(state.range(0)));
  const spmv::GatherSchedule schedule(plan, team.size());
  for (auto _ : state) {
    std::atomic<double> span_max{0.0};
    team.execute([&](int id) {
      if (schedule.elements_of(id) == 0) return;
      util::Timer timer;
      schedule.for_party(
          id, [&](std::size_t s, std::int64_t begin, std::int64_t end) {
            const index_t* __restrict gather =
                plan.send_blocks[s].gather.data();
            const value_t* __restrict src = source.data();
            value_t* __restrict buffer = buffers[s].data();
            for (std::int64_t i = begin; i < end; ++i) {
              buffer[i] = src[gather[i]];
            }
          });
      team::atomic_fetch_max(span_max, timer.seconds());
    });
    state.SetIterationTime(span_max.load());
    benchmark::DoNotOptimize(buffers.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 16);
}
BENCHMARK(BM_HaloGatherTeam)->Arg(1)->Arg(2)->Arg(4)->UseManualTime();

void BM_BuildCommPlan(benchmark::State& state) {
  // The one-time bookkeeping cost (Sect. 3.1).
  const auto a = bench_matrix(1 << 16, 12);
  const auto boundaries = spmv::partition_rows(
      a, static_cast<int>(state.range(0)),
      spmv::PartitionStrategy::kBalancedNonzeros);
  for (auto _ : state) {
    auto stats = spmv::analyze_partition(a, boundaries);
    benchmark::DoNotOptimize(stats.local_nnz.data());
  }
}
BENCHMARK(BM_BuildCommPlan)->Arg(4)->Arg(64);

void BM_RcmReorder(benchmark::State& state) {
  const auto a = matgen::poisson5_2d(static_cast<int>(state.range(0)),
                                     static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto permutation = sparse::rcm_permutation(a);
    benchmark::DoNotOptimize(permutation.data());
  }
}
BENCHMARK(BM_RcmReorder)->Arg(32)->Arg(128);

}  // namespace

// Explicit main (rather than BENCHMARK_MAIN) so the JSON-output contract
// is visible here: benchmark::Initialize consumes the standard flags,
// including --benchmark_out=BENCH_kernels.json.
//
// hspmv-specific flags, stripped before benchmark::Initialize sees argv:
//   --tune=off|cached|force   autotuner mode for the SellAuto pair
//                             (default cached: tune on miss, persist)
//   --tuning-cache=PATH       tuning-cache file (default: the autotuner's
//                             resolution chain, see docs/performance.md)
int main(int argc, char** argv) {
  auto tune = hspmv::spmv::TuneMode::kCached;
  std::string tuning_cache;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--tune=", 0) == 0) {
      tune = hspmv::spmv::parse_tune_mode(arg.substr(7));
    } else if (arg.rfind("--tuning-cache=", 0) == 0) {
      tuning_cache = arg.substr(15);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  // EXP-K3b — the before/after pair at the autotuned (C, sigma): resolve
  // through the per-matrix autotuner (cache hits skip the timed sweep),
  // then register the pair at the best SELL configuration. Registered
  // from main so the resolved config lands in the benchmark counters.
  const auto skewed = skewed_matrix();
  const auto tuned = hspmv::spmv::resolve_tuned(skewed, tune, tuning_cache);
  const auto sell = best_sell_config(skewed, tuned);
  std::printf(
      "kernels_micro: simd=%s (%d double lanes), autotuned winner=%s, "
      "SellAuto pair at C=%d sigma=%d\n",
      hspmv::util::simd::isa_name(), hspmv::util::simd::kDoubleLanes,
      hspmv::spmv::backend_name(tuned.backend), sell.sell_chunk,
      sell.sell_sigma);
  benchmark::RegisterBenchmark(
      "BM_SpmvSellAutoScalar", [&skewed, sell](benchmark::State& state) {
        run_sell_pair(state, skewed, sell.sell_chunk, sell.sell_sigma,
                      /*simd=*/false);
      });
  benchmark::RegisterBenchmark(
      "BM_SpmvSellAutoSimd", [&skewed, sell](benchmark::State& state) {
        run_sell_pair(state, skewed, sell.sell_chunk, sell.sell_sigma,
                      /*simd=*/true);
      });

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
