// Fault-tolerant solver drivers (docs/resilience.md): resilient CG and
// Lanczos must converge to the failure-free answer after permanent rank
// deaths (shrink + rebuild + buddy-checkpoint restore + rollback), absorb
// transient faults bitwise-invisibly through the engine's retry layer,
// and fail loudly — CheckpointLostError — when a buddy pair dies inside
// one checkpoint interval.

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <numbers>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/seeded_fixture.hpp"
#include "matgen/poisson.hpp"
#include "minimpi/runtime.hpp"
#include "solvers/resilience.hpp"
#include "sparse/kernels.hpp"
#include "util/prng.hpp"

namespace hspmv::solvers {
namespace {

using sparse::value_t;

class ResilientCg : public testutil::SeededTest {};

class ResilientCgPair
    : public testutil::SeededParamTest<
          std::tuple<spmv::Variant, spmv::LocalBackend>> {};

std::vector<value_t> random_vector(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<value_t> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Problem with a known solution: b = A x_true on the 2-D Poisson matrix.
struct Problem {
  sparse::CsrMatrix a;
  std::vector<value_t> x_true;
  std::vector<value_t> b;
};

Problem make_problem(std::uint64_t seed) {
  Problem problem{matgen::poisson5_2d(16, 16), {}, {}};
  problem.x_true =
      random_vector(static_cast<std::size_t>(problem.a.rows()), seed);
  problem.b.resize(problem.x_true.size());
  sparse::spmv(problem.a, problem.x_true, problem.b);
  return problem;
}

ResilienceOptions fast_options() {
  ResilienceOptions options;
  options.checkpoint_interval = 5;
  options.engine.retry.enabled = true;
  options.engine.retry.max_attempts = 4;
  options.engine.retry.base_backoff_seconds = 1e-5;
  options.engine.retry.max_backoff_seconds = 1e-4;
  return options;
}

/// Run resilient_cg on `ranks` threads and collect every rank's result,
/// indexed by world rank.
std::vector<ResilientCgResult> run_cg(
    const Problem& problem, int ranks, const ResilienceOptions& resilience,
    const minimpi::RuntimeOptions& runtime, const CgOptions& cg = {}) {
  std::vector<ResilientCgResult> results(static_cast<std::size_t>(ranks));
  std::mutex mutex;
  minimpi::run(runtime, [&](minimpi::Comm& comm) {
    auto result =
        resilient_cg(comm, problem.a, problem.b, resilience, cg);
    std::lock_guard<std::mutex> lock(mutex);
    results[static_cast<std::size_t>(comm.rank())] = std::move(result);
  });
  return results;
}

TEST_F(ResilientCg, FailureFreeRunMatchesTruth) {
  const Problem problem = make_problem(seed(1));
  minimpi::RuntimeOptions runtime;
  runtime.ranks = 4;
  const auto results = run_cg(problem, 4, fast_options(), runtime);
  for (const auto& result : results) {
    EXPECT_TRUE(result.cg.converged);
    EXPECT_TRUE(result.recovery.survivor);
    EXPECT_EQ(result.recovery.failures_recovered, 0);
    EXPECT_EQ(result.recovery.iterations_lost, 0);
    EXPECT_EQ(result.recovery.final_size, 4);
    ASSERT_EQ(result.x.size(), problem.x_true.size());
    for (std::size_t i = 0; i < result.x.size(); ++i) {
      EXPECT_NEAR(result.x[i], problem.x_true[i], 1e-6);
    }
  }
}

TEST_F(ResilientCg, SolutionIsBitwiseTheSameForEveryTeamSize) {
  // The vector phase runs on the rank's team. Its dots sum fixed
  // 8192-element blocks in block order, so 1, 2 or 3 threads per rank
  // must give the same bits. 2 ranks x 20000 rows: three blocks per
  // rank, one per member of the largest team.
  Problem problem{matgen::poisson5_2d(200, 200), {}, {}};
  problem.b = random_vector(static_cast<std::size_t>(problem.a.rows()),
                            seed(3));
  CgOptions cg;
  cg.max_iterations = 40;
  minimpi::RuntimeOptions runtime;
  runtime.ranks = 2;
  std::vector<value_t> reference;
  std::vector<double> reference_history;
  for (int threads = 1; threads <= 3; ++threads) {
    ResilienceOptions resilience = fast_options();
    resilience.threads = threads;
    const auto results = run_cg(problem, 2, resilience, runtime, cg);
    const ResilientCgResult& result = results.front();
    ASSERT_EQ(result.cg.iterations, 40) << "threads = " << threads;
    if (threads == 1) {
      reference = result.x;
      reference_history = result.cg.residual_history;
      continue;
    }
    ASSERT_EQ(result.x.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(result.x[i]),
                std::bit_cast<std::uint64_t>(reference[i]))
          << "threads = " << threads << ", i = " << i;
    }
    EXPECT_EQ(result.cg.residual_history, reference_history)
        << "threads = " << threads;
  }
}

TEST_F(ResilientCg, TransientFaultsAreBitwiseInvisible) {
  // A transient halo-exchange fault absorbed by the retry layer must not
  // change a single bit of the solve: identical solution vector and
  // residual history. Only the bootstrap checkpoint runs (huge interval),
  // so the failed match index safely lands inside an apply.
  const Problem problem = make_problem(seed(2));
  ResilienceOptions resilience = fast_options();
  resilience.checkpoint_interval = 1 << 20;

  minimpi::RuntimeOptions calm;
  calm.ranks = 4;
  const auto baseline = run_cg(problem, 4, resilience, calm);

  minimpi::RuntimeOptions faulty;
  faulty.ranks = 4;
  faulty.chaos.enabled = true;
  faulty.chaos.seed = seed(3);
  faulty.chaos.match_hold_probability = 0.0;
  faulty.chaos.reorder_probability = 0.0;
  faulty.chaos.barrier_jitter_probability = 0.0;
  faulty.chaos.spurious_test_probability = 0.0;
  faulty.chaos.failure_mode = minimpi::ChaosConfig::FailureMode::kTransient;
  faulty.chaos.fail_transfer_index = 24;
  const auto retried = run_cg(problem, 4, resilience, faulty);

  std::int64_t retries = 0;
  for (std::size_t rank = 0; rank < retried.size(); ++rank) {
    EXPECT_TRUE(retried[rank].cg.converged);
    EXPECT_EQ(retried[rank].x, baseline[rank].x) << "rank " << rank;
    EXPECT_EQ(retried[rank].cg.residual_history,
              baseline[rank].cg.residual_history)
        << "rank " << rank;
    retries += retried[rank].recovery.transient_retries;
  }
  EXPECT_GE(retries, 1);
}

TEST_P(ResilientCgPair, PermanentDeathRecoversAndConverges) {
  const auto [variant, backend] = GetParam();
  constexpr int kRanks = 4;
  constexpr int kVictim = 2;
  const Problem problem = make_problem(seed(4));
  ResilienceOptions resilience = fast_options();
  resilience.variant = variant;
  resilience.engine.backend = backend;
  resilience.threads = variant == spmv::Variant::kTaskMode ? 3 : 2;
  resilience.failures.push_back({kVictim, 7});

  std::atomic<std::size_t> diagnostics{0};
  minimpi::RuntimeOptions runtime;
  runtime.ranks = kRanks;
  runtime.validate.enabled = true;
  runtime.validate.on_diagnostic =
      [&](const minimpi::Diagnostic&) { ++diagnostics; };
  const auto results = run_cg(problem, kRanks, resilience, runtime);

  const auto& victim = results[kVictim];
  EXPECT_FALSE(victim.recovery.survivor);
  EXPECT_TRUE(victim.x.empty());

  std::optional<std::vector<value_t>> survivor_x;
  for (int rank = 0; rank < kRanks; ++rank) {
    if (rank == kVictim) continue;
    const auto& result = results[static_cast<std::size_t>(rank)];
    EXPECT_TRUE(result.cg.converged) << "rank " << rank;
    EXPECT_TRUE(result.recovery.survivor);
    EXPECT_EQ(result.recovery.failures_recovered, 1);
    // Killed at iteration 7, last checkpoint at 5. A survivor observes
    // the fault at iteration 7 — or at 6, when the revocation catches it
    // still retrieving iteration 6's collectives — so 1 or 2 are lost.
    EXPECT_GE(result.recovery.iterations_lost, 1);
    EXPECT_LE(result.recovery.iterations_lost, 2);
    EXPECT_EQ(result.recovery.final_size, kRanks - 1);
    ASSERT_EQ(result.x.size(), problem.x_true.size());
    for (std::size_t i = 0; i < result.x.size(); ++i) {
      ASSERT_NEAR(result.x[i], problem.x_true[i], 1e-6)
          << "rank " << rank << ", entry " << i;
    }
    // Survivors hold bitwise the same replicated solution.
    if (survivor_x) {
      EXPECT_EQ(result.x, *survivor_x) << "rank " << rank;
    } else {
      survivor_x = result.x;
    }
  }
  EXPECT_EQ(diagnostics.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    VariantsTimesBackends, ResilientCgPair,
    ::testing::Combine(::testing::Values(spmv::Variant::kVectorNoOverlap,
                                         spmv::Variant::kVectorNaiveOverlap,
                                         spmv::Variant::kTaskMode),
                       ::testing::Values(spmv::LocalBackend::kCsr,
                                         spmv::LocalBackend::kSell)));

TEST_F(ResilientCg, RollbackReplaysCheckpointedPrefixBitwise) {
  // The restored state is the checkpointed state, bit for bit: the
  // residual history up to the checkpoint iteration is identical to the
  // failure-free run's (same 4-rank partition, same arithmetic). The
  // entry at the restored iteration itself is recomputed as b - A x
  // rather than by the recurrence, so it only agrees numerically.
  const Problem problem = make_problem(seed(5));
  minimpi::RuntimeOptions calm;
  calm.ranks = 4;
  const auto baseline = run_cg(problem, 4, fast_options(), calm);

  ResilienceOptions resilience = fast_options();
  resilience.failures.push_back({1, 7});
  minimpi::RuntimeOptions runtime;
  runtime.ranks = 4;
  const auto results = run_cg(problem, 4, resilience, runtime);

  const auto& calm_history = baseline[0].cg.residual_history;
  for (int rank = 0; rank < 4; ++rank) {
    if (rank == 1) continue;
    const auto& history =
        results[static_cast<std::size_t>(rank)].cg.residual_history;
    ASSERT_GT(history.size(), 6u);
    ASSERT_GT(calm_history.size(), 6u);
    for (std::size_t i = 0; i < 5; ++i) {  // entries before the rollback
      EXPECT_EQ(history[i], calm_history[i]) << "rank " << rank << " entry "
                                             << i;
    }
    EXPECT_NEAR(history[5], calm_history[5],
                1e-10 * (1.0 + std::abs(calm_history[5])));
  }
}

TEST_F(ResilientCg, CheckpointRestoreIsBitExact) {
  // BuddyCheckpoint round-trip through a death: what the survivors
  // reassemble is exactly what was saved — vectors, scalars, iteration.
  constexpr int kRanks = 4;
  constexpr int kVictim = 1;
  const sparse::index_t rows = 97;  // deliberately not divisible by ranks
  const auto u = random_vector(static_cast<std::size_t>(rows), seed(6));
  const auto v = random_vector(static_cast<std::size_t>(rows), seed(7));
  const std::vector<value_t> scalars{3.25, -1.5, 1e-17};

  minimpi::run(kRanks, [&](minimpi::Comm& comm) {
    // An uneven block partition of [0, rows).
    const auto begin_of = [&](int rank) {
      return rows * rank / kRanks;
    };
    const auto row_begin = begin_of(comm.rank());
    const auto local = begin_of(comm.rank() + 1) - row_begin;
    BuddyCheckpoint store;
    const auto slice = [&](const std::vector<value_t>& full) {
      return std::span<const value_t>(full).subspan(
          static_cast<std::size_t>(row_begin),
          static_cast<std::size_t>(local));
    };
    store.save(comm, row_begin, 42, {slice(u), slice(v)}, scalars);
    // Commit every rank's save before the victim revokes the world comm.
    // The victim cannot die before every rank entered this barrier, but
    // it may die before a slow rank wakes from it — the barrier then
    // reports the revocation, which is fine here.
    try {
      comm.barrier();
    } catch (const minimpi::FaultError&) {
    }

    if (comm.rank() == kVictim) {
      try {
        comm.simulate_rank_failure();
      } catch (const minimpi::FaultError&) {
        return;
      }
    }
    try {
      comm.barrier();
    } catch (const minimpi::FaultError&) {
    }
    const minimpi::Comm shrunk = comm.shrink();
    // New partition over the survivors.
    const auto new_begin = rows * shrunk.rank() / shrunk.size();
    const auto new_local =
        rows * (shrunk.rank() + 1) / shrunk.size() - new_begin;
    const auto restored =
        store.restore_global(shrunk, rows, new_begin, new_local);
    EXPECT_EQ(restored.iteration, 42);
    ASSERT_EQ(restored.vectors.size(), 2u);
    EXPECT_EQ(restored.vectors[0], u);
    EXPECT_EQ(restored.vectors[1], v);
    EXPECT_EQ(restored.scalars, scalars);
  });
}

TEST_F(ResilientCg, SurvivesTwoSequentialFailures) {
  constexpr int kRanks = 4;
  const Problem problem = make_problem(seed(8));
  ResilienceOptions resilience = fast_options();
  resilience.failures.push_back({1, 7});
  resilience.failures.push_back({3, 13});

  minimpi::RuntimeOptions runtime;
  runtime.ranks = kRanks;
  const auto results = run_cg(problem, kRanks, resilience, runtime);

  EXPECT_FALSE(results[1].recovery.survivor);
  EXPECT_FALSE(results[3].recovery.survivor);
  for (const int rank : {0, 2}) {
    const auto& result = results[static_cast<std::size_t>(rank)];
    EXPECT_TRUE(result.cg.converged) << "rank " << rank;
    EXPECT_EQ(result.recovery.failures_recovered, 2);
    // 7 -> 5 loses up to 2; after the post-recovery and it-10
    // checkpoints, 13 -> 10 loses up to 3 more. Each observation may be
    // one lower when the revocation catches this rank still retrieving
    // the previous iteration's collectives.
    EXPECT_GE(result.recovery.iterations_lost, 3);
    EXPECT_LE(result.recovery.iterations_lost, 5);
    EXPECT_EQ(result.recovery.final_size, 2);
    for (std::size_t i = 0; i < result.x.size(); ++i) {
      ASSERT_NEAR(result.x[i], problem.x_true[i], 1e-6)
          << "rank " << rank << ", entry " << i;
    }
  }
}

TEST_F(ResilientCg, RestoreThrowsWhenBuddyPairLost) {
  // Deterministic negative: ranks 1 and 2 die after one checkpoint, so
  // rank 1's slice exists only on itself and its buddy 2 — no surviving
  // generation tiles the matrix and restore must throw
  // CheckpointLostError, the documented limit of single-replica buddy
  // checkpointing. The survivors wait for both deaths (epoch 2) before
  // shrinking, pinning the survivor set to {0, 3}.
  constexpr int kRanks = 4;
  const sparse::index_t rows = 64;
  const auto u = random_vector(static_cast<std::size_t>(rows), seed(9));

  minimpi::run(kRanks, [&](minimpi::Comm& comm) {
    BuddyCheckpoint store;
    const auto row_begin = rows * comm.rank() / kRanks;
    const auto local = rows * (comm.rank() + 1) / kRanks - row_begin;
    store.save(comm, row_begin, 1,
               {std::span<const value_t>(u).subspan(
                   static_cast<std::size_t>(row_begin),
                   static_cast<std::size_t>(local))},
               {});
    // All ranks must commit the save before any death revokes the world
    // comm; otherwise a slow rank's save exchange races the revocation.
    // The victims cannot die before every rank entered this barrier, but
    // may die before a slow rank wakes from it — tolerate the sweep.
    try {
      comm.barrier();
    } catch (const minimpi::FaultError&) {
    }

    if (comm.rank() == 1 || comm.rank() == 2) {
      try {
        comm.simulate_rank_failure();
      } catch (const minimpi::FaultError&) {
        return;
      }
    }
    while (comm.epoch() < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    minimpi::Comm shrunk;
    for (int attempt = 0; attempt <= kRanks; ++attempt) {
      try {
        shrunk = comm.shrink();
        break;
      } catch (const minimpi::FaultError&) {
      }
    }
    ASSERT_EQ(shrunk.size(), 2);
    EXPECT_THROW((void)store.restore_global(shrunk, rows, 0, rows / 2),
                 CheckpointLostError);
  });
}

TEST_F(ResilientCg, SimultaneousBuddyPairDeathNeverHangsOrLies) {
  // Two buddies scheduled to die at the same iteration. Depending on how
  // the revocation races against the second victim's plan check, either
  // both die before any recovery (checkpoint slice lost -> every
  // survivor throws CheckpointLostError) or the second death lands after
  // a completed recovery re-replicated the state (two clean recoveries).
  // Both outcomes are legal; hangs, aborts, or a converged-but-wrong
  // split are not.
  constexpr int kRanks = 4;
  const Problem problem = make_problem(seed(10));
  ResilienceOptions resilience = fast_options();
  resilience.checkpoint_interval = 1 << 20;  // bootstrap checkpoint only
  resilience.failures.push_back({1, 4});
  resilience.failures.push_back({2, 4});

  minimpi::RuntimeOptions runtime;
  runtime.ranks = kRanks;
  std::atomic<int> lost{0};
  std::atomic<int> dead{0};
  std::atomic<int> converged{0};
  minimpi::run(runtime, [&](minimpi::Comm& comm) {
    try {
      const auto result =
          resilient_cg(comm, problem.a, problem.b, resilience);
      if (!result.recovery.survivor) {
        dead.fetch_add(1);
      } else if (result.cg.converged) {
        for (std::size_t i = 0; i < result.x.size(); ++i) {
          ASSERT_NEAR(result.x[i], problem.x_true[i], 1e-6);
        }
        converged.fetch_add(1);
      }
    } catch (const CheckpointLostError&) {
      lost.fetch_add(1);
    }
  });
  EXPECT_EQ(dead.load(), 2);
  EXPECT_TRUE((lost.load() == 2 && converged.load() == 0) ||
              (lost.load() == 0 && converged.load() == 2))
      << "lost " << lost.load() << ", converged " << converged.load();
}

/// Run resilient_lanczos on `ranks` threads and collect every rank's
/// result, indexed by world rank.
std::vector<ResilientLanczosResult> run_lanczos(
    const sparse::CsrMatrix& a, int ranks,
    const ResilienceOptions& resilience, const LanczosOptions& options = {}) {
  std::vector<ResilientLanczosResult> results(
      static_cast<std::size_t>(ranks));
  std::mutex mutex;
  minimpi::RuntimeOptions runtime;
  runtime.ranks = ranks;
  minimpi::run(runtime, [&](minimpi::Comm& comm) {
    auto result = resilient_lanczos(comm, a, resilience, options);
    std::lock_guard<std::mutex> lock(mutex);
    results[static_cast<std::size_t>(comm.rank())] = std::move(result);
  });
  return results;
}

/// Bitwise equality of two coefficient sequences over their first
/// `count` entries.
void expect_bitwise_prefix(const std::vector<double>& got,
                           const std::vector<double>& want,
                           std::size_t count, const char* what) {
  ASSERT_GE(got.size(), count) << what;
  ASSERT_GE(want.size(), count) << what;
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << "[" << i << "]";
  }
}

/// Expect `call` to throw the entry-point validator's
/// std::invalid_argument — its message names the entry point — rather
/// than a later error from inside the protocol.
template <typename Call>
void expect_rejected_up_front(Call call, const std::string& who) {
  try {
    call();
    ADD_FAILURE() << who << " accepted an invalid plan";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()).rfind(who + ": ", 0), 0u)
        << error.what();
  }
}

TEST_F(ResilientCg, InvalidPlansThrowBeforeAnyIteration) {
  // Both entry points share one validator: a grow plan with no ranks, a
  // negative grow iteration (never fired) and a negative failure plan
  // are rejected up front, on every rank, before the first apply or
  // collective — not after a few iterations from inside minimpi.
  const Problem problem = make_problem(seed(1));
  std::vector<ResilienceOptions> bad(3, fast_options());
  bad[0].grows = {{5, 0, true}};
  bad[1].grows = {{-1, 1, false}};
  bad[2].failures = {{-1, 3}};
  for (std::size_t k = 0; k < bad.size(); ++k) {
    std::atomic<int> joiners{0};
    bad[k].on_joiner_result = [&](ResilientCgResult) { joiners.fetch_add(1); };
    bad[k].on_joiner_lanczos_result = [&](ResilientLanczosResult) {
      joiners.fetch_add(1);
    };
    minimpi::RuntimeOptions runtime;
    runtime.ranks = 2;
    minimpi::run(runtime, [&](minimpi::Comm& comm) {
      expect_rejected_up_front(
          [&] { (void)resilient_lanczos(comm, problem.a, bad[k]); },
          "resilient_lanczos");
      expect_rejected_up_front(
          [&] { (void)resilient_cg(comm, problem.a, problem.b, bad[k]); },
          "resilient_cg");
    });
    EXPECT_EQ(joiners.load(), 0) << "plan set " << k;
  }
}

TEST_F(ResilientCg, LanczosIsBitwiseTheSameForEveryTeamSize) {
  // Lanczos dots run on the rank's team (sparse::team_dot): 2 ranks x
  // 20000 rows cut into three 8192-element blocks per rank, so 1, 2 and
  // 3 threads must give the same alpha, beta and Ritz bits.
  const auto a = matgen::poisson5_2d(200, 200);
  LanczosOptions options;
  options.max_iterations = 30;
  std::vector<ResilientLanczosResult> reference;
  for (int threads = 1; threads <= 3; ++threads) {
    ResilienceOptions resilience = fast_options();
    resilience.threads = threads;
    const auto results = run_lanczos(a, 2, resilience, options);
    ASSERT_EQ(results.front().lanczos.iterations, 30);
    if (threads == 1) {
      reference = results;
      continue;
    }
    for (std::size_t rank = 0; rank < results.size(); ++rank) {
      const LanczosResult& got = results[rank].lanczos;
      const LanczosResult& want = reference[rank].lanczos;
      ASSERT_EQ(got.alpha.size(), want.alpha.size());
      ASSERT_EQ(got.beta.size(), want.beta.size());
      ASSERT_EQ(got.ritz_values.size(), want.ritz_values.size());
      expect_bitwise_prefix(got.alpha, want.alpha, want.alpha.size(), "alpha");
      expect_bitwise_prefix(got.beta, want.beta, want.beta.size(), "beta");
      expect_bitwise_prefix(got.ritz_values, want.ritz_values,
                            want.ritz_values.size(), "ritz");
    }
  }
}

TEST_F(ResilientCg, LanczosRestoresCheckpointedCoefficientsBitwise) {
  // Rank 2 dies at iteration 7 with checkpoints every 5: the survivors
  // restore the iteration-5 checkpoint, whose scalar block carries the
  // first 5 alphas and betas. Up to there the recovered run must be the
  // calm run's, bit for bit; afterwards it continues on 3 ranks.
  constexpr int kRanks = 4;
  constexpr int kVictim = 2;
  constexpr std::size_t kRestored = 5;
  const auto a = matgen::poisson5_2d(16, 16);
  const ResilienceOptions calm = fast_options();
  ResilienceOptions faulty = fast_options();
  faulty.failures.push_back({kVictim, 7});
  const auto baseline = run_lanczos(a, kRanks, calm);
  const auto recovered = run_lanczos(a, kRanks, faulty);
  for (int rank = 0; rank < kRanks; ++rank) {
    if (rank == kVictim) continue;
    const auto& result = recovered[static_cast<std::size_t>(rank)];
    ASSERT_EQ(result.recovery.failures_recovered, 1) << "rank " << rank;
    const LanczosResult& want =
        baseline[static_cast<std::size_t>(rank)].lanczos;
    expect_bitwise_prefix(result.lanczos.alpha, want.alpha, kRestored,
                          "alpha");
    expect_bitwise_prefix(result.lanczos.beta, want.beta, kRestored, "beta");
  }
}

TEST_F(ResilientCg, ResilientLanczosRecoversEigenvalue) {
  // Same recovery machinery under Lanczos: after a death the survivors
  // must still converge to the known lowest eigenvalue of the 2-D
  // Poisson matrix, with the hash-derived start vector making the
  // recurrence independent of the repartition.
  constexpr int kRanks = 4;
  constexpr int kVictim = 2;
  const auto a = matgen::poisson5_2d(16, 16);
  const double expected = 4.0 - 4.0 * std::cos(std::numbers::pi / 17.0);

  ResilienceOptions resilience = fast_options();
  resilience.failures.push_back({kVictim, 7});
  minimpi::RuntimeOptions runtime;
  runtime.ranks = kRanks;

  std::vector<ResilientLanczosResult> results(kRanks);
  std::mutex mutex;
  minimpi::run(runtime, [&](minimpi::Comm& comm) {
    auto result = resilient_lanczos(comm, a, resilience);
    std::lock_guard<std::mutex> lock(mutex);
    results[static_cast<std::size_t>(comm.rank())] = std::move(result);
  });

  EXPECT_FALSE(results[kVictim].recovery.survivor);
  for (int rank = 0; rank < kRanks; ++rank) {
    if (rank == kVictim) continue;
    const auto& result = results[static_cast<std::size_t>(rank)];
    EXPECT_TRUE(result.lanczos.converged) << "rank " << rank;
    EXPECT_EQ(result.recovery.failures_recovered, 1);
    EXPECT_EQ(result.recovery.final_size, kRanks - 1);
    EXPECT_GE(result.recovery.iterations_lost, 1);
    EXPECT_LE(result.recovery.iterations_lost,
              resilience.checkpoint_interval);
    EXPECT_NEAR(result.lanczos.smallest(), expected, 1e-6) << "rank " << rank;
  }
}

}  // namespace
}  // namespace hspmv::solvers
