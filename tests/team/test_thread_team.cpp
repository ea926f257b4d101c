#include "team/thread_team.hpp"

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace hspmv::team {
namespace {

TEST(StaticChunk, EvenSplit) {
  EXPECT_EQ(static_chunk(0, 12, 0, 4).begin, 0);
  EXPECT_EQ(static_chunk(0, 12, 0, 4).end, 3);
  EXPECT_EQ(static_chunk(0, 12, 3, 4).begin, 9);
  EXPECT_EQ(static_chunk(0, 12, 3, 4).end, 12);
}

TEST(StaticChunk, RemainderGoesToFirstParts) {
  // 10 over 4: sizes 3,3,2,2.
  EXPECT_EQ(static_chunk(0, 10, 0, 4).size(), 3);
  EXPECT_EQ(static_chunk(0, 10, 1, 4).size(), 3);
  EXPECT_EQ(static_chunk(0, 10, 2, 4).size(), 2);
  EXPECT_EQ(static_chunk(0, 10, 3, 4).size(), 2);
}

TEST(StaticChunk, CoversRangeExactly) {
  for (int parts = 1; parts <= 7; ++parts) {
    std::int64_t covered = 0;
    std::int64_t previous_end = 5;
    for (int p = 0; p < parts; ++p) {
      const Range r = static_chunk(5, 23, p, parts);
      EXPECT_EQ(r.begin, previous_end);
      previous_end = r.end;
      covered += r.size();
    }
    EXPECT_EQ(previous_end, 23);
    EXPECT_EQ(covered, 18);
  }
}

TEST(StaticChunk, MorePartsThanElements) {
  int nonempty = 0;
  for (int p = 0; p < 8; ++p) {
    const Range r = static_chunk(0, 3, p, 8);
    if (!r.empty()) ++nonempty;
    EXPECT_LE(r.size(), 1);
  }
  EXPECT_EQ(nonempty, 3);
}

TEST(StaticChunk, BadArgsThrow) {
  EXPECT_THROW((void)static_chunk(0, 10, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)static_chunk(0, 10, 4, 4), std::invalid_argument);
  EXPECT_THROW((void)static_chunk(0, 10, -1, 4), std::invalid_argument);
}

TEST(NnzBalanced, UniformRowsSplitEvenly) {
  // 8 rows x 3 nnz each.
  std::vector<std::int64_t> row_ptr{0, 3, 6, 9, 12, 15, 18, 21, 24};
  const auto b = nnz_balanced_boundaries(row_ptr, 4);
  EXPECT_EQ(b, (std::vector<std::int64_t>{0, 2, 4, 6, 8}));
}

TEST(NnzBalanced, SkewedRowsBalanceNonzeros) {
  // One heavy row followed by light rows: 100, 1, 1, 1, 1.
  std::vector<std::int64_t> row_ptr{0, 100, 101, 102, 103, 104};
  const auto b = nnz_balanced_boundaries(row_ptr, 2);
  ASSERT_EQ(b.size(), 3u);
  // The split lands right after the heavy row.
  EXPECT_EQ(b[1], 1);
  EXPECT_EQ(b[2], 5);
}

TEST(NnzBalanced, MonotoneForPathologicalInput) {
  // All nonzeros in the last row.
  std::vector<std::int64_t> row_ptr{0, 0, 0, 0, 50};
  const auto b = nnz_balanced_boundaries(row_ptr, 4);
  for (std::size_t i = 1; i < b.size(); ++i) {
    EXPECT_LE(b[i - 1], b[i]);
  }
  EXPECT_EQ(b.front(), 0);
  EXPECT_EQ(b.back(), 4);
}

TEST(NnzBalanced, SinglePart) {
  std::vector<std::int64_t> row_ptr{0, 2, 4};
  EXPECT_EQ(nnz_balanced_boundaries(row_ptr, 1),
            (std::vector<std::int64_t>{0, 2}));
}

TEST(NnzBalanced, BadArgsThrow) {
  std::vector<std::int64_t> row_ptr{0, 2};
  EXPECT_THROW((void)nnz_balanced_boundaries(row_ptr, 0),
               std::invalid_argument);
  EXPECT_THROW(
      (void)nnz_balanced_boundaries(std::span<const std::int64_t>(), 2),
      std::invalid_argument);
}

TEST(Barrier, SingleParty) {
  Barrier b(1);
  b.arrive_and_wait();  // must not block
  b.arrive_and_wait();
}

TEST(Barrier, InvalidPartiesThrow) {
  EXPECT_THROW(Barrier(0), std::invalid_argument);
}

TEST(ThreadTeam, AllMembersRun) {
  ThreadTeam pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(4);
  pool.execute([&](int id) { hits[static_cast<std::size_t>(id)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadTeam, ReusableAcrossInvocations) {
  ThreadTeam pool(3);
  std::atomic<int> total{0};
  for (int i = 0; i < 20; ++i) {
    pool.execute([&](int) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 60);
}

TEST(ThreadTeam, ParallelForSumsRange) {
  ThreadTeam pool(4);
  std::vector<std::int64_t> data(1000);
  std::iota(data.begin(), data.end(), 0);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(0, 1000, [&](std::int64_t b, std::int64_t e) {
    std::int64_t local = 0;
    for (std::int64_t i = b; i < e; ++i) {
      local += data[static_cast<std::size_t>(i)];
    }
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), 999 * 1000 / 2);
}

TEST(ThreadTeam, ParallelForEmptyRange) {
  ThreadTeam pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, [&](std::int64_t, std::int64_t) { calls++; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadTeam, BarrierInsideExecute) {
  ThreadTeam pool(4);
  Barrier barrier(4);
  std::atomic<int> phase1{0};
  std::atomic<bool> violation{false};
  pool.execute([&](int) {
    phase1.fetch_add(1);
    barrier.arrive_and_wait();
    if (phase1.load() != 4) violation = true;
  });
  EXPECT_FALSE(violation.load());
}

TEST(ThreadTeam, SubsetBarrierForTaskMode) {
  // Task-mode shape: member 0 "communicates" while members 1..3 compute
  // and synchronize among themselves only.
  ThreadTeam pool(4);
  Barrier workers(3);
  std::atomic<int> comm_done{0};
  std::atomic<int> compute_done{0};
  pool.execute([&](int id) {
    if (id == 0) {
      comm_done = 1;
    } else {
      compute_done.fetch_add(1);
      workers.arrive_and_wait();
      EXPECT_EQ(compute_done.load(), 3);
    }
  });
  EXPECT_EQ(comm_done.load(), 1);
}

TEST(ThreadTeam, ExceptionPropagatesToCaller) {
  ThreadTeam pool(3);
  EXPECT_THROW(pool.execute([&](int id) {
    if (id == 1) throw std::runtime_error("member 1 failed");
  }),
               std::runtime_error);
  // The pool survives and remains usable.
  std::atomic<int> total{0};
  pool.execute([&](int) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 3);
}

TEST(ThreadTeam, CallerExceptionAlsoPropagates) {
  ThreadTeam pool(2);
  EXPECT_THROW(pool.execute([&](int id) {
    if (id == 0) throw std::logic_error("caller failed");
  }),
               std::logic_error);
}

TEST(ThreadTeam, SingleThreadTeamRunsInline) {
  ThreadTeam pool(1);
  int value = 0;
  pool.execute([&](int id) {
    EXPECT_EQ(id, 0);
    value = 42;
  });
  EXPECT_EQ(value, 42);
}

TEST(ThreadTeam, InvalidSizeThrows) {
  EXPECT_THROW(ThreadTeam(0), std::invalid_argument);
}

TEST(ThreadTeam, NullBodyThrows) {
  ThreadTeam pool(2);
  EXPECT_THROW(pool.execute(std::function<void(int)>()),
               std::invalid_argument);
}

/// Idle long enough that every waiter has left its spin and parked.
void idle_past_spin_budget() {
  std::this_thread::sleep_for(20 * EpochWait::kSpinBudget);
}

TEST(EpochWait, ParkedWaiterWakesOnAdvance) {
  EpochWait epoch;
  const std::uint64_t seen = epoch.load();
  std::atomic<std::uint64_t> woke_with{seen};
  std::thread waiter([&] { woke_with = epoch.wait_change(seen); });
  idle_past_spin_budget();
  epoch.advance();
  waiter.join();
  EXPECT_EQ(woke_with.load(), seen + 1);
  // An epoch that already moved returns at once.
  EXPECT_EQ(epoch.wait_change(seen), seen + 1);
}

TEST(Barrier, LateArrivalWakesParkedParties) {
  ThreadTeam pool(3);
  Barrier barrier(3);
  std::atomic<int> before{0};
  std::atomic<bool> violation{false};
  for (int round = 0; round < 3; ++round) {
    pool.execute([&](int id) {
      if (id == 0) idle_past_spin_budget();  // the others park meanwhile
      before.fetch_add(1);
      barrier.arrive_and_wait();
      if (before.load() < 3 * (round + 1)) violation = true;
      barrier.arrive_and_wait();
    });
  }
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(before.load(), 9);
}

TEST(ThreadTeam, ManyExecutesMixEmptyAndBusyBodies) {
  // 10^5 fork/joins through the hot (spinning) handoff, every 64th body
  // busy long enough to skew the members against each other.
  ThreadTeam pool(3);
  std::vector<std::int64_t> runs(3, 0);
  std::atomic<std::int64_t> sink{0};
  constexpr int kExecutes = 100000;
  for (int i = 0; i < kExecutes; ++i) {
    if (i % 64 == 0) {
      pool.execute([&](int id) {
        std::int64_t acc = 0;
        for (int k = 0; k < 2000 * (id + 1); ++k) acc += k ^ i;
        sink.fetch_add(acc, std::memory_order_relaxed);
        ++runs[static_cast<std::size_t>(id)];
      });
    } else {
      pool.execute([&](int id) { ++runs[static_cast<std::size_t>(id)]; });
    }
  }
  // Plain (non-atomic) per-member counters: the join publishes them.
  for (const std::int64_t r : runs) EXPECT_EQ(r, kExecutes);
  EXPECT_NE(sink.load(), 0);
}

TEST(ThreadTeam, WakesAfterIdleLongerThanSpinBudget) {
  // Park path: the workers give up spinning during each pause and must
  // be woken by the next execute.
  ThreadTeam pool(4);
  std::vector<std::atomic<int>> hits(4);
  for (int round = 0; round < 5; ++round) {
    idle_past_spin_budget();
    pool.execute([&](int id) { hits[static_cast<std::size_t>(id)]++; });
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 5);
}

TEST(ThreadTeam, OversubscribedTeamFinishesInBoundedTime) {
  // More members than this 4-vCPU host has cores: the yielding spin
  // must hand the cores over instead of starving the members it waits
  // for. A generous wall-clock bound catches a livelock.
  ThreadTeam pool(8);
  Barrier barrier(8);
  std::atomic<int> total{0};
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 2000; ++i) {
    pool.execute([&](int) {
      total.fetch_add(1, std::memory_order_relaxed);
      barrier.arrive_and_wait();
    });
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(total.load(), 16000);
  EXPECT_LT(elapsed, std::chrono::seconds(60));
}

TEST(ThreadTeam, ExceptionsPropagateAfterPark) {
  ThreadTeam pool(3);
  idle_past_spin_budget();
  EXPECT_THROW(pool.execute([&](int id) {
    if (id == 2) throw std::runtime_error("member 2 failed");
  }),
               std::runtime_error);
  idle_past_spin_budget();
  EXPECT_THROW(pool.execute([&](int id) {
    if (id == 0) throw std::logic_error("caller failed");
    idle_past_spin_budget();  // the caller parks on the join
  }),
               std::logic_error);
  idle_past_spin_budget();
  std::atomic<int> total{0};
  pool.execute([&](int) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 3);
}

}  // namespace
}  // namespace hspmv::team
