// Thread-team substrate — the OpenMP-worker-thread analogue.
//
// Task mode (paper Sect. 3.2) cannot use OpenMP worksharing because the
// standard has no subteams: one thread must do MPI while the rest compute,
// with work distributed explicitly "using one contiguous chunk of nonzeros
// per compute thread". This module provides exactly those primitives: a
// persistent worker pool (threads are not pinned to cores), a barrier
// usable by any subset, static range chunking, and nonzero-balanced row
// chunking.
//
// Every wait in the team — a worker waiting for the next execute(), the
// caller waiting for the join, a Barrier party waiting for the last
// arrival — is one bounded spin-then-park (EpochWait): spin on an atomic
// epoch for about 50 µs, then sleep on a condition variable that the
// waker signals only when someone sleeps. The spin keeps the handoff
// between back-to-back dispatches in the µs range; each spin step also
// yields the CPU, so a waiter that shares its core with the thread it
// waits for (more threads than cores) hands the core over instead of
// burning its time slice.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace hspmv::team {

/// Lock-free max-reduction into `target` — the per-phase timing
/// aggregation ("max over participating threads") used by the engine's
/// parallel gather and task-mode compute phases.
inline void atomic_fetch_max(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (current < value &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

/// A monotone 64-bit epoch that threads wait on: the team's one handoff
/// primitive. advance() bumps the epoch (release); wait_change() returns
/// once the epoch differs from the value the waiter last saw (acquire).
///
/// A waiter spins for at most kSpinBudget of wall time, each step a CPU
/// pause hint followed by std::this_thread::yield(), then parks on a
/// condition variable. advance() takes the mutex and notifies only when
/// a waiter is parked, so a hot handoff costs one atomic increment and
/// one load. The parked count and the epoch are both sequentially
/// consistent, so either the waker sees the sleeper or the sleeper sees
/// the new epoch before it sleeps: no wake-up is lost.
class EpochWait {
 public:
  static constexpr std::chrono::microseconds kSpinBudget{50};

  [[nodiscard]] std::uint64_t load() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Block until the epoch differs from `seen`; returns the new epoch.
  std::uint64_t wait_change(std::uint64_t seen);

  /// Bump the epoch and wake every waiter.
  void advance();

 private:
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> parked_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

/// Reusable barrier for `parties` threads: arrivals count up on an
/// atomic, the last one resets the count and advances the generation
/// every other party waits on (spin-then-park, see EpochWait). Any
/// subset of a team can use its own Barrier, as task mode's workers do.
class Barrier {
 public:
  explicit Barrier(int parties);

  /// Block until `parties` threads have arrived.
  void arrive_and_wait();

  [[nodiscard]] int parties() const { return parties_; }

 private:
  int parties_;
  std::atomic<int> arrived_{0};
  EpochWait generation_;
};

/// Half-open index range.
struct Range {
  std::int64_t begin = 0;
  std::int64_t end = 0;

  [[nodiscard]] std::int64_t size() const { return end - begin; }
  [[nodiscard]] bool empty() const { return begin >= end; }
};

/// Static chunk `part` of `parts` over [begin, end): contiguous, sizes
/// differing by at most one (OpenMP schedule(static) semantics).
Range static_chunk(std::int64_t begin, std::int64_t end, int part, int parts);

/// Row boundaries splitting a CSR row_ptr into `parts` contiguous chunks
/// of approximately equal *nonzero* count — the paper's "one contiguous
/// chunk of nonzeros per compute thread". Returns parts+1 boundaries with
/// front() == 0 and back() == rows.
std::vector<std::int64_t> nnz_balanced_boundaries(
    std::span<const std::int64_t> row_ptr, int parts);

/// Boundaries splitting [0, count) into `parts` contiguous chunks of
/// approximately equal *element* count (static_chunk semantics) — the
/// schedule alternative the autotuner sweeps against nnz balancing.
/// Returns parts+1 boundaries with front() == 0 and back() == count.
std::vector<std::int64_t> uniform_boundaries(std::int64_t count, int parts);

/// Persistent worker pool. Threads are created once and reused across
/// execute() calls; a fork/join is two EpochWait handoffs (start, then
/// the last finisher's done), no thread spawn and, while the team is
/// busy, no lock.
class ThreadTeam {
 public:
  explicit ThreadTeam(int threads);
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(threads_.size()) + 1; }

  /// Run body(thread_id) on every team member (thread 0 is the calling
  /// thread) and block until all return. Exceptions from members are
  /// captured and the first is rethrown on the caller.
  void execute(const std::function<void(int)>& body);

  /// Static-schedule parallel loop over [begin, end): each member runs
  /// body(chunk_begin, chunk_end) on its contiguous chunk.
  void parallel_for(std::int64_t begin, std::int64_t end,
                    const std::function<void(std::int64_t, std::int64_t)>&
                        body);

 private:
  void worker_main(int id);

  std::vector<std::thread> threads_;
  /// Advanced by execute() once task_ is set (and by the destructor).
  EpochWait start_;
  /// Advanced by the last worker to finish the current task.
  EpochWait done_;
  const std::function<void(int)>* task_ = nullptr;
  std::atomic<int> remaining_{0};
  std::atomic<bool> shutdown_{false};
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
};

}  // namespace hspmv::team
