#include "team/thread_team.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace hspmv::team {

namespace {

/// Spin-loop hint: lets the sibling hyperthread (or the hypervisor) run
/// while this one polls.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

std::uint64_t EpochWait::wait_change(std::uint64_t seen) {
  std::uint64_t now = epoch_.load(std::memory_order_acquire);
  if (now != seen) return now;
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  do {
    cpu_relax();
    std::this_thread::yield();
    now = epoch_.load(std::memory_order_acquire);
    if (now != seen) return now;
  } while (std::chrono::steady_clock::now() < deadline);

  std::unique_lock<std::mutex> lock(mutex_);
  parked_.fetch_add(1, std::memory_order_seq_cst);
  while ((now = epoch_.load(std::memory_order_seq_cst)) == seen) {
    cv_.wait(lock);
  }
  parked_.fetch_sub(1, std::memory_order_relaxed);
  return now;
}

void EpochWait::advance() {
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) == 0) return;
  // A parked waiter holds the mutex from its parked_ increment until
  // cv_.wait releases it, so taking it here orders the notify after it.
  { std::lock_guard<std::mutex> lock(mutex_); }
  cv_.notify_all();
}

Barrier::Barrier(int parties) : parties_(parties) {
  if (parties < 1) throw std::invalid_argument("Barrier: parties must be >= 1");
}

void Barrier::arrive_and_wait() {
  const std::uint64_t seen = generation_.load();
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    // Reset before the release: a party leaving this phase can arrive at
    // the next one only after it saw the new generation.
    arrived_.store(0, std::memory_order_relaxed);
    generation_.advance();
    return;
  }
  generation_.wait_change(seen);
}

Range static_chunk(std::int64_t begin, std::int64_t end, int part,
                   int parts) {
  if (parts < 1 || part < 0 || part >= parts) {
    throw std::invalid_argument("static_chunk: bad part/parts");
  }
  const std::int64_t total = std::max<std::int64_t>(0, end - begin);
  const std::int64_t base = total / parts;
  const std::int64_t extra = total % parts;
  // The first `extra` parts get base+1 elements.
  const std::int64_t chunk_begin =
      begin + part * base + std::min<std::int64_t>(part, extra);
  const std::int64_t chunk_size = base + (part < extra ? 1 : 0);
  return Range{chunk_begin, chunk_begin + chunk_size};
}

std::vector<std::int64_t> nnz_balanced_boundaries(
    std::span<const std::int64_t> row_ptr, int parts) {
  if (parts < 1) {
    throw std::invalid_argument("nnz_balanced_boundaries: parts must be >= 1");
  }
  if (row_ptr.empty()) {
    throw std::invalid_argument("nnz_balanced_boundaries: empty row_ptr");
  }
  const auto rows = static_cast<std::int64_t>(row_ptr.size()) - 1;
  const std::int64_t nnz = row_ptr.back();
  std::vector<std::int64_t> boundaries(static_cast<std::size_t>(parts) + 1);
  boundaries.front() = 0;
  boundaries.back() = rows;
  for (int p = 1; p < parts; ++p) {
    // First row whose prefix reaches the p-th share of the nonzeros.
    const std::int64_t target =
        (nnz * p + parts / 2) / parts;  // rounded share
    const auto it =
        std::lower_bound(row_ptr.begin(), row_ptr.end(), target);
    auto row = static_cast<std::int64_t>(it - row_ptr.begin());
    row = std::min(row, rows);
    // Keep boundaries monotone even for degenerate distributions.
    boundaries[static_cast<std::size_t>(p)] =
        std::max(row, boundaries[static_cast<std::size_t>(p) - 1]);
  }
  return boundaries;
}

std::vector<std::int64_t> uniform_boundaries(std::int64_t count, int parts) {
  if (parts < 1) {
    throw std::invalid_argument("uniform_boundaries: parts must be >= 1");
  }
  if (count < 0) {
    throw std::invalid_argument("uniform_boundaries: negative count");
  }
  std::vector<std::int64_t> boundaries(static_cast<std::size_t>(parts) + 1);
  boundaries.front() = 0;
  for (int p = 0; p < parts; ++p) {
    boundaries[static_cast<std::size_t>(p) + 1] =
        static_chunk(0, count, p, parts).end;
  }
  return boundaries;
}

ThreadTeam::ThreadTeam(int threads) {
  if (threads < 1) {
    throw std::invalid_argument("ThreadTeam: threads must be >= 1");
  }
  threads_.reserve(static_cast<std::size_t>(threads - 1));
  for (int id = 1; id < threads; ++id) {
    threads_.emplace_back([this, id] { worker_main(id); });
  }
}

ThreadTeam::~ThreadTeam() {
  shutdown_.store(true, std::memory_order_relaxed);
  start_.advance();
  for (auto& t : threads_) t.join();
}

void ThreadTeam::worker_main(int id) {
  std::uint64_t seen = 0;
  while (true) {
    seen = start_.wait_change(seen);
    if (shutdown_.load(std::memory_order_relaxed)) return;
    try {
      (*task_)(id);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      done_.advance();
    }
  }
}

void ThreadTeam::execute(const std::function<void(int)>& body) {
  if (!body) throw std::invalid_argument("ThreadTeam::execute: null body");
  const bool forked = !threads_.empty();
  std::uint64_t done_seen = 0;
  if (forked) {
    // No worker touches task_ or remaining_ until start_ advances, and
    // the previous task's last finisher advanced done_ after its last
    // use of either.
    task_ = &body;
    remaining_.store(static_cast<int>(threads_.size()),
                     std::memory_order_relaxed);
    done_seen = done_.load();
    start_.advance();
  }
  // The caller is team member 0.
  std::exception_ptr caller_error;
  try {
    body(0);
  } catch (...) {
    caller_error = std::current_exception();
  }
  if (forked) {
    done_.wait_change(done_seen);
    task_ = nullptr;
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    error = std::exchange(first_error_, nullptr);
  }
  if (!error) error = caller_error;
  if (error) std::rethrow_exception(error);
}

void ThreadTeam::parallel_for(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  const int parts = size();
  execute([&](int id) {
    const Range r = static_chunk(begin, end, id, parts);
    if (!r.empty()) body(r.begin, r.end);
  });
}

}  // namespace hspmv::team
