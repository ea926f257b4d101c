// Communicator handle — the MPI_Comm analogue of minimpi.
//
// A Comm is a cheap value type: (shared communicator state, my rank).
// Point-to-point messages move through the runtime's matching Board under
// the configured progress mode; collectives use an in-process
// publish/barrier protocol (they are blocking, so progress semantics do
// not apply to them).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "minimpi/board.hpp"
#include "minimpi/types.hpp"

namespace hspmv::minimpi {

/// Handle to a pending nonblocking operation.
class Request {
 public:
  Request() = default;
  explicit Request(std::shared_ptr<RequestState> state)
      : state_(std::move(state)) {}

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] const std::shared_ptr<RequestState>& state() const {
    return state_;
  }

 private:
  std::shared_ptr<RequestState> state_;
};

/// Completion information of a receive.
struct Status {
  int source = 0;
  int tag = 0;
  std::size_t bytes = 0;

  /// Received element count; `bytes` must be divisible by sizeof(T).
  template <typename T>
  [[nodiscard]] std::size_t count() const {
    return bytes / sizeof(T);
  }
};

namespace detail {

/// Publish/barrier scratchpad for collectives on one communicator.
struct CollectiveSlots {
  explicit CollectiveSlots(int size)
      : pointers(static_cast<std::size_t>(size), nullptr),
        sizes(static_cast<std::size_t>(size), 0),
        ints(2 * static_cast<std::size_t>(size), 0) {}
  ~CollectiveSlots();

  std::mutex mutex;
  std::condition_variable cv;
  int arrived = 0;
  bool sense = false;
  bool aborted = false;
  /// ULFM revocation state: set when a member of this communicator died
  /// or revoke() was called. Barrier entry and waiters throw FaultError
  /// {kPermanent, revoked_by, revoke_epoch} instead of blocking on a
  /// member that will never arrive.
  bool revoked = false;
  int revoked_by = -1;
  std::uint64_t revoke_epoch = 0;
  std::string revoke_reason;
  /// Bumped on every barrier release (and on abort). A blocked-in-barrier
  /// registration captures the entry value so the deadlock scanner can
  /// tell a released-but-not-yet-rescheduled waiter from a genuinely
  /// blocked one without taking this mutex (lock order stays
  /// slots -> checker).
  std::atomic<std::uint64_t> release_generation{0};

  /// Chaos layer (owned by the Board); jitters barrier arrival — and
  /// thereby every collective's publish slots. Null or disabled: no-op.
  FaultInjector* injector = nullptr;

  /// Owning board. When set, the slots register for shutdown propagation:
  /// a runtime abort also unblocks barriers of derived communicators, not
  /// just the world's (set by both comm creation sites).
  Board* board = nullptr;
  /// Usage validator (owned by the board; null when validation is off).
  /// Barrier waiters register in its blocked-state registry, so the
  /// wait-for-graph cycle detector sees ranks stuck in collectives and
  /// the watchdog can dump them.
  UsageChecker* checker = nullptr;
  std::uint64_t comm_id = 0;
  /// World ranks of the communicator's members (points into the owning
  /// CommState; same lifetime as these slots).
  const std::vector<int>* global_of = nullptr;
  double watchdog_seconds = 0.0;

  std::vector<const void*> pointers;
  std::vector<std::size_t> sizes;
  std::vector<std::int64_t> ints;

  /// Central sense-reversing barrier. Throws if abort() was signalled,
  /// the communicator was revoked (FaultError), or the checker's cycle
  /// detector proves this barrier deadlocked. `global_rank` identifies
  /// the arriving thread for the blocked-state registry (-1:
  /// unregistered).
  void barrier(int size, int global_rank = -1);
  void abort();
  /// Revoke this communicator after `dead_rank`'s death at `epoch`:
  /// current waiters wake and throw FaultError, future barriers throw on
  /// entry. Called by the Board with its mutex held (lock order
  /// board -> slots, as with abort()).
  void revoke(int dead_rank, std::uint64_t epoch, const std::string& reason);

 private:
  [[noreturn]] void throw_revoked_locked() const;
};

struct CommState {
  std::uint64_t id = 0;
  int size = 0;
  Board* board = nullptr;
  /// Source of unique ids for communicators derived via split().
  std::atomic<std::uint64_t>* next_comm_id = nullptr;
  /// global_of[comm rank] = world rank (thread identity, used for
  /// progress claiming).
  std::vector<int> global_of;
  std::unique_ptr<CollectiveSlots> slots;
};

}  // namespace detail

class Comm {
 public:
  Comm() = default;
  Comm(std::shared_ptr<detail::CommState> state, int rank)
      : state_(std::move(state)), rank_(rank) {}

  /// False for the null communicator returned by split() with a negative
  /// color.
  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const {
    if (!valid()) throw std::logic_error("minimpi: null communicator");
    return state_->size;
  }
  /// World (thread-identity) rank of this comm rank.
  [[nodiscard]] int global_rank() const {
    return state_->global_of[static_cast<std::size_t>(rank_)];
  }

  // ---- point-to-point ----

  template <typename T>
  Request isend(std::span<const T> data, int dest, int tag = 0) const {
    static_assert(std::is_trivially_copyable_v<T>);
    check_peer(dest);
    return Request(state_->board->post_send(
        state_->id, rank_, dest, tag, data.data(), data.size_bytes(),
        global_rank(), state_->global_of[static_cast<std::size_t>(dest)]));
  }

  template <typename T>
  Request irecv(std::span<T> buffer, int source, int tag = 0) const {
    static_assert(std::is_trivially_copyable_v<T>);
    check_peer(source);
    return Request(state_->board->post_recv(
        state_->id, source, rank_, tag, buffer.data(), buffer.size_bytes(),
        state_->global_of[static_cast<std::size_t>(source)], global_rank()));
  }

  template <typename T>
  void send(std::span<const T> data, int dest, int tag = 0) const {
    Request r = isend(data, dest, tag);
    wait(r);
  }

  template <typename T>
  Status recv(std::span<T> buffer, int source, int tag = 0) const {
    Request r = irecv(buffer, source, tag);
    return wait(r);
  }

  /// Wait for one request; returns the matched envelope (meaningful for
  /// receives). Throws std::runtime_error on transfer errors.
  Status wait(Request& request) const;

  /// Wait for all requests (invalid/default requests are skipped).
  void wait_all(std::span<Request> requests) const;

  /// Nonblocking completion check with bounded progress.
  bool test(Request& request) const;

  // ---- collectives (must be called by every rank of the comm) ----

  void barrier() const;

  template <typename T>
  void broadcast(std::span<T> data, int root) const;

  template <typename T>
  void allreduce(std::span<const T> contribution, std::span<T> result,
                 ReduceOp op) const;

  /// Scalar convenience wrapper.
  template <typename T>
  [[nodiscard]] T allreduce(T value, ReduceOp op) const {
    T result{};
    allreduce(std::span<const T>(&value, 1), std::span<T>(&result, 1), op);
    return result;
  }

  template <typename T>
  void reduce(std::span<const T> contribution, std::span<T> result,
              ReduceOp op, int root) const;

  /// Gather one value per rank onto every rank.
  template <typename T>
  [[nodiscard]] std::vector<T> allgather(const T& value) const;

  /// Variable-size allgather: every rank contributes a span, every rank
  /// receives the rank-ordered concatenation.
  template <typename T>
  [[nodiscard]] std::vector<T> allgatherv(std::span<const T> data) const;

  /// Personalized all-to-all: send[i] goes to rank i; returns what each
  /// rank sent to me, indexed by source rank.
  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>> alltoallv(
      const std::vector<std::vector<T>>& send) const;

  /// Combined send+receive without deadlock (MPI_Sendrecv): both
  /// operations are posted nonblocking, then completed together.
  template <typename T>
  Status sendrecv(std::span<const T> send_data, int dest,
                  std::span<T> recv_buffer, int source, int send_tag = 0,
                  int recv_tag = 0) const {
    Request recv_request = irecv(recv_buffer, source, recv_tag);
    Request send_request = isend(send_data, dest, send_tag);
    const Status status = wait(recv_request);
    Request r = send_request;
    wait(r);
    return status;
  }

  /// Variable-size gather to `root`: root receives the rank-ordered
  /// concatenation, other ranks receive an empty vector.
  template <typename T>
  [[nodiscard]] std::vector<T> gatherv(std::span<const T> data,
                                       int root) const;

  /// Variable-size scatter from `root`: `chunks` (significant at root
  /// only) holds one bucket per rank; every rank receives its bucket.
  template <typename T>
  [[nodiscard]] std::vector<T> scatterv(
      const std::vector<std::vector<T>>& chunks, int root) const;

  /// In-place variable-size gather (MPI_Gatherv): rank r's `send` lands
  /// in root's `recv` right after the slices of ranks 0..r-1, so slice
  /// sizes are the ranks' send sizes and `recv` (significant at root
  /// only) must hold exactly their sum. Each rank copies its own slice
  /// straight into root's buffer; nothing is allocated. A size mismatch
  /// throws std::invalid_argument on every rank, after which the
  /// communicator stays usable.
  template <typename T>
  void gatherv(std::span<const T> send, std::span<T> recv, int root) const;

  /// In-place variable-size scatter (MPI_Scatterv): rank r receives the
  /// slice of root's `send` that follows the slices of ranks 0..r-1, its
  /// size being r's `recv` size; `send` (significant at root only) must
  /// hold exactly the sum of the recv sizes. Each rank copies its own
  /// slice straight out of root's buffer; nothing is allocated. A size
  /// mismatch throws std::invalid_argument on every rank, after which
  /// the communicator stays usable.
  template <typename T>
  void scatterv(std::span<const T> send, std::span<T> recv, int root) const;

  /// Exclusive prefix reduction (MPI_Exscan): rank r receives the
  /// reduction of ranks 0..r-1's values (identity for rank 0 — returns T{}
  /// for kSum semantics; callers wanting other ops should ignore rank 0's
  /// result, as with MPI).
  template <typename T>
  [[nodiscard]] T exscan(const T& value, ReduceOp op) const;

  /// Split into sub-communicators by color (ranks ordered by (key, old
  /// rank)). Negative color yields an invalid Comm for that rank.
  [[nodiscard]] Comm split(int color, int key) const;

  /// Duplicate: same group and ordering, isolated message/collective
  /// space (MPI_Comm_dup).
  [[nodiscard]] Comm dup() const { return split(0, rank_); }

  // ---- fault tolerance (ULFM analogues; docs/resilience.md) ----

  /// MPI_Comm_revoke: every pending and future operation on this
  /// communicator fails with FaultError{kPermanent} and blocked
  /// collectives release. Any rank may call it; it is not collective.
  void revoke() const;

  /// MPI_Comm_shrink: collective among the *survivors* — returns a fresh
  /// working communicator over the live members in old rank order.
  /// Throws FaultError if another member dies mid-shrink (retry under
  /// the new epoch) or the caller itself is dead.
  [[nodiscard]] Comm shrink() const;

  /// Elastic grow (the inverse of shrink): collective among *all* current
  /// members — returns a fresh communicator over the old members (same
  /// ranks) plus `extra` brand-new ranks appended at the end. The runtime
  /// starts one thread per joiner; each runs `joiner_main` on its new
  /// Comm (the joiner never sees the parent — its first collective is on
  /// the grown communicator). Every member must pass the same `extra`.
  /// Throws FaultError if a member dies mid-grow (shrink, then retry).
  [[nodiscard]] Comm spawn(
      int extra, const std::function<void(Comm&)>& joiner_main) const;

  /// True once this communicator was revoked (a member died or revoke()
  /// was called).
  [[nodiscard]] bool is_revoked() const;

  /// Comm ranks of members declared dead so far.
  [[nodiscard]] std::vector<int> failed_members() const;

  /// World ranks of all members, in comm rank order (the group).
  [[nodiscard]] std::vector<int> group() const {
    if (!valid()) throw std::logic_error("minimpi: null communicator");
    return state_->global_of;
  }

  /// The board's failure epoch: bumps once per declared rank death.
  [[nodiscard]] std::uint64_t epoch() const;

  /// Fault-injection hook: declare *this* rank dead (revoking every
  /// communicator containing it) and throw FaultError on it — the
  /// driver-level "kill rank R at iteration I" primitive of the
  /// resilience tests and benches.
  [[noreturn]] void simulate_rank_failure() const;

 private:
  void check_peer(int peer) const {
    if (!valid()) throw std::logic_error("minimpi: null communicator");
    if (peer < 0 || peer >= state_->size) {
      throw std::out_of_range("minimpi: peer rank out of range");
    }
  }

  /// Entry guard of every collective: using the null communicator is a
  /// logic error, as with p2p.
  detail::CollectiveSlots& collective_slots() const {
    if (!valid()) throw std::logic_error("minimpi: null communicator");
    return *state_->slots;
  }

  template <typename T>
  static T apply_op(T a, T b, ReduceOp op) {
    switch (op) {
      case ReduceOp::kSum:
        return a + b;
      case ReduceOp::kProd:
        return a * b;
      case ReduceOp::kMin:
        return b < a ? b : a;
      case ReduceOp::kMax:
        return a < b ? b : a;
    }
    return a;
  }

  std::shared_ptr<detail::CommState> state_;
  int rank_ = -1;
};

// ---- template implementations ----

template <typename T>
void Comm::broadcast(std::span<T> data, int root) const {
  static_assert(std::is_trivially_copyable_v<T>);
  check_peer(root);
  auto& slots = collective_slots();
  if (rank_ == root) {
    slots.pointers[static_cast<std::size_t>(root)] = data.data();
    slots.sizes[static_cast<std::size_t>(root)] = data.size_bytes();
  }
  slots.barrier(state_->size, global_rank());
  if (rank_ != root) {
    if (slots.sizes[static_cast<std::size_t>(root)] != data.size_bytes()) {
      slots.abort();
      throw std::invalid_argument("broadcast: buffer size mismatch");
    }
    const T* src = static_cast<const T*>(
        slots.pointers[static_cast<std::size_t>(root)]);
    std::copy(src, src + data.size(), data.begin());
  }
  slots.barrier(state_->size, global_rank());
}

template <typename T>
void Comm::allreduce(std::span<const T> contribution, std::span<T> result,
                     ReduceOp op) const {
  static_assert(std::is_trivially_copyable_v<T>);
  if (contribution.size() != result.size()) {
    throw std::invalid_argument("allreduce: size mismatch");
  }
  auto& slots = collective_slots();
  slots.pointers[static_cast<std::size_t>(rank_)] = contribution.data();
  slots.sizes[static_cast<std::size_t>(rank_)] = contribution.size_bytes();
  slots.barrier(state_->size, global_rank());
  for (std::size_t i = 0; i < result.size(); ++i) {
    T accumulator =
        static_cast<const T*>(slots.pointers[0])[i];
    for (int r = 1; r < state_->size; ++r) {
      accumulator = apply_op(
          accumulator,
          static_cast<const T*>(
              slots.pointers[static_cast<std::size_t>(r)])[i],
          op);
    }
    result[i] = accumulator;
  }
  slots.barrier(state_->size, global_rank());
}

template <typename T>
void Comm::reduce(std::span<const T> contribution, std::span<T> result,
                  ReduceOp op, int root) const {
  static_assert(std::is_trivially_copyable_v<T>);
  check_peer(root);
  auto& slots = collective_slots();
  slots.pointers[static_cast<std::size_t>(rank_)] = contribution.data();
  slots.barrier(state_->size, global_rank());
  if (rank_ == root) {
    if (result.size() != contribution.size()) {
      slots.abort();
      throw std::invalid_argument("reduce: size mismatch at root");
    }
    for (std::size_t i = 0; i < result.size(); ++i) {
      T accumulator = static_cast<const T*>(slots.pointers[0])[i];
      for (int r = 1; r < state_->size; ++r) {
        accumulator = apply_op(
            accumulator,
            static_cast<const T*>(
                slots.pointers[static_cast<std::size_t>(r)])[i],
            op);
      }
      result[i] = accumulator;
    }
  }
  slots.barrier(state_->size, global_rank());
}

template <typename T>
std::vector<T> Comm::allgather(const T& value) const {
  static_assert(std::is_trivially_copyable_v<T>);
  auto& slots = collective_slots();
  slots.pointers[static_cast<std::size_t>(rank_)] = &value;
  slots.barrier(state_->size, global_rank());
  std::vector<T> result(static_cast<std::size_t>(state_->size));
  for (int r = 0; r < state_->size; ++r) {
    result[static_cast<std::size_t>(r)] =
        *static_cast<const T*>(slots.pointers[static_cast<std::size_t>(r)]);
  }
  slots.barrier(state_->size, global_rank());
  return result;
}

template <typename T>
std::vector<T> Comm::allgatherv(std::span<const T> data) const {
  static_assert(std::is_trivially_copyable_v<T>);
  auto& slots = collective_slots();
  slots.pointers[static_cast<std::size_t>(rank_)] = data.data();
  slots.sizes[static_cast<std::size_t>(rank_)] = data.size();
  slots.barrier(state_->size, global_rank());
  std::size_t total = 0;
  for (int r = 0; r < state_->size; ++r) {
    total += slots.sizes[static_cast<std::size_t>(r)];
  }
  std::vector<T> result;
  result.reserve(total);
  for (int r = 0; r < state_->size; ++r) {
    const T* src =
        static_cast<const T*>(slots.pointers[static_cast<std::size_t>(r)]);
    result.insert(result.end(), src,
                  src + slots.sizes[static_cast<std::size_t>(r)]);
  }
  slots.barrier(state_->size, global_rank());
  return result;
}

template <typename T>
std::vector<T> Comm::gatherv(std::span<const T> data, int root) const {
  static_assert(std::is_trivially_copyable_v<T>);
  check_peer(root);
  auto& slots = collective_slots();
  slots.pointers[static_cast<std::size_t>(rank_)] = data.data();
  slots.sizes[static_cast<std::size_t>(rank_)] = data.size();
  slots.barrier(state_->size, global_rank());
  std::vector<T> result;
  if (rank_ == root) {
    std::size_t total = 0;
    for (int r = 0; r < state_->size; ++r) {
      total += slots.sizes[static_cast<std::size_t>(r)];
    }
    result.reserve(total);
    for (int r = 0; r < state_->size; ++r) {
      const T* src =
          static_cast<const T*>(slots.pointers[static_cast<std::size_t>(r)]);
      result.insert(result.end(), src,
                    src + slots.sizes[static_cast<std::size_t>(r)]);
    }
  }
  slots.barrier(state_->size, global_rank());
  return result;
}

template <typename T>
std::vector<T> Comm::scatterv(const std::vector<std::vector<T>>& chunks,
                              int root) const {
  static_assert(std::is_trivially_copyable_v<T>);
  check_peer(root);
  auto& slots = collective_slots();
  if (rank_ == root) {
    if (chunks.size() != static_cast<std::size_t>(state_->size)) {
      slots.abort();
      throw std::invalid_argument("scatterv: need one chunk per rank");
    }
    slots.pointers[static_cast<std::size_t>(root)] =
        static_cast<const void*>(&chunks);
  }
  slots.barrier(state_->size, global_rank());
  const auto* all = static_cast<const std::vector<std::vector<T>>*>(
      slots.pointers[static_cast<std::size_t>(root)]);
  std::vector<T> mine = (*all)[static_cast<std::size_t>(rank_)];
  slots.barrier(state_->size, global_rank());
  return mine;
}

template <typename T>
void Comm::gatherv(std::span<const T> send, std::span<T> recv,
                   int root) const {
  static_assert(std::is_trivially_copyable_v<T>);
  check_peer(root);
  auto& slots = collective_slots();
  const auto me = static_cast<std::size_t>(rank_);
  slots.sizes[me] = send.size();
  if (rank_ == root) {
    // Every rank writes its own slice of this buffer.
    slots.pointers[me] = recv.data();
    slots.ints[me] = static_cast<std::int64_t>(recv.size());
  }
  slots.barrier(state_->size, global_rank());
  // Every rank reads the same published sizes, so all of them agree on
  // the mismatch verdict; the second barrier keeps the slots stable
  // until everyone has read them.
  std::size_t offset = 0;
  std::size_t total = 0;
  for (int r = 0; r < state_->size; ++r) {
    if (r == rank_) offset = total;
    total += slots.sizes[static_cast<std::size_t>(r)];
  }
  const auto at_root = static_cast<std::size_t>(root);
  const bool fits = total == static_cast<std::size_t>(slots.ints[at_root]);
  if (fits) {
    T* dst = static_cast<T*>(const_cast<void*>(slots.pointers[at_root]));
    std::copy(send.begin(), send.end(), dst + offset);
  }
  slots.barrier(state_->size, global_rank());
  if (!fits) {
    throw std::invalid_argument("gatherv: recv size != sum of send sizes");
  }
}

template <typename T>
void Comm::scatterv(std::span<const T> send, std::span<T> recv,
                    int root) const {
  static_assert(std::is_trivially_copyable_v<T>);
  check_peer(root);
  auto& slots = collective_slots();
  const auto me = static_cast<std::size_t>(rank_);
  slots.sizes[me] = recv.size();
  if (rank_ == root) {
    slots.pointers[me] = send.data();
    slots.ints[me] = static_cast<std::int64_t>(send.size());
  }
  slots.barrier(state_->size, global_rank());
  std::size_t offset = 0;
  std::size_t total = 0;
  for (int r = 0; r < state_->size; ++r) {
    if (r == rank_) offset = total;
    total += slots.sizes[static_cast<std::size_t>(r)];
  }
  const auto at_root = static_cast<std::size_t>(root);
  const bool fits = total == static_cast<std::size_t>(slots.ints[at_root]);
  if (fits) {
    const T* src = static_cast<const T*>(slots.pointers[at_root]);
    std::copy(src + offset, src + offset + recv.size(), recv.begin());
  }
  slots.barrier(state_->size, global_rank());
  if (!fits) {
    throw std::invalid_argument("scatterv: send size != sum of recv sizes");
  }
}

template <typename T>
T Comm::exscan(const T& value, ReduceOp op) const {
  static_assert(std::is_trivially_copyable_v<T>);
  auto& slots = collective_slots();
  slots.pointers[static_cast<std::size_t>(rank_)] = &value;
  slots.barrier(state_->size, global_rank());
  T accumulator{};
  for (int r = 0; r < rank_; ++r) {
    const T contribution =
        *static_cast<const T*>(slots.pointers[static_cast<std::size_t>(r)]);
    accumulator =
        r == 0 ? contribution : apply_op(accumulator, contribution, op);
  }
  slots.barrier(state_->size, global_rank());
  return accumulator;
}

template <typename T>
std::vector<std::vector<T>> Comm::alltoallv(
    const std::vector<std::vector<T>>& send) const {
  static_assert(std::is_trivially_copyable_v<T>);
  if (send.size() != static_cast<std::size_t>(state_->size)) {
    throw std::invalid_argument("alltoallv: need one bucket per rank");
  }
  auto& slots = collective_slots();
  slots.pointers[static_cast<std::size_t>(rank_)] =
      static_cast<const void*>(&send);
  slots.barrier(state_->size, global_rank());
  std::vector<std::vector<T>> received(
      static_cast<std::size_t>(state_->size));
  for (int r = 0; r < state_->size; ++r) {
    const auto* their_send = static_cast<const std::vector<std::vector<T>>*>(
        slots.pointers[static_cast<std::size_t>(r)]);
    received[static_cast<std::size_t>(r)] =
        (*their_send)[static_cast<std::size_t>(rank_)];
  }
  slots.barrier(state_->size, global_rank());
  return received;
}

}  // namespace hspmv::minimpi
