// spmv-as-a-service: a batching front-end over the blocked SpMM engine.
//
// Single-vector requests arrive on a bounded FIFO queue; the server
// coalesces them into K-wide MultiVector blocks (K = max_block, or
// fewer when the oldest request's max-wait deadline expires) and runs
// each block through one RecoverableSpmv::apply. Batching is the
// serving-side payoff of the B_SpMM(K) model: the matrix streams once
// per block, so per-request cost drops toward the vector floor while
// per-request latency is bounded by the deadline.
//
// serve() is collective: rank 0 owns the queue, assembles batches, and
// packs each into one row-major global block; every rank receives only
// its owned rows of it (one scatter, straight into a reused MultiVector),
// applies its row block, and the owned results gather back to rank 0 in
// one collective; rank 0 records per-request latency. A rank death
// mid-batch follows the ULFM recovery path — survivors shrink +
// rebuild and replay the pending batch, so the queue still drains to
// completion.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "spmv/resilient.hpp"
#include "util/aligned.hpp"
#include "util/timer.hpp"

namespace hspmv::spmv {

/// One admitted request: a full global right-hand side and its
/// submission time on the queue's clock.
struct ServerRequest {
  std::uint64_t id = 0;
  // HSPMV-CHECK-ALLOW(first-touch): request payload owned by the submitting client thread
  std::vector<sparse::value_t> x;
  double submit_s = 0.0;
};

/// Bounded thread-safe FIFO that coalesces single-vector submissions
/// into blocks. Batch assembly is deterministic: requests leave in
/// submission order, a batch is exactly max_block requests unless the
/// oldest waiter's deadline expires (or the queue closes), in which
/// case whatever is queued leaves as a partial batch.
class BatchQueue {
 public:
  BatchQueue(std::size_t capacity, int max_block, double max_wait_s);

  /// Admit a request. Returns false — back-pressure — when the queue
  /// holds `capacity` requests or is closed; the caller keeps ownership
  /// of x in that case (it is not moved from).
  bool try_submit(std::uint64_t id, std::vector<sparse::value_t>& x);

  /// No further admissions; pending requests still drain. next_batch()
  /// returns empty once the queue is closed and drained.
  void close();

  /// Block until a batch is ready (see class comment), pop and return
  /// it. Empty result = closed and drained (shutdown).
  std::vector<ServerRequest> next_batch();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] int max_block() const { return max_block_; }
  [[nodiscard]] double max_wait_s() const { return max_wait_s_; }
  /// Seconds on the queue's latency clock (epoch = construction).
  [[nodiscard]] double now() const { return clock_.seconds(); }

 private:
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<ServerRequest> queue_;
  util::Timer clock_;
  std::size_t capacity_;
  int max_block_;
  double max_wait_s_;
  bool closed_ = false;
};

/// One request's completion record (rank 0 only).
struct CompletedRequest {
  std::uint64_t id = 0;
  double submit_s = 0.0;
  double complete_s = 0.0;
  int batch_width = 0;  ///< K of the batch that served it
  /// The global result vector (only kept when ServerOptions::keep_results).
  // HSPMV-CHECK-ALLOW(first-touch): completed-result copy handed back to the client; report path
  std::vector<sparse::value_t> y;

  [[nodiscard]] double latency_s() const { return complete_s - submit_s; }
};

/// serve()'s outcome. Latency/throughput accounting is populated on
/// rank 0 (the queue owner); other ranks report only recovery counts.
struct ServerReport {
  std::vector<CompletedRequest> completed;
  std::vector<int> batch_widths;  ///< K of each served batch, in order
  std::int64_t rebuilds = 0;      ///< shrink + rebuild recoveries
  std::int64_t grows = 0;         ///< capacity expansions (grow())
  /// Rows that actually travelled across all topology changes this
  /// server saw (shrinks during serve() and grow() calls), versus what
  /// full re-replication would have touched (global rows per change).
  std::int64_t rows_migrated = 0;
  std::int64_t rows_full_replication = 0;

  [[nodiscard]] std::vector<double> latencies() const;
  /// Per-request latency percentile (q in [0, 100]), e.g. 50/95/99.
  [[nodiscard]] double latency_percentile(double q) const;
  /// Completed requests per second of serving wall-clock (first submit
  /// to last completion).
  [[nodiscard]] double throughput_rps() const;
};

struct ServerOptions {
  /// Keep each request's global result in its CompletedRequest (tests);
  /// off by default — a real server would hand results to the client.
  bool keep_results = false;
  /// Test seam: runs on every rank right before a batch's blocked
  /// apply, with the 0-based batch-attempt index. Resilience tests use
  /// it to kill a rank mid-batch (Comm::simulate_rank_failure throws,
  /// so the victim never reaches the apply).
  std::function<void(int batch_index, const minimpi::Comm& comm)>
      before_apply;
};

/// Collective batching driver over a RecoverableSpmv.
class SpmvServer {
 public:
  SpmvServer(minimpi::Comm comm, const sparse::CsrMatrix& global,
             int threads, Variant variant, EngineOptions engine_options = {},
             ServerOptions options = {});

  /// Joiner-side constructor: build a server on a rank spawned by an
  /// existing server's grow(). Enters the collective migrate/rebuild as
  /// a receiver; afterwards this server is interchangeable with the
  /// founders' (same partition, same engine shape) and must serve the
  /// same queues they do.
  SpmvServer(RecoverableSpmv::JoinerTag, minimpi::Comm grown,
             const sparse::CsrMatrix& global, int threads, Variant variant,
             EngineOptions engine_options = {}, ServerOptions options = {});

  /// Collective capacity expansion between serve() calls: spawn `extra`
  /// fresh ranks running `joiner_main` (which must construct a joiner
  /// SpmvServer and serve the same subsequent queues), incrementally
  /// repartition the matrix onto the grown communicator, and account the
  /// migration into this server's next report. Must not be called while
  /// a serve() is in flight.
  void grow(int extra,
            const std::function<void(minimpi::Comm&)>& joiner_main);

  /// Serve until `queue` closes and drains. Collective: every rank of
  /// the communicator must call this with the same queue object.
  /// Non-zero ranks never touch the queue. On a rank death the dead
  /// rank's FaultError propagates out of its serve(); survivors shrink,
  /// rebuild, and replay the pending batch.
  ServerReport serve(BatchQueue& queue);

  [[nodiscard]] RecoverableSpmv& spmv() { return spmv_; }

 private:
  /// Serve one batch. Returns false on the shutdown batch (width 0).
  bool serve_one(BatchQueue& queue, std::vector<ServerRequest>& pending,
                 int batch_index, ServerReport& report);
  /// Make x_/y_ `width` wide unless they already are. Collective.
  void ensure_blocks(int width);
  /// Release x_/y_: their shape follows the engine, which a topology
  /// change rebuilds.
  void drop_blocks();

  RecoverableSpmv spmv_;
  ServerOptions options_;
  /// The batch's input and output blocks, reused while the width and the
  /// engine stay the same (made on the first batch, not in the ctor).
  std::optional<MultiVector> x_;
  std::optional<MultiVector> y_;
  /// Rank 0 only: the batch's right-hand sides and results as row-major
  /// global blocks (rows x K), reused across batches.
  util::FirstTouchVector<sparse::value_t> packed_;
  util::FirstTouchVector<sparse::value_t> gathered_;
  /// Topology changes made between serve() calls (grow()) fold into the
  /// next serve()'s report.
  std::int64_t pending_grows_ = 0;
  std::int64_t pending_rows_migrated_ = 0;
  std::int64_t pending_rows_full_replication_ = 0;
};

}  // namespace hspmv::spmv
