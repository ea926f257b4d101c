#include "spmv/server.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "minimpi/fault.hpp"
#include "util/stats.hpp"

namespace hspmv::spmv {

using sparse::value_t;

BatchQueue::BatchQueue(std::size_t capacity, int max_block,
                       double max_wait_s)
    : capacity_(capacity), max_block_(max_block), max_wait_s_(max_wait_s) {
  if (capacity == 0) {
    throw std::invalid_argument("BatchQueue: capacity must be >= 1");
  }
  if (max_block < 1) {
    throw std::invalid_argument("BatchQueue: max_block must be >= 1");
  }
  if (max_wait_s < 0.0) {
    throw std::invalid_argument("BatchQueue: max_wait must be >= 0");
  }
}

bool BatchQueue::try_submit(std::uint64_t id, std::vector<value_t>& x) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || queue_.size() >= capacity_) return false;
    queue_.push_back(ServerRequest{id, std::move(x), clock_.seconds()});
  }
  ready_.notify_all();
  return true;
}

void BatchQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  ready_.notify_all();
}

std::size_t BatchQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::vector<ServerRequest> BatchQueue::next_batch() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (queue_.size() >= static_cast<std::size_t>(max_block_)) break;
    if (closed_) break;  // drain what is queued, then shut down
    if (queue_.empty()) {
      ready_.wait(lock);
      continue;
    }
    // A partial batch leaves when its oldest request has waited
    // max_wait_s — the latency bound batching trades against.
    const double deadline = queue_.front().submit_s + max_wait_s_;
    const double remaining = deadline - clock_.seconds();
    if (remaining <= 0.0) break;
    ready_.wait_for(lock, std::chrono::duration<double>(remaining));
  }
  const std::size_t count =
      std::min(queue_.size(), static_cast<std::size_t>(max_block_));
  std::vector<ServerRequest> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return batch;
}

std::vector<double> ServerReport::latencies() const {
  // HSPMV-CHECK-ALLOW(first-touch): latency report assembly; diagnostics
  std::vector<double> result;
  result.reserve(completed.size());
  for (const CompletedRequest& r : completed) {
    result.push_back(r.latency_s());
  }
  return result;
}

double ServerReport::latency_percentile(double q) const {
  return util::percentile(latencies(), q);
}

double ServerReport::throughput_rps() const {
  if (completed.empty()) return 0.0;
  double first_submit = completed.front().submit_s;
  double last_complete = completed.front().complete_s;
  for (const CompletedRequest& r : completed) {
    first_submit = std::min(first_submit, r.submit_s);
    last_complete = std::max(last_complete, r.complete_s);
  }
  const double span = last_complete - first_submit;
  if (span <= 0.0) return 0.0;
  return static_cast<double>(completed.size()) / span;
}

SpmvServer::SpmvServer(minimpi::Comm comm, const sparse::CsrMatrix& global,
                       int threads, Variant variant,
                       EngineOptions engine_options, ServerOptions options)
    : spmv_(std::move(comm), global, threads, variant,
            std::move(engine_options)),
      options_(std::move(options)) {}

SpmvServer::SpmvServer(RecoverableSpmv::JoinerTag tag, minimpi::Comm grown,
                       const sparse::CsrMatrix& global, int threads,
                       Variant variant, EngineOptions engine_options,
                       ServerOptions options)
    : spmv_(tag, std::move(grown), global, threads, variant,
            std::move(engine_options)),
      options_(std::move(options)) {}

void SpmvServer::grow(int extra,
                      const std::function<void(minimpi::Comm&)>& joiner_main) {
  drop_blocks();
  spmv_.grow_and_rebuild(extra, joiner_main);
  ++pending_grows_;
  pending_rows_migrated_ += spmv_.last_rebuild().rows_migrated;
  pending_rows_full_replication_ += spmv_.last_rebuild().rows_full_replication;
}

ServerReport SpmvServer::serve(BatchQueue& queue) {
  ServerReport report;
  report.grows = pending_grows_;
  report.rows_migrated = pending_rows_migrated_;
  report.rows_full_replication = pending_rows_full_replication_;
  pending_grows_ = 0;
  pending_rows_migrated_ = 0;
  pending_rows_full_replication_ = 0;
  // The batch being served survives a fault here so the replay after
  // shrink + rebuild serves exactly the same requests (rank 0 only).
  std::vector<ServerRequest> pending;
  int batch_index = 0;
  for (;;) {
    try {
      if (!serve_one(queue, pending, batch_index, report)) break;
      ++batch_index;
    } catch (const minimpi::FaultError& fault) {
      if (fault.kind() != minimpi::FaultKind::kPermanent) throw;
      // HSPMV-CHECK-ALLOW(divergent-collective): the victim rank is dead to the protocol; the survivors' shrink_and_rebuild rendezvous excludes it by design
      if (fault.rank() == spmv_.comm().global_rank()) {
        // This rank is the one declared dead — it leaves the service;
        // the survivors recover without it.
        throw;
      }
      drop_blocks();
      spmv_.shrink_and_rebuild();
      ++report.rebuilds;
      report.rows_migrated += spmv_.last_rebuild().rows_migrated;
      report.rows_full_replication +=
          spmv_.last_rebuild().rows_full_replication;
      ++batch_index;  // the replay is a fresh attempt on every survivor
    }
  }
  return report;
}

void SpmvServer::drop_blocks() {
  x_.reset();
  y_.reset();
}

void SpmvServer::ensure_blocks(int width) {
  if (x_ && x_->width() == width) return;
  drop_blocks();
  x_.emplace(spmv_.make_multi_vector(width));
  y_.emplace(spmv_.make_multi_vector(width));
  // The batch scatter/gather slices are the ranks' owned blocks in rank
  // order, so this rank's slice starts where the owned blocks of ranks
  // 0..r-1 end. It must be row_begin * K, or rows would land on the
  // wrong rank; checked once per block shape, agreed on by every rank so
  // a violation throws everywhere instead of stranding the others.
  const minimpi::Comm& comm = spmv_.comm();
  const auto owned = static_cast<std::int64_t>(x_->owned().size());
  std::int64_t offset = comm.exscan(owned, minimpi::ReduceOp::kSum);
  if (comm.rank() == 0) offset = 0;  // exscan leaves rank 0 undefined
  const std::int64_t expected =
      static_cast<std::int64_t>(spmv_.matrix().row_begin()) * width;
  if (comm.allreduce(offset == expected ? 1 : 0, minimpi::ReduceOp::kMin) ==
      0) {
    throw std::logic_error(
        "SpmvServer: batch slice offsets do not match the row partition");
  }
}

bool SpmvServer::serve_one(BatchQueue& queue,
                           std::vector<ServerRequest>& pending,
                           int batch_index, ServerReport& report) {
  const minimpi::Comm& comm = spmv_.comm();
  const auto rows = static_cast<std::size_t>(spmv_.global().rows());
  const bool root = comm.rank() == 0;

  // Batch header: the block width (0 = queue closed and drained, which
  // shuts every rank down together).
  std::int64_t width = 0;
  if (root) {
    if (pending.empty()) pending = queue.next_batch();
    width = static_cast<std::int64_t>(pending.size());
    // A malformed request must fail on every rank together: throwing
    // from inside the root-only packing block below would leave the
    // other ranks blocked in the payload scatter, so signal it through
    // the header instead.
    for (const ServerRequest& request : pending) {
      if (request.x.size() != rows) width = -1;
    }
  }
  comm.broadcast(std::span<std::int64_t>(&width, 1), 0);
  if (width < 0) {
    throw std::invalid_argument("SpmvServer: request size != global rows");
  }
  if (width == 0) return false;

  const auto k = static_cast<std::size_t>(width);
  ensure_blocks(static_cast<int>(width));

  // Batch payload: root packs the K right-hand sides once into a
  // row-major global block — element (i, q) at i * K + q, the
  // MultiVector layout — so each rank's owned rows are one contiguous
  // slice, scattered straight into the owned part of x.
  if (root) {
    packed_.resize(k * rows);
    value_t* __restrict out = packed_.data();
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t q = 0; q < k; ++q) {
        out[i * k + q] = pending[q].x[i];
      }
    }
  }
  comm.scatterv(std::span<const value_t>(packed_.data(),
                                         root ? k * rows : 0),
                x_->owned(), 0);

  if (options_.before_apply) options_.before_apply(batch_index, comm);

  spmv_.apply(*x_, *y_);

  // One gather of every rank's owned y block into root's row-major
  // global block; requests read their column out of it.
  if (root) gathered_.resize(k * rows);
  comm.gatherv(std::span<const value_t>(y_->owned()),
               std::span<value_t>(gathered_.data(), root ? k * rows : 0), 0);

  if (root) {
    const double complete_s = queue.now();
    for (std::size_t q = 0; q < pending.size(); ++q) {
      CompletedRequest done;
      done.id = pending[q].id;
      done.submit_s = pending[q].submit_s;
      done.complete_s = complete_s;
      done.batch_width = static_cast<int>(width);
      if (options_.keep_results) {
        done.y.resize(rows);
        for (std::size_t i = 0; i < rows; ++i) {
          done.y[i] = gathered_[i * k + q];
        }
      }
      report.completed.push_back(std::move(done));
    }
    report.batch_widths.push_back(static_cast<int>(width));
    pending.clear();
  }
  return true;
}

}  // namespace hspmv::spmv
