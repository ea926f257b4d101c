// The batching query server (spmv/server.hpp): queue semantics (FIFO
// coalescing, deadline-bounded partial batches, back-pressure), the
// collective serve loop's correctness against the dense oracle, and the
// recovery path — a rank dying mid-batch must not lose the pending
// batch: survivors shrink, rebuild, replay, and the queue still drains.
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/reference.hpp"
#include "common/seeded_fixture.hpp"
#include "matgen/poisson.hpp"
#include "matgen/random_matrix.hpp"
#include "minimpi/fault.hpp"
#include "minimpi/runtime.hpp"
#include "sparse/coo.hpp"
#include "spmv/server.hpp"

namespace hspmv::spmv {
namespace {

using sparse::CsrMatrix;
using sparse::index_t;
using sparse::value_t;

class SpmvServerTest : public testutil::SeededTest {};

/// Submit `count` random right-hand sides with ids 0..count-1; returns
/// the submitted vectors (for oracle checks). Requests the queue
/// rejects (back-pressure) are NOT submitted again; their slots are
/// dropped from the returned list.
std::vector<std::vector<value_t>> submit_requests(BatchQueue& queue,
                                                  std::size_t count,
                                                  std::size_t n,
                                                  std::uint64_t seed) {
  std::vector<std::vector<value_t>> accepted;
  for (std::size_t r = 0; r < count; ++r) {
    auto x = testutil::random_vector(n, testutil::sub_seed(seed, r));
    auto copy = x;
    if (queue.try_submit(r, x)) accepted.push_back(std::move(copy));
  }
  return accepted;
}

TEST_F(SpmvServerTest, QueueCoalescesInSubmissionOrder) {
  BatchQueue queue(/*capacity=*/16, /*max_block=*/3, /*max_wait_s=*/10.0);
  std::vector<std::vector<value_t>> xs;
  for (std::uint64_t r = 0; r < 7; ++r) {
    std::vector<value_t> x{static_cast<value_t>(r)};
    ASSERT_TRUE(queue.try_submit(r, x));
  }
  queue.close();
  // Closed queue: batches pop immediately — full blocks first, then the
  // partial remainder, then the empty shutdown batch.
  std::vector<std::vector<std::uint64_t>> batches;
  for (;;) {
    const auto batch = queue.next_batch();
    if (batch.empty()) break;
    std::vector<std::uint64_t> ids;
    for (const ServerRequest& r : batch) ids.push_back(r.id);
    batches.push_back(ids);
  }
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0], (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(batches[1], (std::vector<std::uint64_t>{3, 4, 5}));
  EXPECT_EQ(batches[2], (std::vector<std::uint64_t>{6}));
}

TEST_F(SpmvServerTest, QueueAppliesBackPressureAtCapacity) {
  BatchQueue queue(/*capacity=*/4, /*max_block=*/8, /*max_wait_s=*/10.0);
  for (std::uint64_t r = 0; r < 4; ++r) {
    std::vector<value_t> x{1.0, 2.0};
    ASSERT_TRUE(queue.try_submit(r, x));
  }
  // Burst beyond capacity: rejected, and the caller keeps the payload
  // (not moved-from) so it can retry.
  std::vector<value_t> extra{3.0, 4.0};
  EXPECT_FALSE(queue.try_submit(99, extra));
  EXPECT_EQ(extra, (std::vector<value_t>{3.0, 4.0}));
  EXPECT_EQ(queue.size(), 4u);
  // Draining one batch frees capacity again.
  queue.close();
  (void)queue.next_batch();
  EXPECT_EQ(queue.size(), 0u);
  // ... but a closed queue admits nothing.
  EXPECT_FALSE(queue.try_submit(100, extra));
}

TEST_F(SpmvServerTest, QueueDeadlineReleasesPartialBatch) {
  // Two requests against max_block 8: without the deadline next_batch
  // would wait for six more; the oldest waiter's max_wait releases the
  // partial batch instead.
  BatchQueue queue(/*capacity=*/8, /*max_block=*/8, /*max_wait_s=*/0.05);
  for (std::uint64_t r = 0; r < 2; ++r) {
    std::vector<value_t> x{static_cast<value_t>(r)};
    ASSERT_TRUE(queue.try_submit(r, x));
  }
  const double before = queue.now();
  const auto batch = queue.next_batch();
  const double waited = queue.now() - before;
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 0u);
  EXPECT_EQ(batch[1].id, 1u);
  EXPECT_LT(waited, 5.0);  // returned via deadline, not a hang
}

TEST_F(SpmvServerTest, QueueValidatesConstruction) {
  EXPECT_THROW(BatchQueue(0, 1, 1.0), std::invalid_argument);
  EXPECT_THROW(BatchQueue(1, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(BatchQueue(1, 1, -1.0), std::invalid_argument);
}

TEST_F(SpmvServerTest, ServeDrainsQueueAndMatchesOracle) {
  // 5 requests, max_block 2: deterministic batch plan [2, 2, 1], every
  // result equal to the dense reference, completions in submission
  // order, sane latency/throughput accounting.
  constexpr std::size_t kRequests = 5;
  const CsrMatrix a = matgen::random_sparse(150, 6, seed(1));
  std::mutex check_mutex;
  minimpi::run(3, [&](minimpi::Comm& comm) {
    BatchQueue queue(/*capacity=*/16, /*max_block=*/2, /*max_wait_s=*/0.0);
    std::vector<std::vector<value_t>> xs;
    if (comm.rank() == 0) {
      xs = submit_requests(queue, kRequests,
                           static_cast<std::size_t>(a.cols()), seed(2));
      ASSERT_EQ(xs.size(), kRequests);
      queue.close();
    }
    ServerOptions options;
    options.keep_results = true;
    SpmvServer server(comm, a, /*threads=*/2, Variant::kTaskMode, {},
                      options);
    const ServerReport report = server.serve(queue);
    if (comm.rank() != 0) return;

    std::lock_guard<std::mutex> lock(check_mutex);
    EXPECT_EQ(report.rebuilds, 0);
    EXPECT_EQ(report.batch_widths, (std::vector<int>{2, 2, 1}));
    ASSERT_EQ(report.completed.size(), kRequests);
    for (std::size_t r = 0; r < kRequests; ++r) {
      const CompletedRequest& done = report.completed[r];
      EXPECT_EQ(done.id, r);  // deterministic FIFO completion order
      EXPECT_GE(done.latency_s(), 0.0);
      const auto expected = testutil::dense_reference(a, xs[r]);
      ASSERT_EQ(done.y.size(), expected.size());
      EXPECT_LT(testutil::max_abs_diff(done.y, expected), 1e-12)
          << "request " << r;
    }
    EXPECT_LE(report.latency_percentile(50.0),
              report.latency_percentile(99.0));
    EXPECT_GT(report.throughput_rps(), 0.0);
  });
}

TEST_F(SpmvServerTest, DegenerateMaxBlockOneServesEveryRequestAlone) {
  const CsrMatrix a = matgen::random_banded(80, 10, 4, seed(3));
  minimpi::run(2, [&](minimpi::Comm& comm) {
    BatchQueue queue(/*capacity=*/8, /*max_block=*/1, /*max_wait_s=*/0.0);
    std::vector<std::vector<value_t>> xs;
    if (comm.rank() == 0) {
      xs = submit_requests(queue, 3, static_cast<std::size_t>(a.cols()),
                           seed(4));
      queue.close();
    }
    ServerOptions options;
    options.keep_results = true;
    SpmvServer server(comm, a, /*threads=*/2, Variant::kVectorNoOverlap, {},
                      options);
    const ServerReport report = server.serve(queue);
    if (comm.rank() != 0) return;
    EXPECT_EQ(report.batch_widths, (std::vector<int>{1, 1, 1}));
    for (std::size_t r = 0; r < xs.size(); ++r) {
      EXPECT_EQ(report.completed[r].batch_width, 1);
      EXPECT_LT(testutil::max_abs_diff(report.completed[r].y,
                                       testutil::dense_reference(a, xs[r])),
                1e-12);
    }
  });
}

TEST_F(SpmvServerTest, ServesMatrixWithEmptyRows) {
  // Structurally empty rows must come back as exact zeros through the
  // whole broadcast -> blocked apply -> gather round trip.
  std::vector<sparse::Triplet> triplets;
  constexpr index_t kN = 61;
  for (index_t i = 0; i < kN; i += 2) {
    triplets.push_back({i, i, 2.0});
    if (i + 2 < kN) triplets.push_back({i, i + 2, -1.0});
  }
  const CsrMatrix a(kN, kN, triplets);
  minimpi::run(2, [&](minimpi::Comm& comm) {
    BatchQueue queue(/*capacity=*/8, /*max_block=*/3, /*max_wait_s=*/0.0);
    std::vector<std::vector<value_t>> xs;
    if (comm.rank() == 0) {
      xs = submit_requests(queue, 3, static_cast<std::size_t>(kN), seed(5));
      queue.close();
    }
    ServerOptions options;
    options.keep_results = true;
    SpmvServer server(comm, a, /*threads=*/2, Variant::kVectorNaiveOverlap,
                      {}, options);
    const ServerReport report = server.serve(queue);
    if (comm.rank() != 0) return;
    for (std::size_t r = 0; r < xs.size(); ++r) {
      const auto& y = report.completed[r].y;
      EXPECT_LT(testutil::max_abs_diff(y, testutil::dense_reference(a, xs[r])),
                1e-13);
      for (std::size_t i = 1; i < y.size(); i += 2) {
        EXPECT_EQ(y[i], 0.0) << "empty row " << i;
      }
    }
  });
}

TEST_F(SpmvServerTest, RankDeathMidBatchReplaysAndDrains) {
  // Rank 1 dies right before batch 1's apply. The victim's serve()
  // rethrows (it leaves the service); the survivors shrink, rebuild,
  // replay the pending batch, and the queue drains to completion with
  // every result still matching the oracle.
  constexpr int kRanks = 3;
  constexpr int kVictim = 1;
  constexpr std::size_t kRequests = 6;
  const CsrMatrix a = matgen::random_banded(120, 16, 5, seed(6));
  std::atomic<int> victim_faults{0};
  std::mutex check_mutex;
  minimpi::run(kRanks, [&](minimpi::Comm& comm) {
    BatchQueue queue(/*capacity=*/16, /*max_block=*/2, /*max_wait_s=*/0.0);
    std::vector<std::vector<value_t>> xs;
    if (comm.rank() == 0) {
      xs = submit_requests(queue, kRequests,
                           static_cast<std::size_t>(a.cols()), seed(7));
      queue.close();
    }
    ServerOptions options;
    options.keep_results = true;
    options.before_apply = [](int batch_index, const minimpi::Comm& c) {
      if (batch_index == 1 && c.rank() == kVictim) {
        c.simulate_rank_failure();
      }
    };
    SpmvServer server(comm, a, /*threads=*/2, Variant::kVectorNoOverlap, {},
                      options);
    ServerReport report;
    try {
      report = server.serve(queue);
    } catch (const minimpi::FaultError& fault) {
      // Only the victim's serve() may rethrow, and only for its own
      // death (it must not abort the board via run()'s rethrow).
      EXPECT_EQ(comm.rank(), kVictim);
      EXPECT_EQ(fault.kind(), minimpi::FaultKind::kPermanent);
      EXPECT_EQ(fault.rank(), kVictim);
      victim_faults.fetch_add(1);
      return;
    }
    EXPECT_NE(comm.rank(), kVictim) << "victim finished serve() alive";
    EXPECT_EQ(server.spmv().comm().size(), kRanks - 1);
    EXPECT_GE(report.rebuilds, 1);
    if (comm.rank() != 0) return;

    std::lock_guard<std::mutex> lock(check_mutex);
    ASSERT_EQ(report.completed.size(), kRequests);
    for (std::size_t r = 0; r < kRequests; ++r) {
      EXPECT_EQ(report.completed[r].id, r);
      EXPECT_LT(testutil::max_abs_diff(report.completed[r].y,
                                       testutil::dense_reference(a, xs[r])),
                1e-12)
          << "request " << r;
    }
  });
  EXPECT_EQ(victim_faults.load(), 1);
}

/// Collective single-vector reference on the server's current engine:
/// one DistVector engine.apply of `x`, the owned blocks gathered to rank
/// 0 (empty elsewhere).
std::vector<value_t> single_apply(SpmvServer& server,
                                  std::span<const value_t> x) {
  RecoverableSpmv& spmv = server.spmv();
  DistVector xv = spmv.make_vector();
  DistVector yv = spmv.make_vector();
  xv.assign_from_global(x, spmv.matrix().row_begin());
  spmv.apply(xv, yv);
  return spmv.comm().gatherv(std::span<const value_t>(yv.owned()), 0);
}

/// On rank 0 of `server`, the served result `done` must carry exactly the
/// bits of a single-vector apply of its right-hand side `x`. Collective.
void expect_served_bitwise(SpmvServer& server, const CompletedRequest* done,
                           std::span<const value_t> x) {
  const auto expected = single_apply(server, x);
  if (server.spmv().comm().rank() != 0) return;
  ASSERT_NE(done, nullptr);
  ASSERT_EQ(done->y.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(done->y[i]),
              std::bit_cast<std::uint64_t>(expected[i]))
        << "request " << done->id << " (K = " << done->batch_width
        << ") row " << i;
  }
}

/// report.completed[r] when this rank holds it (rank 0), else null —
/// the bitwise checks stay collective even if a report came up short.
const CompletedRequest* completed_at(const ServerReport& report,
                                     std::size_t r) {
  return r < report.completed.size() ? &report.completed[r] : nullptr;
}

std::vector<value_t> request_vector(std::size_t n, std::uint64_t seed,
                                    std::uint64_t id) {
  return testutil::random_vector(n, testutil::sub_seed(seed, id));
}

/// A closed queue holding requests first..first+count-1.
std::unique_ptr<BatchQueue> closed_queue(std::size_t n, std::uint64_t seed,
                                         std::uint64_t first,
                                         std::size_t count, int max_block) {
  auto queue = std::make_unique<BatchQueue>(64, max_block, 0.0);
  for (std::uint64_t id = first; id < first + count; ++id) {
    auto x = request_vector(n, seed, id);
    EXPECT_TRUE(queue->try_submit(id, x));
  }
  queue->close();
  return queue;
}

constexpr Variant kBitwiseVariants[] = {Variant::kVectorNoOverlap,
                                        Variant::kVectorNaiveOverlap};

TEST_F(SpmvServerTest, BatchResultsBitwiseEqualSingleApplyAcrossWidths) {
  // One server, batch widths 8, 3, 8, 1: the x/y blocks are re-made at
  // every width change, including back to a width seen before. Every
  // request's result must be the bits of a single-vector apply — the
  // K-wide panel kernel, the strided leftover columns and the
  // scatter/gather layout may not move a single ulp. Rows are ~13
  // entries, so panels see full chunks and tails.
  const CsrMatrix a = matgen::random_sparse(150, 13, seed(20));
  const auto n = static_cast<std::size_t>(a.cols());
  const std::vector<std::size_t> widths{8, 3, 8, 1};
  for (const Variant variant : kBitwiseVariants) {
    std::vector<std::unique_ptr<BatchQueue>> queues;
    std::uint64_t first = 0;
    for (const std::size_t w : widths) {
      queues.push_back(closed_queue(n, seed(21), first, w, 8));
      first += w;
    }
    minimpi::run(3, [&](minimpi::Comm& comm) {
      ServerOptions options;
      options.keep_results = true;
      SpmvServer server(comm, a, /*threads=*/2, variant, {}, options);
      std::uint64_t first_id = 0;
      for (std::size_t phase = 0; phase < widths.size(); ++phase) {
        const ServerReport report = server.serve(*queues[phase]);
        const std::size_t count = widths[phase];
        if (comm.rank() == 0) {
          EXPECT_EQ(report.batch_widths,
                    std::vector<int>{static_cast<int>(count)});
          EXPECT_EQ(report.completed.size(), count);
        }
        for (std::size_t r = 0; r < count; ++r) {
          const std::uint64_t id = first_id + r;
          const CompletedRequest* done = completed_at(report, r);
          if (done != nullptr) {
            EXPECT_EQ(done->id, id);
          }
          expect_served_bitwise(server, done,
                                request_vector(n, seed(21), id));
        }
        first_id += count;
      }
    });
  }
}

TEST_F(SpmvServerTest, BatchResultsBitwiseEqualSingleApplyAfterShrink) {
  // Rank 1 dies before batch 1's apply; the survivors shrink, drop and
  // re-make the blocks for the new row partition, and replay. Every
  // request served on the shrunk engine must carry the bits of a
  // single-vector apply on that engine.
  constexpr int kVictim = 1;
  constexpr std::size_t kRequests = 19;  // batches 8 | 8 (replayed) | 3
  const CsrMatrix a = matgen::random_sparse(140, 11, seed(22));
  const auto n = static_cast<std::size_t>(a.cols());
  for (const Variant variant : kBitwiseVariants) {
    auto queue = closed_queue(n, seed(23), 0, kRequests, 8);
    std::atomic<int> victim_faults{0};
    minimpi::run(3, [&](minimpi::Comm& comm) {
      ServerOptions options;
      options.keep_results = true;
      options.before_apply = [](int batch_index, const minimpi::Comm& c) {
        if (batch_index == 1 && c.global_rank() == kVictim) {
          c.simulate_rank_failure();
        }
      };
      SpmvServer server(comm, a, /*threads=*/2, variant, {}, options);
      ServerReport report;
      try {
        report = server.serve(*queue);
      } catch (const minimpi::FaultError&) {
        victim_faults.fetch_add(1);
        return;
      }
      ASSERT_EQ(server.spmv().comm().size(), 2);
      const bool root = server.spmv().comm().rank() == 0;
      if (root) {
        EXPECT_EQ(report.rebuilds, 1);
        EXPECT_EQ(report.batch_widths, (std::vector<int>{8, 8, 3}));
        EXPECT_EQ(report.completed.size(), kRequests);
      }
      // Requests 8.. were served after the shrink.
      for (std::uint64_t id = 8; id < kRequests; ++id) {
        expect_served_bitwise(server, completed_at(report, id),
                              request_vector(n, seed(23), id));
      }
    });
    EXPECT_EQ(victim_faults.load(), 1);
  }
}

TEST_F(SpmvServerTest, BatchResultsBitwiseEqualSingleApplyAfterGrow) {
  // Two founders serve a K = 8 batch, grow(1) drops the blocks, and the
  // three ranks serve batches of 8 and 5 on the new partition; each
  // result must carry the bits of a single-vector apply on the grown
  // engine. The joiner mirrors the founders' collective sequence.
  const CsrMatrix a = matgen::random_sparse(160, 12, seed(24));
  const auto n = static_cast<std::size_t>(a.cols());
  constexpr std::size_t kPhase2 = 13;
  for (const Variant variant : kBitwiseVariants) {
    auto queue1 = closed_queue(n, seed(25), 0, 8, 8);
    auto queue2 = closed_queue(n, seed(25), 100, kPhase2, 8);
    const auto check_phase2 = [&](SpmvServer& server,
                                  const ServerReport& report) {
      if (server.spmv().comm().rank() == 0) {
        EXPECT_EQ(report.batch_widths, (std::vector<int>{8, 5}));
        EXPECT_EQ(report.completed.size(), kPhase2);
      }
      for (std::size_t r = 0; r < kPhase2; ++r) {
        expect_served_bitwise(server, completed_at(report, r),
                              request_vector(n, seed(25), 100 + r));
      }
    };
    std::atomic<int> joiners{0};
    minimpi::run(2, [&](minimpi::Comm& comm) {
      ServerOptions options;
      options.keep_results = true;
      SpmvServer server(comm, a, /*threads=*/2, variant, {}, options);
      (void)server.serve(*queue1);
      server.grow(1, [&](minimpi::Comm& grown) {
        SpmvServer joiner(RecoverableSpmv::JoinerTag{}, grown, a,
                          /*threads=*/2, variant, {}, options);
        check_phase2(joiner, joiner.serve(*queue2));
        joiners.fetch_add(1);
      });
      ASSERT_EQ(server.spmv().comm().size(), 3);
      const ServerReport report = server.serve(*queue2);
      if (comm.rank() == 0) {
        EXPECT_EQ(report.grows, 1);
      }
      check_phase2(server, report);
    });
    EXPECT_EQ(joiners.load(), 1);
  }
}

TEST_F(SpmvServerTest, OversizedRequestIsRejected) {
  const CsrMatrix a = matgen::laplacian1d(32);
  minimpi::run(1, [&](minimpi::Comm& comm) {
    BatchQueue queue(/*capacity=*/4, /*max_block=*/2, /*max_wait_s=*/0.0);
    std::vector<value_t> wrong(16, 1.0);  // != global rows
    ASSERT_TRUE(queue.try_submit(0, wrong));
    queue.close();
    SpmvServer server(comm, a, /*threads=*/2, Variant::kVectorNoOverlap);
    EXPECT_THROW((void)server.serve(queue), std::invalid_argument);
  });
}

}  // namespace
}  // namespace hspmv::spmv
