#include <atomic>
#include <functional>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "minimpi/runtime.hpp"

namespace hspmv::minimpi {
namespace {

TEST(Collectives, BarrierSynchronizes) {
  constexpr int kRanks = 4;
  std::atomic<int> arrived{0};
  run(kRanks, [&](Comm& comm) {
    arrived.fetch_add(1);
    comm.barrier();
    // After the barrier every rank must observe all arrivals.
    EXPECT_EQ(arrived.load(), kRanks);
    comm.barrier();
  });
}

TEST(Collectives, Broadcast) {
  run(4, [](Comm& comm) {
    std::vector<int> data(3, comm.rank() == 2 ? 0 : -1);
    if (comm.rank() == 2) data = {7, 8, 9};
    comm.broadcast(std::span<int>(data), 2);
    EXPECT_EQ(data, (std::vector<int>{7, 8, 9}));
  });
}

TEST(Collectives, BroadcastSizeMismatchAborts) {
  EXPECT_THROW(run(2,
                   [](Comm& comm) {
                     std::vector<int> data(comm.rank() == 0 ? 3 : 2, 0);
                     comm.broadcast(std::span<int>(data), 0);
                   }),
               std::exception);
}

TEST(Collectives, AllreduceSum) {
  constexpr int kRanks = 5;
  run(kRanks, [](Comm& comm) {
    const std::vector<double> in{static_cast<double>(comm.rank()),
                                 1.0};
    std::vector<double> out(2);
    comm.allreduce(std::span<const double>(in), std::span<double>(out),
                   ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(out[0], 10.0);  // 0+1+2+3+4
    EXPECT_DOUBLE_EQ(out[1], kRanks);
  });
}

TEST(Collectives, AllreduceMinMaxProd) {
  run(4, [](Comm& comm) {
    const double mine = comm.rank() + 1.0;  // 1..4
    EXPECT_DOUBLE_EQ(comm.allreduce(mine, ReduceOp::kMin), 1.0);
    EXPECT_DOUBLE_EQ(comm.allreduce(mine, ReduceOp::kMax), 4.0);
    EXPECT_DOUBLE_EQ(comm.allreduce(mine, ReduceOp::kProd), 24.0);
  });
}

TEST(Collectives, ReduceOnlyRootGetsResult) {
  run(3, [](Comm& comm) {
    const std::vector<int> in{comm.rank() + 1};
    std::vector<int> out{-1};
    comm.reduce(std::span<const int>(in), std::span<int>(out),
                ReduceOp::kSum, 1);
    if (comm.rank() == 1) {
      EXPECT_EQ(out[0], 6);
    } else {
      EXPECT_EQ(out[0], -1);
    }
  });
}

TEST(Collectives, Allgather) {
  run(4, [](Comm& comm) {
    const auto gathered = comm.allgather(comm.rank() * 10);
    ASSERT_EQ(gathered.size(), 4u);
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(gathered[static_cast<std::size_t>(r)], r * 10);
    }
  });
}

TEST(Collectives, AllgathervVariableSizes) {
  run(3, [](Comm& comm) {
    // Rank r contributes r+1 copies of r.
    std::vector<int> mine(static_cast<std::size_t>(comm.rank()) + 1,
                          comm.rank());
    const auto gathered = comm.allgatherv(std::span<const int>(mine));
    EXPECT_EQ(gathered, (std::vector<int>{0, 1, 1, 2, 2, 2}));
  });
}

TEST(Collectives, AllgathervEmptyContribution) {
  run(3, [](Comm& comm) {
    std::vector<int> mine;
    if (comm.rank() == 1) mine = {42};
    const auto gathered = comm.allgatherv(std::span<const int>(mine));
    EXPECT_EQ(gathered, (std::vector<int>{42}));
  });
}

TEST(Collectives, Alltoallv) {
  constexpr int kRanks = 4;
  run(kRanks, [](Comm& comm) {
    // Rank r sends {r*10 + d} to rank d, with d+1 copies.
    std::vector<std::vector<int>> send(kRanks);
    for (int d = 0; d < kRanks; ++d) {
      send[static_cast<std::size_t>(d)].assign(
          static_cast<std::size_t>(d) + 1, comm.rank() * 10 + d);
    }
    const auto received = comm.alltoallv(send);
    ASSERT_EQ(received.size(), static_cast<std::size_t>(kRanks));
    for (int s = 0; s < kRanks; ++s) {
      const auto& bucket = received[static_cast<std::size_t>(s)];
      ASSERT_EQ(bucket.size(), static_cast<std::size_t>(comm.rank()) + 1);
      for (int v : bucket) EXPECT_EQ(v, s * 10 + comm.rank());
    }
  });
}

TEST(Collectives, AlltoallvWrongBucketCountThrows) {
  EXPECT_THROW(run(2,
                   [](Comm& comm) {
                     std::vector<std::vector<int>> send(1);
                     (void)comm.alltoallv(send);
                   }),
               std::exception);
}

/// Rank r's slice of the in-place gatherv/scatterv tests: uneven sizes
/// {2, 0, 3, 1} (rank 1 owns nothing), values tagged with rank and index.
std::vector<int> slice_of(int rank) {
  static constexpr int kSizes[] = {2, 0, 3, 1};
  std::vector<int> slice(static_cast<std::size_t>(kSizes[rank]));
  for (std::size_t i = 0; i < slice.size(); ++i) {
    slice[i] = rank * 100 + static_cast<int>(i);
  }
  return slice;
}

std::vector<int> all_slices() {
  std::vector<int> all;
  for (int r = 0; r < 4; ++r) {
    const auto slice = slice_of(r);
    all.insert(all.end(), slice.begin(), slice.end());
  }
  return all;
}

/// Runs `rank_main` on 4 ranks with the usage validator on; returns the
/// number of diagnostics it reported.
int run_validated(const std::function<void(Comm&)>& rank_main) {
  std::atomic<int> diagnostics{0};
  RuntimeOptions options;
  options.ranks = 4;
  options.validate.enabled = true;
  options.validate.on_diagnostic = [&diagnostics](const Diagnostic&) {
    diagnostics.fetch_add(1);
  };
  run(options, rank_main);
  return diagnostics.load();
}

TEST(Collectives, InPlaceGathervUnevenSlices) {
  // Root 2 receives the rank-ordered concatenation; the empty slice of
  // rank 1 leaves no gap; non-roots' recv spans are not touched.
  const int diagnostics = run_validated([](Comm& comm) {
    for (int round = 0; round < 3; ++round) {  // slots are reused
      const auto mine = slice_of(comm.rank());
      std::vector<int> recv(comm.rank() == 2 ? 6 : 1, -1);
      comm.gatherv(std::span<const int>(mine), std::span<int>(recv), 2);
      if (comm.rank() == 2) {
        EXPECT_EQ(recv, all_slices());
      } else {
        EXPECT_EQ(recv, std::vector<int>{-1});
      }
    }
  });
  EXPECT_EQ(diagnostics, 0);
}

TEST(Collectives, InPlaceScattervUnevenSlices) {
  const int diagnostics = run_validated([](Comm& comm) {
    for (int round = 0; round < 3; ++round) {
      std::vector<int> send;
      if (comm.rank() == 1) send = all_slices();  // root owns an empty slice
      std::vector<int> recv(slice_of(comm.rank()).size(), -1);
      comm.scatterv(std::span<const int>(send), std::span<int>(recv), 1);
      EXPECT_EQ(recv, slice_of(comm.rank()));
    }
  });
  EXPECT_EQ(diagnostics, 0);
}

TEST(Collectives, InPlaceGathervSizeMismatchThrowsOnEveryRank) {
  // Root's buffer is one element short: every rank throws (none hangs),
  // nothing is written, and the communicator still works afterwards.
  std::atomic<int> throws{0};
  const int diagnostics = run_validated([&throws](Comm& comm) {
    const auto mine = slice_of(comm.rank());
    std::vector<int> recv(comm.rank() == 0 ? 5 : 0, -1);
    EXPECT_THROW(
        comm.gatherv(std::span<const int>(mine), std::span<int>(recv), 0),
        std::invalid_argument);
    throws.fetch_add(1);
    if (comm.rank() == 0) {
      EXPECT_EQ(recv, std::vector<int>(5, -1));
    }
    EXPECT_EQ(comm.allreduce(1, ReduceOp::kSum), 4);
  });
  EXPECT_EQ(throws.load(), 4);
  EXPECT_EQ(diagnostics, 0);
}

TEST(Collectives, InPlaceScattervSizeMismatchThrowsOnEveryRank) {
  std::atomic<int> throws{0};
  const int diagnostics = run_validated([&throws](Comm& comm) {
    std::vector<int> send;
    if (comm.rank() == 3) send = std::vector<int>(7, 1);  // one too many
    std::vector<int> recv(slice_of(comm.rank()).size(), -1);
    EXPECT_THROW(
        comm.scatterv(std::span<const int>(send), std::span<int>(recv), 3),
        std::invalid_argument);
    throws.fetch_add(1);
    EXPECT_EQ(recv, std::vector<int>(recv.size(), -1));
    EXPECT_EQ(comm.allreduce(1, ReduceOp::kSum), 4);
  });
  EXPECT_EQ(throws.load(), 4);
  EXPECT_EQ(diagnostics, 0);
}

TEST(Collectives, RepeatedCollectivesReuseSlots) {
  run(3, [](Comm& comm) {
    for (int iteration = 0; iteration < 50; ++iteration) {
      const int sum = comm.allreduce(comm.rank() + iteration, ReduceOp::kSum);
      EXPECT_EQ(sum, 3 + 3 * iteration);
    }
  });
}

TEST(Collectives, MixedP2pAndCollectives) {
  run(4, [](Comm& comm) {
    // Halo-exchange-like pattern followed by a global reduction.
    const int next = (comm.rank() + 1) % 4;
    const int prev = (comm.rank() + 3) % 4;
    const double out = comm.rank() + 1.0;
    double in = 0.0;
    Request r = comm.irecv(std::span<double>(&in, 1), prev);
    Request s = comm.isend(std::span<const double>(&out, 1), next);
    comm.wait(r);
    comm.wait(s);
    const double total = comm.allreduce(in, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(total, 10.0);
  });
}

TEST(Split, ByParity) {
  run(6, [](Comm& comm) {
    Comm sub = comm.split(comm.rank() % 2, comm.rank());
    ASSERT_TRUE(sub.valid());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), comm.rank() / 2);
    // Sub-communicator collectives are isolated per color.
    const int sum = sub.allreduce(comm.rank(), ReduceOp::kSum);
    EXPECT_EQ(sum, comm.rank() % 2 == 0 ? 0 + 2 + 4 : 1 + 3 + 5);
  });
}

TEST(Split, KeyControlsNewRankOrder) {
  run(4, [](Comm& comm) {
    // Reverse the ordering via the key.
    Comm sub = comm.split(0, -comm.rank());
    EXPECT_EQ(sub.rank(), 3 - comm.rank());
    EXPECT_EQ(sub.global_rank(), comm.rank());
  });
}

TEST(Split, NegativeColorYieldsInvalidComm) {
  run(4, [](Comm& comm) {
    Comm sub = comm.split(comm.rank() == 0 ? -1 : 0, 0);
    if (comm.rank() == 0) {
      EXPECT_FALSE(sub.valid());
    } else {
      ASSERT_TRUE(sub.valid());
      EXPECT_EQ(sub.size(), 3);
    }
  });
}

TEST(Split, P2pWithinSubcommunicator) {
  run(4, [](Comm& comm) {
    Comm sub = comm.split(comm.rank() / 2, comm.rank());
    const int peer = 1 - sub.rank();
    const int out = comm.rank();
    int in = -1;
    Request r = sub.irecv(std::span<int>(&in, 1), peer);
    Request s = sub.isend(std::span<const int>(&out, 1), peer);
    sub.wait(r);
    sub.wait(s);
    // My partner is the other global rank in my pair.
    const int expected = (comm.rank() / 2) * 2 + (1 - comm.rank() % 2);
    EXPECT_EQ(in, expected);
  });
}

TEST(Split, NestedSplit) {
  run(8, [](Comm& comm) {
    Comm half = comm.split(comm.rank() / 4, comm.rank());
    Comm quarter = half.split(half.rank() / 2, half.rank());
    EXPECT_EQ(quarter.size(), 2);
    const int sum = quarter.allreduce(1, ReduceOp::kSum);
    EXPECT_EQ(sum, 2);
  });
}

}  // namespace
}  // namespace hspmv::minimpi
