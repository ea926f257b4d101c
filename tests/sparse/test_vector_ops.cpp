#include "sparse/vector_ops.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/prng.hpp"
#include "util/simd.hpp"

namespace hspmv::sparse {
namespace {

/// Scalar reference of the documented dot order: 8 lanes of fused
/// partial sums over the first 8*floor(n/8) elements, vreduce's pairwise
/// tree over the lanes, then the in-order fused tail added last.
HSPMV_NO_AUTOVEC value_t dot_reference(std::span<const value_t> x,
                                       std::span<const value_t> y) {
  const std::size_t n = x.size();
  const std::size_t body = n - n % 8;
  value_t lane[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < body; ++i) {
    lane[i % 8] = std::fma(x[i], y[i], lane[i % 8]);
  }
  value_t tail = 0.0;
  for (std::size_t i = body; i < n; ++i) tail = std::fma(x[i], y[i], tail);
  return (((lane[0] + lane[1]) + (lane[2] + lane[3])) +
          ((lane[4] + lane[5]) + (lane[6] + lane[7]))) +
         tail;
}

std::vector<value_t> random_values(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<value_t> v(n);
  // Mixed signs and magnitudes, so any change of order shows in the bits.
  for (auto& e : v) {
    const int exponent = static_cast<int>(rng.bounded(41)) - 20;
    e = std::ldexp(rng.uniform(-1.0, 1.0), exponent);
  }
  return v;
}

std::uint64_t bits(value_t v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<std::size_t> order_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 17; ++n) sizes.push_back(n);
  sizes.push_back(1000);
  sizes.push_back(131071);
  return sizes;
}

TEST(VectorOps, Axpy) {
  std::vector<value_t> x{1.0, 2.0}, y{10.0, 20.0};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
}

TEST(VectorOps, Xpay) {
  std::vector<value_t> x{1.0, 2.0}, y{10.0, 20.0};
  xpay(x, 0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 12.0);
}

TEST(VectorOps, Scale) {
  std::vector<value_t> x{3.0, -4.0};
  scale(-2.0, x);
  EXPECT_DOUBLE_EQ(x[0], -6.0);
  EXPECT_DOUBLE_EQ(x[1], 8.0);
}

TEST(VectorOps, DotAndNorm) {
  std::vector<value_t> x{3.0, 4.0};
  EXPECT_DOUBLE_EQ(dot(x, x), 25.0);
  EXPECT_DOUBLE_EQ(norm2(x), 5.0);
}

TEST(VectorOps, DotOrthogonal) {
  std::vector<value_t> x{1.0, 0.0}, y{0.0, 1.0};
  EXPECT_DOUBLE_EQ(dot(x, y), 0.0);
}

TEST(VectorOps, CopyAndFill) {
  std::vector<value_t> x{1.0, 2.0}, y(2);
  copy(x, y);
  EXPECT_EQ(y, x);
  fill(y, 7.0);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(VectorOps, SizeMismatchThrows) {
  std::vector<value_t> x{1.0}, y{1.0, 2.0};
  EXPECT_THROW(axpy(1.0, x, y), std::invalid_argument);
  EXPECT_THROW((void)dot(x, y), std::invalid_argument);
  EXPECT_THROW(copy(x, y), std::invalid_argument);
  EXPECT_THROW(xpay(x, 1.0, y), std::invalid_argument);
}

TEST(VectorOps, EmptyVectorsOk) {
  std::vector<value_t> x, y;
  axpy(1.0, x, y);
  EXPECT_DOUBLE_EQ(dot(x, y), 0.0);
  EXPECT_DOUBLE_EQ(norm2(x), 0.0);
}

TEST(VectorOps, DotMatchesDocumentedOrderBitwise) {
  for (const std::size_t n : order_sizes()) {
    const auto x = random_values(n, 11 + n);
    const auto y = random_values(n, 23 + n);
    EXPECT_EQ(bits(dot(x, y)), bits(dot_reference(x, y))) << "n = " << n;
  }
}

TEST(VectorOps, DotOrderHoldsOnSubspansAtOddOffsets) {
  // The order is defined on the slice, not on the allocation: a sub-span
  // starting at an odd (unaligned) offset must follow it too.
  const auto x = random_values(131071 + 19, 5);
  const auto y = random_values(131071 + 19, 7);
  for (const std::size_t n : order_sizes()) {
    for (const std::size_t offset : {1, 3, 7, 13}) {
      const std::span<const value_t> xs =
          std::span<const value_t>(x).subspan(offset, n);
      const std::span<const value_t> ys =
          std::span<const value_t>(y).subspan(offset + 2, n);
      EXPECT_EQ(bits(dot(xs, ys)), bits(dot_reference(xs, ys)))
          << "n = " << n << ", offset = " << offset;
    }
  }
}

TEST(VectorOps, DotOrderDiffersFromSerialChain) {
  // Guards the test itself: a serial left-to-right chain rounds
  // differently on this data, so the bitwise checks above see the order.
  const auto x = random_values(1000, 3);
  value_t serial = 0.0;
  for (const value_t v : x) serial = std::fma(v, v, serial);
  EXPECT_NE(bits(dot(x, x)), bits(serial));
}

TEST(VectorOps, Norm2IsSqrtOfDot) {
  for (const std::size_t n : order_sizes()) {
    const auto x = random_values(n, 31 + n);
    EXPECT_EQ(bits(norm2(x)), bits(std::sqrt(dot(x, x)))) << "n = " << n;
  }
}

TEST(VectorOps, FusedUpdateMatchesUnfusedUpdateThenDot) {
  // CG's step: x += alpha p, r -= alpha Ap in the pass that accumulates
  // r.r must equal the separate update followed by dot(r, r), bitwise.
  for (const std::size_t n : order_sizes()) {
    const auto p = random_values(n, 41 + n);
    const auto ap = random_values(n, 43 + n);
    const auto x0 = random_values(n, 47 + n);
    const auto r0 = random_values(n, 53 + n);
    const value_t alpha = 0.37;

    auto x_ref = x0;
    auto r_ref = r0;
    for (std::size_t i = 0; i < n; ++i) {
      x_ref[i] += alpha * p[i];
      r_ref[i] -= alpha * ap[i];
    }
    const value_t rr_ref = dot(r_ref, r_ref);

    auto x = x0;
    auto r = r0;
    std::size_t covered = 0;
    const value_t rr =
        fused_dot(r, r, [&](std::size_t begin, std::size_t end) {
          EXPECT_EQ(begin, covered);  // chunks cover [0, n) in order
          covered = end;
          for (std::size_t i = begin; i < end; ++i) {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
          }
        });
    EXPECT_EQ(covered, n);
    EXPECT_EQ(bits(rr), bits(rr_ref)) << "n = " << n;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bits(x[i]), bits(x_ref[i])) << "n = " << n << ", i = " << i;
      ASSERT_EQ(bits(r[i]), bits(r_ref[i])) << "n = " << n << ", i = " << i;
    }
  }
}

/// The slice sizes of the team reducer's tests: empty, under one 8-lane
/// pass, around one kTeamBlock and across many blocks.
std::vector<std::size_t> team_sizes_n() {
  return {0, 7, 8191, 8192, 8193, 131071};
}

/// Scalar reference of team_fused_dot's order: dot_reference per
/// 8192-element block, block partials summed in increasing block order.
value_t team_dot_reference(std::span<const value_t> x,
                           std::span<const value_t> y) {
  if (x.empty()) return 0.0;
  value_t sum = 0.0;
  for (std::size_t begin = 0; begin < x.size(); begin += kTeamBlock) {
    const std::size_t len = std::min(kTeamBlock, x.size() - begin);
    const value_t part =
        dot_reference(x.subspan(begin, len), y.subspan(begin, len));
    sum = begin == 0 ? part : sum + part;
  }
  return sum;
}

TEST(VectorOps, TeamDotIsTheSameForEveryTeamSize) {
  for (const std::size_t n : team_sizes_n()) {
    const auto x = random_values(n, 61 + n);
    const auto y = random_values(n, 67 + n);
    const value_t expected = team_dot_reference(x, y);
    for (int threads = 1; threads <= 4; ++threads) {
      team::ThreadTeam pool(threads);
      EXPECT_EQ(bits(team_dot(pool, x, y)), bits(expected))
          << "n = " << n << ", threads = " << threads;
    }
    if (n <= kTeamBlock) {
      EXPECT_EQ(bits(expected), bits(dot(x, y))) << "n = " << n;
    }
  }
}

TEST(VectorOps, TeamFusedUpdateMatchesUnfusedUpdateThenTeamDot) {
  // The solver's x/r update fused into r.r, on teams of 1-4: the same
  // bits as the serial update followed by team_dot(r, r), and every
  // element prepared exactly once.
  for (const std::size_t n : team_sizes_n()) {
    const auto p = random_values(n, 71 + n);
    const auto ap = random_values(n, 73 + n);
    const auto x0 = random_values(n, 79 + n);
    const auto r0 = random_values(n, 83 + n);
    const value_t alpha = -0.61;

    auto x_ref = x0;
    auto r_ref = r0;
    for (std::size_t i = 0; i < n; ++i) {
      x_ref[i] += alpha * p[i];
      r_ref[i] -= alpha * ap[i];
    }
    const value_t rr_ref = team_dot_reference(r_ref, r_ref);

    for (int threads = 1; threads <= 4; ++threads) {
      team::ThreadTeam pool(threads);
      auto x = x0;
      auto r = r0;
      std::vector<std::atomic<int>> prepared(n);
      const value_t rr = team_fused_dot(
          pool, r, r, [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
              prepared[i].fetch_add(1, std::memory_order_relaxed);
              x[i] += alpha * p[i];
              r[i] -= alpha * ap[i];
            }
          });
      EXPECT_EQ(bits(rr), bits(rr_ref))
          << "n = " << n << ", threads = " << threads;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(prepared[i].load(), 1) << "n = " << n << ", i = " << i;
        ASSERT_EQ(bits(x[i]), bits(x_ref[i])) << "n = " << n << ", i = " << i;
        ASSERT_EQ(bits(r[i]), bits(r_ref[i])) << "n = " << n << ", i = " << i;
      }
    }
  }
}

TEST(VectorOps, TeamXpayMatchesXpay) {
  for (const std::size_t n : team_sizes_n()) {
    const auto x = random_values(n, 89 + n);
    const auto y0 = random_values(n, 97 + n);
    auto y_ref = y0;
    xpay(x, 0.83, y_ref);
    for (int threads = 1; threads <= 4; ++threads) {
      team::ThreadTeam pool(threads);
      auto y = y0;
      team_xpay(pool, x, 0.83, y);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits(y[i]), bits(y_ref[i]))
            << "n = " << n << ", threads = " << threads << ", i = " << i;
      }
    }
  }
}

TEST(VectorOps, TeamOpsRejectSizeMismatch) {
  team::ThreadTeam pool(2);
  std::vector<value_t> x(10), y(11);
  EXPECT_THROW((void)team_dot(pool, x, y), std::invalid_argument);
  EXPECT_THROW(team_xpay(pool, x, 1.0, y), std::invalid_argument);
}

}  // namespace
}  // namespace hspmv::sparse
