// SIMD-vs-scalar equivalence sweep for the CRS and SELL kernels, pinning
// the per-path numerical policy documented in sparse/kernels.hpp and
// sparse/ell.hpp:
//
//  * SELL paths are *bitwise* identical to their pinned-scalar references:
//    the vector sweep assigns one lane per chunk row and accumulates in
//    the scalar j-order with fused multiply-adds, which is the scalar
//    operation sequence once the compiler contracts `sum += v*x` to FMA
//    (GCC's default at -O2; the scalar references deliberately keep
//    contraction enabled and only disable auto-vectorization).
//  * CRS row_dot runs kDoubleLanes accumulators instead of the scalar 4,
//    so it reassociates: equivalence holds componentwise within a small
//    multiple of eps relative to the row's absolute dot product
//    sum_j |a_ij x_j| (the standard reassociation bound; "ulp policy").
//  * Within either path, SpMM column q is bitwise the SpMV of column q.
//
// On builds without vector lanes (HSPMV_SIMD_DISABLE, unsupported ISA)
// the production entry points dispatch to the scalar references and every
// assertion below holds trivially.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/reference.hpp"
#include "matgen/poisson.hpp"
#include "matgen/random_matrix.hpp"
#include "sparse/ell.hpp"
#include "sparse/kernels.hpp"
#include "util/simd.hpp"

namespace hspmv::sparse {
namespace {

void expect_bitwise(std::span<const value_t> a, std::span<const value_t> b,
                    const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << label << " slot " << i << ": " << a[i] << " vs " << b[i];
  }
}

/// Row-wise reassociation bounds for the CRS ulp policy: 64 eps times the
/// row's absolute dot product (column q of a width-k block).
std::vector<value_t> row_abs_bounds(const CsrMatrix& a,
                                    std::span<const value_t> x, int width,
                                    int q) {
  std::vector<value_t> bounds(static_cast<std::size_t>(a.rows()), 0.0);
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto [cols, vals] = a.row(i);
    value_t abs_sum = 0.0;
    for (std::size_t j = 0; j < cols.size(); ++j) {
      abs_sum += std::abs(vals[j] *
                          x[static_cast<std::size_t>(cols[j]) *
                                static_cast<std::size_t>(width) +
                            static_cast<std::size_t>(q)]);
    }
    bounds[static_cast<std::size_t>(i)] =
        64.0 * std::numeric_limits<value_t>::epsilon() * abs_sum;
  }
  return bounds;
}

std::vector<CsrMatrix> sweep_matrices() {
  std::vector<CsrMatrix> matrices;
  matrices.push_back(matgen::random_power_law(513, 5, 0.6, 7));  // skewed
  matrices.push_back(matgen::laplacian1d(37));  // short uniform rows
  matrices.push_back(matgen::random_sparse(200, 9, 14));
  CooBuilder b(9, 9);  // empty rows + single-entry rows
  b.add(0, 1, 2.0);
  b.add(4, 8, 3.0);
  b.add(4, 0, -1.0);
  b.add(8, 8, 0.5);
  matrices.emplace_back(9, 9, b.finish());
  return matrices;
}

TEST(CsrSimd, SpmvMatchesScalarWithinUlpPolicy) {
  for (const CsrMatrix& a : sweep_matrices()) {
    const auto x = testutil::random_vector(
        static_cast<std::size_t>(a.cols()), 11);
    std::vector<value_t> y_simd(static_cast<std::size_t>(a.rows()), -7.0);
    std::vector<value_t> y_scalar(static_cast<std::size_t>(a.rows()), -7.0);
    const auto v = view(a);
    spmv_rows(v, 0, a.rows(), x, y_simd);
    spmv_rows_scalar(v, 0, a.rows(), x, y_scalar);
    const auto bounds = row_abs_bounds(a, x, 1, 0);
    for (index_t i = 0; i < a.rows(); ++i) {
      EXPECT_NEAR(y_simd[static_cast<std::size_t>(i)],
                  y_scalar[static_cast<std::size_t>(i)],
                  bounds[static_cast<std::size_t>(i)])
          << "row " << i;
    }
    // Independent oracle: both sides must agree with the dense per-row
    // reference well inside the same policy.
    const auto dense = testutil::dense_reference(a, x);
    for (index_t i = 0; i < a.rows(); ++i) {
      EXPECT_NEAR(y_simd[static_cast<std::size_t>(i)],
                  dense[static_cast<std::size_t>(i)],
                  bounds[static_cast<std::size_t>(i)] + 1e-13)
          << "row " << i;
    }
  }
}

TEST(CsrSimd, SpmmMatchesScalarWithinUlpPolicy) {
  const CsrMatrix a = matgen::random_power_law(257, 6, 0.7, 3);
  const auto v = view(a);
  for (const int width : {2, 3, 8}) {
    const auto n = static_cast<std::size_t>(a.cols()) *
                   static_cast<std::size_t>(width);
    const auto x = testutil::random_vector(n, 13);
    std::vector<value_t> y_simd(static_cast<std::size_t>(a.rows()) *
                                    static_cast<std::size_t>(width),
                                -7.0);
    auto y_scalar = y_simd;
    spmm_rows(v, width, 0, a.rows(), x, y_simd);
    spmm_rows_scalar(v, width, 0, a.rows(), x, y_scalar);
    for (int q = 0; q < width; ++q) {
      const auto bounds = row_abs_bounds(a, x, width, q);
      for (index_t i = 0; i < a.rows(); ++i) {
        const std::size_t slot = static_cast<std::size_t>(i) *
                                     static_cast<std::size_t>(width) +
                                 static_cast<std::size_t>(q);
        EXPECT_NEAR(y_simd[slot], y_scalar[slot],
                    bounds[static_cast<std::size_t>(i)])
            << "row " << i << " col " << q << " width " << width;
      }
    }
  }
}

/// Column q of a row-major `width`-column block.
std::vector<value_t> block_column(std::span<const value_t> block, int width,
                                  int q) {
  const auto k = static_cast<std::size_t>(width);
  std::vector<value_t> column(block.size() / k);
  for (std::size_t i = 0; i < column.size(); ++i) {
    column[i] = block[i * k + static_cast<std::size_t>(q)];
  }
  return column;
}

TEST(CsrSimd, SpmmColumnBitwiseEqualsSpmv) {
  // The within-path invariant: SpMM column q replays spmv's exact
  // operation sequence — the K-wide panel kernel keeps row_dot's lane
  // accumulators as column vectors and combines them with vreduce's
  // tree, and the columns after the last full panel run the strided
  // row_dot — so the equality is bitwise, not ulp. Widths straddle the
  // panel width (kDoubleLanes is 8/4/2/1 depending on the ISA); the
  // sweep matrices have empty rows and rows shorter and longer than one
  // vector; local_cols = cols / 2 cuts rows mid-way for the split forms.
  std::vector<CsrMatrix> matrices = sweep_matrices();
  matrices.push_back(matgen::random_sparse(120, 21, 29));  // several panels
  for (const int width : {1, 2, 3, 7, 8, 9, 16, 17}) {
    for (const CsrMatrix& a : matrices) {
      const auto v = view(a);
      const auto k = static_cast<std::size_t>(width);
      const auto rows = static_cast<std::size_t>(a.rows());
      const index_t local_cols = a.cols() / 2;
      const auto xb = testutil::random_vector(
          static_cast<std::size_t>(a.cols()) * k,
          static_cast<std::uint64_t>(19 + width));
      std::vector<value_t> full_b(rows * k, -7.0);
      spmm_rows(v, width, 0, a.rows(), xb, full_b);
      // Split forms: local phase, then the non-local phase on top (rows
      // without non-local entries keep the local result).
      std::vector<value_t> split_b(rows * k, -7.0);
      spmm_local_rows(v, local_cols, width, 0, a.rows(), xb, split_b);
      spmm_nonlocal_rows(v, local_cols, width, 0, a.rows(), xb, split_b);
      // Partial row range: rows outside it keep their poison.
      std::vector<value_t> range_b(rows * k, -7.0);
      const index_t mid_begin = a.rows() / 3;
      const index_t mid_end = a.rows() - a.rows() / 3;
      spmm_rows(v, width, mid_begin, mid_end, xb, range_b);
      for (int q = 0; q < width; ++q) {
        const std::string label = "width " + std::to_string(width) +
                                  " rows " + std::to_string(a.rows()) +
                                  " col " + std::to_string(q);
        const auto x = block_column(xb, width, q);
        std::vector<value_t> full(rows, -7.0);
        spmv_rows(v, 0, a.rows(), x, full);
        expect_bitwise(block_column(full_b, width, q), full,
                       (label + " full").c_str());
        std::vector<value_t> split(rows, -7.0);
        spmv_local_rows(v, local_cols, 0, a.rows(), x, split);
        spmv_nonlocal_rows(v, local_cols, 0, a.rows(), x, split);
        expect_bitwise(block_column(split_b, width, q), split,
                       (label + " split").c_str());
        std::vector<value_t> range(rows, -7.0);
        spmv_rows(v, mid_begin, mid_end, x, range);
        expect_bitwise(block_column(range_b, width, q), range,
                       (label + " range").c_str());
      }
    }
  }
}

/// The (chunk, sigma) sweep of the SELL bitwise policy. Covers C smaller,
/// equal, and larger than the vector width, ragged tail chunks (513 and 9
/// rows are not multiples of most C), and sigma > 1 permutation windows.
class SellSimdSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SellSimdSweep, FullSweepBitwise) {
  const auto [chunk, sigma] = GetParam();
  for (const CsrMatrix& a : sweep_matrices()) {
    const auto s = SellMatrix::from_csr(a, chunk, sigma);
    const auto x = testutil::random_vector(
        static_cast<std::size_t>(a.cols()), 23);
    std::vector<value_t> y_simd(static_cast<std::size_t>(a.rows()), -7.0);
    auto y_scalar = y_simd;
    s.spmv_chunks(0, s.chunk_count(), x, y_simd);
    s.spmv_chunks_scalar(0, s.chunk_count(), x, y_scalar);
    expect_bitwise(y_simd, y_scalar, "sell-full");
    // Partial chunk range: both paths must leave rows outside the range
    // untouched (the -7.0 poison) and agree bitwise inside it.
    if (s.chunk_count() > 2) {
      y_simd.assign(y_simd.size(), -7.0);
      y_scalar.assign(y_scalar.size(), -7.0);
      s.spmv_chunks(1, s.chunk_count() - 1, x, y_simd);
      s.spmv_chunks_scalar(1, s.chunk_count() - 1, x, y_scalar);
      expect_bitwise(y_simd, y_scalar, "sell-range");
    }
  }
}

TEST_P(SellSimdSweep, SplitPhasesBitwise) {
  const auto [chunk, sigma] = GetParam();
  const CsrMatrix a = matgen::random_power_law(513, 5, 0.6, 7);
  const auto s = SellMatrix::from_csr(a, chunk, sigma);
  const auto x = testutil::random_vector(
      static_cast<std::size_t>(a.cols()), 29);
  for (const index_t split : {0, 1, 97, 256, 513}) {
    std::vector<value_t> y_simd(513, -7.0);
    auto y_scalar = y_simd;
    s.spmv_local_chunks(split, 0, s.chunk_count(), x, y_simd);
    s.spmv_local_chunks_scalar(split, 0, s.chunk_count(), x, y_scalar);
    expect_bitwise(y_simd, y_scalar, "sell-local");
    // Non-local accumulates into the local result; rows without
    // non-local entries must stay bitwise untouched in both paths.
    s.spmv_nonlocal_chunks(split, 0, s.chunk_count(), x, y_simd);
    s.spmv_nonlocal_chunks_scalar(split, 0, s.chunk_count(), x, y_scalar);
    expect_bitwise(y_simd, y_scalar, "sell-nonlocal");
  }
}

TEST_P(SellSimdSweep, SpmmBitwise) {
  const auto [chunk, sigma] = GetParam();
  const CsrMatrix a = matgen::random_power_law(200, 6, 0.7, 31);
  const auto s = SellMatrix::from_csr(a, chunk, sigma);
  for (const int width : {1, 3, 8}) {
    const auto x = testutil::random_vector(
        static_cast<std::size_t>(a.cols()) * static_cast<std::size_t>(width),
        37);
    std::vector<value_t> y_simd(static_cast<std::size_t>(a.rows()) *
                                    static_cast<std::size_t>(width),
                                -7.0);
    auto y_scalar = y_simd;
    s.spmm_chunks(width, 0, s.chunk_count(), x, y_simd);
    s.spmm_chunks_scalar(width, 0, s.chunk_count(), x, y_scalar);
    expect_bitwise(y_simd, y_scalar, "sell-spmm");

    const index_t split = 100;
    y_simd.assign(y_simd.size(), -7.0);
    y_scalar.assign(y_scalar.size(), -7.0);
    s.spmm_local_chunks(split, width, 0, s.chunk_count(), x, y_simd);
    s.spmm_local_chunks_scalar(split, width, 0, s.chunk_count(), x,
                               y_scalar);
    expect_bitwise(y_simd, y_scalar, "sell-spmm-local");
    s.spmm_nonlocal_chunks(split, width, 0, s.chunk_count(), x, y_simd);
    s.spmm_nonlocal_chunks_scalar(split, width, 0, s.chunk_count(), x,
                                  y_scalar);
    expect_bitwise(y_simd, y_scalar, "sell-spmm-nonlocal");
  }
}

INSTANTIATE_TEST_SUITE_P(
    ChunkSigma, SellSimdSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 7, 8, 16, 32, 64),
                       ::testing::Values(1, 8, 64, 1 << 20)));

TEST(SellSimd, SpmmColumnBitwiseEqualsSpmv) {
  const CsrMatrix a = matgen::random_power_law(300, 5, 0.6, 41);
  const auto s = SellMatrix::from_csr(a, 16, 128);
  const int width = 4;
  const auto xb = testutil::random_vector(
      static_cast<std::size_t>(a.cols()) * static_cast<std::size_t>(width),
      43);
  std::vector<value_t> yb(static_cast<std::size_t>(a.rows()) *
                          static_cast<std::size_t>(width));
  s.spmm_chunks(width, 0, s.chunk_count(), xb, yb);
  for (int q = 0; q < width; ++q) {
    std::vector<value_t> x(static_cast<std::size_t>(a.cols()));
    for (index_t c = 0; c < a.cols(); ++c) {
      x[static_cast<std::size_t>(c)] =
          xb[static_cast<std::size_t>(c) * static_cast<std::size_t>(width) +
             static_cast<std::size_t>(q)];
    }
    std::vector<value_t> y(static_cast<std::size_t>(a.rows()));
    s.spmv_chunks(0, s.chunk_count(), x, y);
    for (index_t i = 0; i < a.rows(); ++i) {
      EXPECT_EQ(
          std::bit_cast<std::uint64_t>(y[static_cast<std::size_t>(i)]),
          std::bit_cast<std::uint64_t>(
              yb[static_cast<std::size_t>(i) *
                     static_cast<std::size_t>(width) +
                 static_cast<std::size_t>(q)]))
          << "row " << i << " col " << q;
    }
  }
}

TEST(SellSimd, SigmaRoundingReportedAndRoundTrips) {
  const CsrMatrix a = matgen::random_power_law(100, 4, 0.7, 47);
  // sigma > 1 not a multiple of chunk rounds up to the next multiple.
  EXPECT_EQ(SellMatrix::from_csr(a, 8, 13).sigma(), 16);
  EXPECT_EQ(SellMatrix::from_csr(a, 4, 9).sigma(), 12);
  EXPECT_EQ(SellMatrix::from_csr(a, 8, 16).sigma(), 16);
  EXPECT_EQ(SellMatrix::from_csr(a, 8, 1).sigma(), 1);  // 1 = no sorting
  // The rounded window still yields a valid permutation and the exact
  // CSR product (un-permute round-trip).
  const auto s = SellMatrix::from_csr(a, 8, 13);
  const auto perm = s.permutation();
  std::vector<bool> seen(100, false);
  for (const index_t p : perm) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 100);
    EXPECT_FALSE(seen[static_cast<std::size_t>(p)]);
    seen[static_cast<std::size_t>(p)] = true;
  }
  const auto x = testutil::random_vector(100, 53);
  std::vector<value_t> y_sell(100), y_csr(100);
  s.spmv(x, y_sell);
  spmv(a, x, y_csr);
  EXPECT_LT(testutil::max_abs_diff(y_sell, y_csr), 1e-12);
}

TEST(SellSimd, ReportsActiveIsa) {
  // Not an equivalence check — pins that the shim resolved to *something*
  // and that the compile-time lane count is consistent with it.
  const char* isa = util::simd::isa_name();
  EXPECT_TRUE(isa != nullptr && *isa != '\0');
  if (util::simd::kDoubleLanes == 1) {
    EXPECT_STREQ(isa, "scalar");
  } else {
    EXPECT_STRNE(isa, "scalar");
  }
}

}  // namespace
}  // namespace hspmv::sparse
