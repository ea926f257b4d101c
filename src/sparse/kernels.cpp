#include "sparse/kernels.hpp"

#include <algorithm>
#include <stdexcept>

#include "team/thread_team.hpp"
#include "util/simd.hpp"

namespace hspmv::sparse {
namespace {

void check_shapes(const CsrMatrix& a, std::span<const value_t> b,
                  std::span<value_t> c) {
  if (b.size() < static_cast<std::size_t>(a.cols()) ||
      c.size() < static_cast<std::size_t>(a.rows())) {
    throw std::invalid_argument("spmv: vector size mismatch");
  }
}

/// Scalar reference dot product of one row's entry range [begin, end)
/// against b, with 4 independent accumulators so the compiler can keep
/// the FMA chains in flight (a single accumulator is latency-bound).
/// This is the kernels' scalar fallback and the baseline the SIMD path
/// is tested/benchmarked against; its 4-accumulator summation order is
/// part of the documented contract.
HSPMV_NO_AUTOVEC inline value_t row_dot_scalar(const value_t* __restrict val,
                                               const index_t* __restrict col,
                                               const value_t* __restrict b,
                                               offset_t begin, offset_t end) {
  value_t s0 = 0.0;
  value_t s1 = 0.0;
  value_t s2 = 0.0;
  value_t s3 = 0.0;
  offset_t j = begin;
  for (; j + 4 <= end; j += 4) {
    s0 += val[j] * b[col[j]];
    s1 += val[j + 1] * b[col[j + 1]];
    s2 += val[j + 2] * b[col[j + 2]];
    s3 += val[j + 3] * b[col[j + 3]];
  }
  for (; j < end; ++j) s0 += val[j] * b[col[j]];
  return (s0 + s1) + (s2 + s3);
}

/// row_dot_scalar against one column of a row-major `stride`-column
/// block: b points at column q's first element (block base + q) and
/// entry col[j] of the column lives at b[col[j] * stride]. Same four
/// accumulators, same unroll, same (s0 + s1) + (s2 + s3) reduction as
/// row_dot_scalar, so the result is bitwise-identical to row_dot_scalar
/// on the extracted column.
HSPMV_NO_AUTOVEC inline value_t row_dot_strided_scalar(
    const value_t* __restrict val, const index_t* __restrict col,
    const value_t* __restrict b, offset_t begin, offset_t end,
    index_t stride) {
  const auto k = static_cast<std::size_t>(stride);
  value_t s0 = 0.0;
  value_t s1 = 0.0;
  value_t s2 = 0.0;
  value_t s3 = 0.0;
  offset_t j = begin;
  for (; j + 4 <= end; j += 4) {
    s0 += val[j] * b[static_cast<std::size_t>(col[j]) * k];
    s1 += val[j + 1] * b[static_cast<std::size_t>(col[j + 1]) * k];
    s2 += val[j + 2] * b[static_cast<std::size_t>(col[j + 2]) * k];
    s3 += val[j + 3] * b[static_cast<std::size_t>(col[j + 3]) * k];
  }
  for (; j < end; ++j) {
    s0 += val[j] * b[static_cast<std::size_t>(col[j]) * k];
  }
  return (s0 + s1) + (s2 + s3);
}

namespace simd = hspmv::util::simd;

/// Vectorized row dot: one kDoubleLanes-wide accumulator over gathered
/// RHS values, tail handled as one masked iteration, fixed pairwise
/// reduction.
///
/// Relaxed-reassociation policy of this path: it runs kDoubleLanes
/// accumulators where the scalar reference runs 4, so against
/// row_dot_scalar it is equivalent only to a componentwise ulp tolerance
/// (asserted in tests/sparse/test_simd_kernels.cpp) — not bitwise.
/// Within the SIMD path all the repo's bitwise invariants hold: the
/// strided twin below replays the identical operation sequence per
/// column, so SpMM column q stays bitwise SpMV on column q, and results
/// stay independent of the thread count (per-row order is fixed).
inline value_t row_dot_simd(const value_t* __restrict val,
                            const index_t* __restrict col,
                            const value_t* __restrict b, offset_t begin,
                            offset_t end) {
  constexpr offset_t kW = simd::kDoubleLanes;
  simd::VecD acc = simd::vzero();
  offset_t j = begin;
  for (; j + kW <= end; j += kW) {
    acc = simd::vfma(simd::vload(val + j),
                     simd::vgather(b, simd::iload(col + j)), acc);
  }
  if (j < end) {
    const simd::MaskD tail = simd::mask_first(static_cast<int>(end - j));
    acc = simd::vfma(simd::vload(val + j, tail),
                     simd::vgather(b, simd::iload(col + j, tail), tail), acc,
                     tail);
  }
  return simd::vreduce(acc);
}

/// Strided twin of row_dot_simd (same loop structure, same masked tail,
/// same reduction — indices scaled by the block width), so SpMM column q
/// is bitwise row_dot_simd on the extracted column.
inline value_t row_dot_strided_simd(const value_t* __restrict val,
                                    const index_t* __restrict col,
                                    const value_t* __restrict b,
                                    offset_t begin, offset_t end,
                                    index_t stride) {
  constexpr offset_t kW = simd::kDoubleLanes;
  simd::VecD acc = simd::vzero();
  offset_t j = begin;
  for (; j + kW <= end; j += kW) {
    acc = simd::vfma(
        simd::vload(val + j),
        simd::vgather(b, simd::iscale(simd::iload(col + j), stride)), acc);
  }
  if (j < end) {
    const simd::MaskD tail = simd::mask_first(static_cast<int>(end - j));
    acc = simd::vfma(
        simd::vload(val + j, tail),
        simd::vgather(b, simd::iscale(simd::iload(col + j, tail), stride),
                      tail),
        acc, tail);
  }
  return simd::vreduce(acc);
}

/// Hot-path dispatch: SIMD when the shim found vector lanes, the scalar
/// 4-accumulator reference otherwise (the portable fallback the issue's
/// policy note refers to).
inline value_t row_dot(const value_t* __restrict val,
                       const index_t* __restrict col,
                       const value_t* __restrict b, offset_t begin,
                       offset_t end) {
  if constexpr (simd::kDoubleLanes > 1) {
    return row_dot_simd(val, col, b, begin, end);
  } else {
    return row_dot_scalar(val, col, b, begin, end);
  }
}

inline value_t row_dot_strided(const value_t* __restrict val,
                               const index_t* __restrict col,
                               const value_t* __restrict b, offset_t begin,
                               offset_t end, index_t stride) {
  if constexpr (simd::kDoubleLanes > 1) {
    return row_dot_strided_simd(val, col, b, begin, end, stride);
  } else {
    return row_dot_strided_scalar(val, col, b, begin, end, stride);
  }
}

/// Elementwise pairwise tree over `n` accumulators (n a power of two).
/// At n = kDoubleLanes this applies vreduce's lane tree to every column
/// at once: ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)) on AVX-512, (a0+a1)+(a2+a3)
/// on AVX2, a0+a1 on NEON.
template <int N>
inline simd::VecD vtree(const simd::VecD* a) {
  if constexpr (N == 1) {
    return a[0];
  } else {
    return simd::vadd(vtree<N / 2>(a), vtree<N / 2>(a + N / 2));
  }
}

/// K-wide panel kernel: the sums of entry range [begin, end) against
/// kDoubleLanes adjacent columns of a row-major `stride`-column block, b
/// pointing at the panel's first column. Entry j feeds accumulator
/// (j - begin) mod kDoubleLanes with one contiguous load of its
/// kDoubleLanes column values; the r < kDoubleLanes tail entries feed
/// accumulators 0..r-1. Per column this is row_dot_simd's operation
/// sequence — lane l of row_dot_simd's accumulator is accumulator l here
/// — and vtree is vreduce's tree, so every column of the panel is bitwise
/// row_dot_simd on that column alone. Only called when kDoubleLanes > 1.
inline simd::VecD row_panel_simd(const value_t* __restrict val,
                                 const index_t* __restrict col,
                                 const value_t* __restrict b, offset_t begin,
                                 offset_t end, index_t stride) {
  constexpr int kW = simd::kDoubleLanes;
  const auto k = static_cast<std::size_t>(stride);
  simd::VecD acc[kW];
#pragma GCC unroll 16
  for (int l = 0; l < kW; ++l) acc[l] = simd::vzero();
  offset_t j = begin;
  for (; j + kW <= end; j += kW) {
#pragma GCC unroll 16
    for (int l = 0; l < kW; ++l) {
      acc[l] = simd::vfma(
          simd::vbroadcast(val[j + l]),
          simd::vload(b + static_cast<std::size_t>(col[j + l]) * k), acc[l]);
    }
  }
  const auto tail = static_cast<int>(end - j);
#pragma GCC unroll 16
  for (int l = 0; l < kW; ++l) {
    if (l < tail) {
      acc[l] = simd::vfma(
          simd::vbroadcast(val[j + l]),
          simd::vload(b + static_cast<std::size_t>(col[j + l]) * k), acc[l]);
    }
  }
  return vtree<kW>(acc);
}

/// One row of the blocked kernels: c[q] = (kAccumulate: c[q] +) the sum
/// of entry range [begin, end) against column q of the row-major
/// `width`-column block b, for every q < width. Full kDoubleLanes panels
/// run row_panel_simd; the columns after the last full panel (all of
/// them when width < kDoubleLanes, and every column in scalar builds)
/// run the strided row_dot.
template <bool kAccumulate>
inline void spmm_row(const value_t* __restrict val,
                     const index_t* __restrict col,
                     const value_t* __restrict b, offset_t begin,
                     offset_t end, int width, value_t* __restrict c) {
  int q = 0;
  if constexpr (simd::kDoubleLanes > 1) {
    for (; q + simd::kDoubleLanes <= width; q += simd::kDoubleLanes) {
      simd::VecD sum = row_panel_simd(val, col, b + q, begin, end, width);
      if constexpr (kAccumulate) sum = simd::vadd(simd::vload(c + q), sum);
      simd::vstore(c + q, sum);
    }
  }
  for (; q < width; ++q) {
    const value_t sum = row_dot_strided(val, col, b + q, begin, end, width);
    if constexpr (kAccumulate) {
      c[q] += sum;
    } else {
      c[q] = sum;
    }
  }
}

void check_block_shapes(const CsrView& a, index_t cols, int width,
                        std::span<const value_t> b, std::span<value_t> c) {
  if (width < 1) throw std::invalid_argument("spmm: width must be >= 1");
  if (b.size() < static_cast<std::size_t>(cols) *
                     static_cast<std::size_t>(width) ||
      c.size() < static_cast<std::size_t>(a.rows()) *
                     static_cast<std::size_t>(width)) {
    throw std::invalid_argument("spmm: block size mismatch");
  }
}

/// First entry of row range [begin, end) with column >= local_cols.
/// Rows are column-sorted (the split kernels' invariant), so this is a
/// binary search.
inline offset_t split_point(std::span<const index_t> col_idx, offset_t begin,
                            offset_t end, index_t local_cols) {
  const auto cols = col_idx.subspan(static_cast<std::size_t>(begin),
                                    static_cast<std::size_t>(end - begin));
  return begin +
         (std::lower_bound(cols.begin(), cols.end(), local_cols) -
          cols.begin());
}

}  // namespace

void spmv(const CsrMatrix& a, std::span<const value_t> b,
          std::span<value_t> c) {
  check_shapes(a, b, c);
  spmv_rows(a, 0, a.rows(), b, c);
}

CsrView view(const CsrMatrix& a) {
  return CsrView{a.row_ptr(), a.col_idx(), a.val()};
}

void spmv_rows(const CsrMatrix& a, index_t row_begin, index_t row_end,
               std::span<const value_t> b, std::span<value_t> c) {
  spmv_rows(view(a), row_begin, row_end, b, c);
}

void spmv_rows(const CsrView& a, index_t row_begin, index_t row_end,
               std::span<const value_t> b, std::span<value_t> c) {
  const offset_t* __restrict row_ptr = a.row_ptr.data();
  const index_t* __restrict col = a.col_idx.data();
  const value_t* __restrict val = a.val.data();
  const value_t* __restrict x = b.data();
  value_t* __restrict y = c.data();
  for (index_t i = row_begin; i < row_end; ++i) {
    y[i] = row_dot(val, col, x, row_ptr[i], row_ptr[i + 1]);
  }
}

void spmv_accumulate(const CsrMatrix& a, std::span<const value_t> b,
                     std::span<value_t> c) {
  check_shapes(a, b, c);
  const offset_t* __restrict row_ptr = a.row_ptr().data();
  const index_t* __restrict col = a.col_idx().data();
  const value_t* __restrict val = a.val().data();
  const value_t* __restrict x = b.data();
  value_t* __restrict y = c.data();
  for (index_t i = 0; i < a.rows(); ++i) {
    y[i] += row_dot(val, col, x, row_ptr[i], row_ptr[i + 1]);
  }
}

void spmv_general(value_t alpha, const CsrMatrix& a,
                  std::span<const value_t> b, value_t beta,
                  std::span<value_t> c) {
  check_shapes(a, b, c);
  spmv_general_rows(alpha, a, 0, a.rows(), b, beta, c);
}

void spmv_general_rows(value_t alpha, const CsrMatrix& a, index_t row_begin,
                       index_t row_end, std::span<const value_t> b,
                       value_t beta, std::span<value_t> c) {
  const offset_t* __restrict row_ptr = a.row_ptr().data();
  const index_t* __restrict col = a.col_idx().data();
  const value_t* __restrict val = a.val().data();
  const value_t* __restrict x = b.data();
  value_t* __restrict y = c.data();
  for (index_t i = row_begin; i < row_end; ++i) {
    y[i] = alpha * row_dot(val, col, x, row_ptr[i], row_ptr[i + 1]) +
           beta * y[i];
  }
}

void spmv_local(const CsrMatrix& a, index_t local_cols,
                std::span<const value_t> b, std::span<value_t> c) {
  check_shapes(a, b, c);
  spmv_local_rows(a, local_cols, 0, a.rows(), b, c);
}

void spmv_local_rows(const CsrMatrix& a, index_t local_cols, index_t row_begin,
                     index_t row_end, std::span<const value_t> b,
                     std::span<value_t> c) {
  spmv_local_rows(view(a), local_cols, row_begin, row_end, b, c);
}

void spmv_local_rows(const CsrView& a, index_t local_cols, index_t row_begin,
                     index_t row_end, std::span<const value_t> b,
                     std::span<value_t> c) {
  const offset_t* __restrict row_ptr = a.row_ptr.data();
  const index_t* __restrict col = a.col_idx.data();
  const value_t* __restrict val = a.val.data();
  const value_t* __restrict x = b.data();
  value_t* __restrict y = c.data();
  for (index_t i = row_begin; i < row_end; ++i) {
    const offset_t begin = row_ptr[i];
    const offset_t split = split_point(a.col_idx, begin, row_ptr[i + 1],
                                       local_cols);
    y[i] = row_dot(val, col, x, begin, split);
  }
}

void spmv_nonlocal(const CsrMatrix& a, index_t local_cols,
                   std::span<const value_t> b, std::span<value_t> c) {
  check_shapes(a, b, c);
  spmv_nonlocal_rows(a, local_cols, 0, a.rows(), b, c);
}

void spmv_nonlocal_rows(const CsrMatrix& a, index_t local_cols,
                        index_t row_begin, index_t row_end,
                        std::span<const value_t> b, std::span<value_t> c) {
  spmv_nonlocal_rows(view(a), local_cols, row_begin, row_end, b, c);
}

void spmv_nonlocal_rows(const CsrView& a, index_t local_cols,
                        index_t row_begin, index_t row_end,
                        std::span<const value_t> b, std::span<value_t> c) {
  const offset_t* __restrict row_ptr = a.row_ptr.data();
  const index_t* __restrict col = a.col_idx.data();
  const value_t* __restrict val = a.val.data();
  const value_t* __restrict x = b.data();
  value_t* __restrict y = c.data();
  for (index_t i = row_begin; i < row_end; ++i) {
    const offset_t end = row_ptr[i + 1];
    const offset_t split =
        split_point(a.col_idx, row_ptr[i], end, local_cols);
    // Rows without non-local entries are skipped entirely: this phase's
    // cost is Eq. 2's extra read-modify-write sweep of C, so avoid
    // touching C(i) when the row has nothing to contribute.
    if (split == end) continue;
    y[i] += row_dot(val, col, x, split, end);
  }
}

void spmm(const CsrMatrix& a, int width, std::span<const value_t> b,
          std::span<value_t> c) {
  check_block_shapes(view(a), a.cols(), width, b, c);
  spmm_rows(view(a), width, 0, a.rows(), b, c);
}

void spmm_rows(const CsrView& a, int width, index_t row_begin,
               index_t row_end, std::span<const value_t> b,
               std::span<value_t> c) {
  const offset_t* __restrict row_ptr = a.row_ptr.data();
  const index_t* __restrict col = a.col_idx.data();
  const value_t* __restrict val = a.val.data();
  const value_t* __restrict x = b.data();
  value_t* __restrict y = c.data();
  const auto k = static_cast<std::size_t>(width);
  // Column panels inside the row loop: the row's val/col entries stay in
  // L1 across the panels, so the matrix streams from memory once per
  // block.
  for (index_t i = row_begin; i < row_end; ++i) {
    spmm_row<false>(val, col, x, row_ptr[i], row_ptr[i + 1], width,
                    y + static_cast<std::size_t>(i) * k);
  }
}

void spmm_local_rows(const CsrView& a, index_t local_cols, int width,
                     index_t row_begin, index_t row_end,
                     std::span<const value_t> b, std::span<value_t> c) {
  const offset_t* __restrict row_ptr = a.row_ptr.data();
  const index_t* __restrict col = a.col_idx.data();
  const value_t* __restrict val = a.val.data();
  const value_t* __restrict x = b.data();
  value_t* __restrict y = c.data();
  const auto k = static_cast<std::size_t>(width);
  for (index_t i = row_begin; i < row_end; ++i) {
    const offset_t begin = row_ptr[i];
    const offset_t split = split_point(a.col_idx, begin, row_ptr[i + 1],
                                       local_cols);
    spmm_row<false>(val, col, x, begin, split, width,
                    y + static_cast<std::size_t>(i) * k);
  }
}

void spmm_nonlocal_rows(const CsrView& a, index_t local_cols, int width,
                        index_t row_begin, index_t row_end,
                        std::span<const value_t> b, std::span<value_t> c) {
  const offset_t* __restrict row_ptr = a.row_ptr.data();
  const index_t* __restrict col = a.col_idx.data();
  const value_t* __restrict val = a.val.data();
  const value_t* __restrict x = b.data();
  value_t* __restrict y = c.data();
  const auto k = static_cast<std::size_t>(width);
  for (index_t i = row_begin; i < row_end; ++i) {
    const offset_t end = row_ptr[i + 1];
    const offset_t split =
        split_point(a.col_idx, row_ptr[i], end, local_cols);
    // Same skip as spmv_nonlocal_rows: a row without non-local entries
    // costs no C traffic in any column.
    if (split == end) continue;
    spmm_row<true>(val, col, x, split, end, width,
                   y + static_cast<std::size_t>(i) * k);
  }
}

void spmv_rows_scalar(const CsrView& a, index_t row_begin, index_t row_end,
                      std::span<const value_t> b, std::span<value_t> c) {
  const offset_t* __restrict row_ptr = a.row_ptr.data();
  const index_t* __restrict col = a.col_idx.data();
  const value_t* __restrict val = a.val.data();
  const value_t* __restrict x = b.data();
  value_t* __restrict y = c.data();
  for (index_t i = row_begin; i < row_end; ++i) {
    y[i] = row_dot_scalar(val, col, x, row_ptr[i], row_ptr[i + 1]);
  }
}

void spmm_rows_scalar(const CsrView& a, int width, index_t row_begin,
                      index_t row_end, std::span<const value_t> b,
                      std::span<value_t> c) {
  const offset_t* __restrict row_ptr = a.row_ptr.data();
  const index_t* __restrict col = a.col_idx.data();
  const value_t* __restrict val = a.val.data();
  const value_t* __restrict x = b.data();
  value_t* __restrict y = c.data();
  const auto k = static_cast<std::size_t>(width);
  for (index_t i = row_begin; i < row_end; ++i) {
    const offset_t begin = row_ptr[i];
    const offset_t end = row_ptr[i + 1];
    const std::size_t base = static_cast<std::size_t>(i) * k;
    for (std::size_t q = 0; q < k; ++q) {
      y[base + q] =
          row_dot_strided_scalar(val, col, x + q, begin, end, width);
    }
  }
}

void spmv_parallel(const CsrMatrix& a, std::span<const value_t> b,
                   std::span<value_t> c, team::ThreadTeam& team) {
  check_shapes(a, b, c);
  const auto bounds = team::nnz_balanced_boundaries(a.row_ptr(), team.size());
  team.execute([&](int id) {
    spmv_rows(a, static_cast<index_t>(bounds[static_cast<std::size_t>(id)]),
              static_cast<index_t>(bounds[static_cast<std::size_t>(id) + 1]),
              b, c);
  });
}

void spmv_general_parallel(value_t alpha, const CsrMatrix& a,
                           std::span<const value_t> b, value_t beta,
                           std::span<value_t> c, team::ThreadTeam& team) {
  check_shapes(a, b, c);
  const auto bounds = team::nnz_balanced_boundaries(a.row_ptr(), team.size());
  team.execute([&](int id) {
    spmv_general_rows(
        alpha, a, static_cast<index_t>(bounds[static_cast<std::size_t>(id)]),
        static_cast<index_t>(bounds[static_cast<std::size_t>(id) + 1]), b,
        beta, c);
  });
}

void spmv_local_parallel(const CsrMatrix& a, index_t local_cols,
                         std::span<const value_t> b, std::span<value_t> c,
                         team::ThreadTeam& team) {
  check_shapes(a, b, c);
  const auto bounds = team::nnz_balanced_boundaries(a.row_ptr(), team.size());
  team.execute([&](int id) {
    spmv_local_rows(
        a, local_cols,
        static_cast<index_t>(bounds[static_cast<std::size_t>(id)]),
        static_cast<index_t>(bounds[static_cast<std::size_t>(id) + 1]), b, c);
  });
}

void spmv_nonlocal_parallel(const CsrMatrix& a, index_t local_cols,
                            std::span<const value_t> b, std::span<value_t> c,
                            team::ThreadTeam& team) {
  check_shapes(a, b, c);
  const auto bounds = team::nnz_balanced_boundaries(a.row_ptr(), team.size());
  team.execute([&](int id) {
    spmv_nonlocal_rows(
        a, local_cols,
        static_cast<index_t>(bounds[static_cast<std::size_t>(id)]),
        static_cast<index_t>(bounds[static_cast<std::size_t>(id) + 1]), b, c);
  });
}

}  // namespace hspmv::sparse
