// CRS spMVM kernels — the paper's Sect. 1.2 loop and the split
// local/non-local variant from Sect. 3.1, in sequential, row-range, and
// thread-parallel forms.
//
// The parallel kernels are the node-level analogue of the paper's OpenMP
// worksharing loops: work is distributed as one contiguous,
// nonzero-balanced row chunk per team member (team::nnz_balanced_boundaries),
// so a single rank can drive all cores of a memory domain toward the
// bandwidth saturation point of Fig. 3.
#pragma once

#include <span>

#include "sparse/csr.hpp"
#include "sparse/types.hpp"

namespace hspmv::team {
class ThreadTeam;
}

namespace hspmv::sparse {

/// C = A * B — the canonical CRS kernel (paper Sect. 1.2, with C zeroed
/// first so the loop body is the paper's C(i) += val(j) * B(col_idx(j))).
void spmv(const CsrMatrix& a, std::span<const value_t> b,
          std::span<value_t> c);

/// C += A * B.
void spmv_accumulate(const CsrMatrix& a, std::span<const value_t> b,
                     std::span<value_t> c);

/// C = alpha * A * B + beta * C.
void spmv_general(value_t alpha, const CsrMatrix& a,
                  std::span<const value_t> b, value_t beta,
                  std::span<value_t> c);

/// Row-range kernel: computes C(i) for i in [row_begin, row_end) only.
/// This is the explicit work-distribution primitive of task mode
/// (Sect. 3.2: worksharing directives cannot be used without subteams).
void spmv_rows(const CsrMatrix& a, index_t row_begin, index_t row_end,
               std::span<const value_t> b, std::span<value_t> c);

/// Raw-array view of a CRS matrix — the kernels' minimal contract. Lets
/// callers that own placement-optimized copies of the three arrays (the
/// engine's first-touch local blocks) run the same kernels, with the same
/// per-row accumulation order, without materializing a CsrMatrix.
struct CsrView {
  std::span<const offset_t> row_ptr;  ///< rows+1 entries
  std::span<const index_t> col_idx;
  std::span<const value_t> val;

  [[nodiscard]] index_t rows() const {
    return static_cast<index_t>(row_ptr.size()) - 1;
  }
};

/// View of a's storage (valid while a lives).
CsrView view(const CsrMatrix& a);

/// Row-range kernels on a raw view; bitwise-identical to the CsrMatrix
/// forms (shared row_dot helper).
void spmv_rows(const CsrView& a, index_t row_begin, index_t row_end,
               std::span<const value_t> b, std::span<value_t> c);
void spmv_local_rows(const CsrView& a, index_t local_cols, index_t row_begin,
                     index_t row_end, std::span<const value_t> b,
                     std::span<value_t> c);
void spmv_nonlocal_rows(const CsrView& a, index_t local_cols,
                        index_t row_begin, index_t row_end,
                        std::span<const value_t> b, std::span<value_t> c);

/// Blocked multi-RHS (SpMM) kernels: B and C hold `width` interleaved
/// columns per row — element (row, q) lives at row*width + q (row-major
/// K-column blocks). Columns are swept in panels of kDoubleLanes: per
/// row, a panel keeps kDoubleLanes accumulator vectors, entry j of the
/// row adds val[j] times the panel's contiguous slice of B's row col[j]
/// into accumulator (j - begin) mod kDoubleLanes (the r tail entries
/// into accumulators 0..r-1), and the accumulators combine elementwise
/// in util::simd::vreduce's pairwise tree. Per column that is row_dot's
/// operation sequence, and the columns after the last full panel (all
/// of them when width < kDoubleLanes, every column in scalar builds) run
/// row_dot with stride-width indexing, so SpMM column q is
/// bitwise-identical to spmv on column q alone. The matrix row stays
/// cache-resident across the panels, amortizing its DRAM traffic over
/// the block — the B_SpMM(K) = 6/K + 12/Nnzr + kappa/2 model of
/// perfmodel/code_balance.hpp.
void spmm(const CsrMatrix& a, int width, std::span<const value_t> b,
          std::span<value_t> c);

/// Row-range SpMM on a raw view (width = 1 is bitwise spmv_rows).
void spmm_rows(const CsrView& a, int width, index_t row_begin,
               index_t row_end, std::span<const value_t> b,
               std::span<value_t> c);
/// Split SpMM, local phase: columns < local_cols, zeroing C's rows first.
void spmm_local_rows(const CsrView& a, index_t local_cols, int width,
                     index_t row_begin, index_t row_end,
                     std::span<const value_t> b, std::span<value_t> c);
/// Split SpMM, non-local phase: adds columns >= local_cols; rows without
/// non-local entries are skipped (Eq. 2's extra C sweep, per column).
void spmm_nonlocal_rows(const CsrView& a, index_t local_cols, int width,
                        index_t row_begin, index_t row_end,
                        std::span<const value_t> b, std::span<value_t> c);

/// Scalar reference sweeps: the pre-SIMD kernels, pinned to row_dot's
/// 4-accumulator summation order with auto-vectorization disabled. The
/// production spmv_rows/spmm_rows dispatch to util/simd.hpp's vector path
/// when lanes are available; that path runs kDoubleLanes accumulators, so
/// it matches these references to a componentwise ulp tolerance (policy
/// asserted in tests/sparse/test_simd_kernels.cpp), while SpMM-column-q ==
/// SpMV-column-q and thread-count independence remain bitwise within
/// either path.
void spmv_rows_scalar(const CsrView& a, index_t row_begin, index_t row_end,
                      std::span<const value_t> b, std::span<value_t> c);
void spmm_rows_scalar(const CsrView& a, int width, index_t row_begin,
                      index_t row_end, std::span<const value_t> b,
                      std::span<value_t> c);

/// Row-range form of the alpha/beta kernel.
void spmv_general_rows(value_t alpha, const CsrMatrix& a, index_t row_begin,
                       index_t row_end, std::span<const value_t> b,
                       value_t beta, std::span<value_t> c);

/// Split kernel, local phase: traverses only entries with
/// col_idx < local_cols (the process-local part of B), zeroing C first.
/// Assumes each row's column indices are sorted ascending so the local
/// prefix of a row is contiguous — CommPlan guarantees this layout.
void spmv_local(const CsrMatrix& a, index_t local_cols,
                std::span<const value_t> b, std::span<value_t> c);

/// Split kernel, non-local phase: adds the contributions of entries with
/// col_idx >= local_cols. Writes (reads + updates) C a second time — the
/// extra traffic modeled by Eq. 2.
void spmv_nonlocal(const CsrMatrix& a, index_t local_cols,
                   std::span<const value_t> b, std::span<value_t> c);

/// Row-range versions of the split phases, for explicit thread chunking.
void spmv_local_rows(const CsrMatrix& a, index_t local_cols, index_t row_begin,
                     index_t row_end, std::span<const value_t> b,
                     std::span<value_t> c);
void spmv_nonlocal_rows(const CsrMatrix& a, index_t local_cols,
                        index_t row_begin, index_t row_end,
                        std::span<const value_t> b, std::span<value_t> c);

/// Thread-parallel C = A * B: each team member sweeps one contiguous
/// nonzero-balanced row chunk. Bitwise-identical to spmv() per row (same
/// accumulation order), so results do not depend on the thread count.
void spmv_parallel(const CsrMatrix& a, std::span<const value_t> b,
                   std::span<value_t> c, team::ThreadTeam& team);

/// Thread-parallel C = alpha * A * B + beta * C.
void spmv_general_parallel(value_t alpha, const CsrMatrix& a,
                           std::span<const value_t> b, value_t beta,
                           std::span<value_t> c, team::ThreadTeam& team);

/// Thread-parallel split phases (same chunking as spmv_parallel, so the
/// local and non-local sweeps of one row always land on the same thread).
void spmv_local_parallel(const CsrMatrix& a, index_t local_cols,
                         std::span<const value_t> b, std::span<value_t> c,
                         team::ThreadTeam& team);
void spmv_nonlocal_parallel(const CsrMatrix& a, index_t local_cols,
                            std::span<const value_t> b, std::span<value_t> c,
                            team::ThreadTeam& team);

}  // namespace hspmv::sparse
