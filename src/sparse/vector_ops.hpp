// Dense vector operations used by the iterative solvers and the
// distributed kernels. Header-only; trivially inlined.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "sparse/types.hpp"
#include "team/thread_team.hpp"
#include "util/simd.hpp"

namespace hspmv::sparse {

inline void check_same_size(std::span<const value_t> a,
                            std::span<const value_t> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("vector_ops: size mismatch");
  }
}

/// y += alpha * x
inline void axpy(value_t alpha, std::span<const value_t> x,
                 std::span<value_t> y) {
  check_same_size(x, y);
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

/// y = x + beta * y  (the "xpay" update of CG)
inline void xpay(std::span<const value_t> x, value_t beta,
                 std::span<value_t> y) {
  check_same_size(x, y);
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] + beta * y[i];
}

inline void scale(value_t alpha, std::span<value_t> x) {
  for (auto& v : x) v *= alpha;
}

/// The pinned accumulation order of every dot product in the library:
/// dot(), norm2() and the fused solver passes that feed one.
///
///  - Lane l of 8 partial sums accumulates x[i]*y[i] for the elements
///    i = l (mod 8) of the first 8*floor(n/8), one fused multiply-add
///    per element, in increasing i.
///  - The lanes combine as ((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7)), the
///    tree of simd::vreduce.
///  - The last n mod 8 products are fused into a separate sum in index
///    order, which is added last.
///
/// The result is a pure function of the two slices: it does not depend
/// on simd::kDoubleLanes, the thread count or the rank count. Every
/// SIMD level runs the same 8 lanes (one AVX-512 register, two AVX2,
/// four NEON, eight scalars) with fused multiply-adds, so every level
/// and every FP-contraction setting returns the same bits.
///
/// `prepare(begin, end)` runs on consecutive chunks [begin, end) that
/// cover [0, n) in order, each just before its products are read. A
/// solver uses it to update x and y in the same pass (CG's x/r update
/// feeding r.r) while the chunk is still in L1; it must write no element
/// outside [begin, end). With a no-op prepare this is dot().
template <typename Prepare>
[[nodiscard]] value_t fused_dot(std::span<const value_t> x,
                                std::span<const value_t> y,
                                Prepare&& prepare) {
  namespace simd = util::simd;
  check_same_size(x, y);
  constexpr std::size_t kLanes = 8;
  constexpr std::size_t kW = simd::kDoubleLanes;
  constexpr std::size_t kRegs = kLanes / kW;
  constexpr std::size_t kChunk = 512;  // 4 KiB per vector: stays in L1
  static_assert(kLanes % kW == 0 && kChunk % kLanes == 0);

  const std::size_t n = x.size();
  const std::size_t body = n - n % kLanes;
  const value_t* px = x.data();
  const value_t* py = y.data();
  simd::VecD acc[kRegs];
  for (auto& a : acc) a = simd::vzero();
  for (std::size_t begin = 0; begin < body; begin += kChunk) {
    const std::size_t end = std::min(begin + kChunk, body);
    prepare(begin, end);
    for (std::size_t i = begin; i < end; i += kLanes) {
      for (std::size_t r = 0; r < kRegs; ++r) {
        acc[r] = simd::vfma(simd::vload(px + i + r * kW),
                            simd::vload(py + i + r * kW), acc[r]);
      }
    }
  }
  value_t tail = 0.0;
  if (body < n) {
    prepare(body, n);
    for (std::size_t i = body; i < n; ++i) tail = std::fma(px[i], py[i], tail);
  }
  alignas(64) value_t s[kLanes];
  for (std::size_t r = 0; r < kRegs; ++r) simd::vstore(s + r * kW, acc[r]);
  return (((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))) +
         tail;
}

/// x.y in the pinned order of fused_dot().
[[nodiscard]] inline value_t dot(std::span<const value_t> x,
                                 std::span<const value_t> y) {
  return fused_dot(x, y, [](std::size_t, std::size_t) {});
}

[[nodiscard]] inline value_t norm2(std::span<const value_t> x) {
  return std::sqrt(dot(x, x));
}

/// Block length of the team-parallel vector operations: the slice is cut
/// into blocks of this many elements (the last one shorter), a cut that
/// does not depend on the team size.
inline constexpr std::size_t kTeamBlock = 8192;

/// Run body(block, begin, end) for every kTeamBlock block [begin, end)
/// of [0, n) in one team dispatch: member m takes the contiguous blocks
/// static_chunk(0, blocks, m, team.size()), each in increasing order.
/// A single block runs inline on the caller, without a dispatch.
template <typename Body>
void for_each_team_block(team::ThreadTeam& team, std::size_t n,
                         Body&& body) {
  const auto blocks =
      static_cast<std::int64_t>((n + kTeamBlock - 1) / kTeamBlock);
  if (blocks <= 1) {
    if (n > 0) body(std::size_t{0}, std::size_t{0}, n);
    return;
  }
  const int parts = team.size();
  team.execute([&](int member) {
    const team::Range mine = team::static_chunk(0, blocks, member, parts);
    for (std::int64_t b = mine.begin; b < mine.end; ++b) {
      const auto begin = static_cast<std::size_t>(b) * kTeamBlock;
      body(static_cast<std::size_t>(b), begin,
           std::min(begin + kTeamBlock, n));
    }
  });
}

/// fused_dot() on a thread team, in an order that does not depend on the
/// team size: each kTeamBlock block reduces in fused_dot's pinned 8-lane
/// order, and the block partials are summed in increasing block order,
/// ((p0 + p1) + p2) + .... The result is the same for every team size,
/// and a slice of at most one block returns exactly the bits of dot().
/// `prepare(begin, end)` follows fused_dot's contract on absolute
/// indices; it runs on the member that owns the block, so it must write
/// no element outside [begin, end).
template <typename Prepare>
[[nodiscard]] value_t team_fused_dot(team::ThreadTeam& team,
                                     std::span<const value_t> x,
                                     std::span<const value_t> y,
                                     Prepare&& prepare) {
  check_same_size(x, y);
  const std::size_t n = x.size();
  if (n <= kTeamBlock) return fused_dot(x, y, prepare);
  // HSPMV-CHECK-ALLOW(first-touch): one partial per 8192-element block, written once and summed once; never streamed by a kernel
  std::vector<value_t> partial((n + kTeamBlock - 1) / kTeamBlock);
  for_each_team_block(
      team, n, [&](std::size_t block, std::size_t begin, std::size_t end) {
        partial[block] = fused_dot(
            x.subspan(begin, end - begin), y.subspan(begin, end - begin),
            [&](std::size_t lo, std::size_t hi) {
              prepare(begin + lo, begin + hi);
            });
      });
  value_t sum = partial[0];
  for (std::size_t b = 1; b < partial.size(); ++b) sum += partial[b];
  return sum;
}

/// x.y on a thread team, in the block order of team_fused_dot().
[[nodiscard]] inline value_t team_dot(team::ThreadTeam& team,
                                      std::span<const value_t> x,
                                      std::span<const value_t> y) {
  return team_fused_dot(team, x, y, [](std::size_t, std::size_t) {});
}

/// xpay() on a thread team, split on the kTeamBlock cut.
inline void team_xpay(team::ThreadTeam& team, std::span<const value_t> x,
                      value_t beta, std::span<value_t> y) {
  check_same_size(x, y);
  for_each_team_block(team, x.size(),
                      [&](std::size_t, std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) {
                          y[i] = x[i] + beta * y[i];
                        }
                      });
}

inline void copy(std::span<const value_t> x, std::span<value_t> y) {
  check_same_size(x, y);
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i];
}

inline void fill(std::span<value_t> x, value_t v) {
  for (auto& e : x) e = v;
}

}  // namespace hspmv::sparse
