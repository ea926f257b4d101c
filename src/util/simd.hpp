// SIMD portability shim for the CRS/SELL spMVM kernels.
//
// Detects the widest usable double-precision vector ISA at compile time
// and exposes the handful of operations the kernels need — masked loads,
// 32-bit-index gathers, broadcasts, lane-wise add and fused multiply-add,
// and a fixed-order horizontal reduction — behind one API, so
// sparse/kernels.cpp and sparse/ell.cpp contain a single generic vector
// implementation each:
//
//   level    lanes  types
//   avx512   8      __m512d / __m256i indices / __mmask8
//   avx2     4      __m256d / __m128i indices / emulated 64+32-bit masks
//   neon     2      float64x2_t, lane-wise gathers (no gather instruction)
//   scalar   1      plain double — the portable fallback; kernels dispatch
//                   to their scalar reference loops when kDoubleLanes == 1
//
// Selection honours HSPMV_SIMD_DISABLE (CMake option HSPMV_SIMD=OFF),
// which forces the scalar level regardless of the target ISA.
//
// Numerical policy (documented per kernel path at its dispatch site):
// vfma() is a *fused* multiply-add on every vector level. GCC contracts
// the kernels' scalar `acc += v * x` loops to scalar FMA under the same
// flags (-ffp-contract=fast is the default), so a vector path that
// preserves the scalar path's per-element accumulation order — SELL's
// lane-per-row layout — stays bitwise-identical to the scalar reference
// on this toolchain. Paths that change the summation order (CSR row_dot:
// kDoubleLanes accumulators vs. the scalar 4) are documented and tested
// under a componentwise ulp tolerance instead.
//
// Indices are 32-bit (sparse::index_t); strided gathers for the blocked
// SpMM kernels compute col*width in 32-bit lanes, so cols*width must stay
// below 2^31 — the same bound MultiVector's row-major layout already
// implies for in-memory blocks.
#pragma once

#include <cstdint>

#if !defined(HSPMV_SIMD_DISABLE) && defined(__AVX512F__) && \
    defined(__AVX512VL__) && defined(__FMA__)
#define HSPMV_SIMD_AVX512 1
#include <immintrin.h>
#elif !defined(HSPMV_SIMD_DISABLE) && defined(__AVX2__) && defined(__FMA__)
#define HSPMV_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(HSPMV_SIMD_DISABLE) && defined(__aarch64__) && \
    defined(__ARM_NEON)
#define HSPMV_SIMD_NEON 1
#include <arm_neon.h>
#else
#define HSPMV_SIMD_SCALAR 1
#endif

#include <cmath>

// For scalar *reference* kernels: keeps them honestly scalar under
// -march=native so the SIMD paths are compared/benchmarked against a real
// scalar baseline, not whatever the auto-vectorizer produced. FMA
// contraction stays enabled — the per-path policy notes rely on it.
#if defined(__GNUC__) && !defined(__clang__)
#define HSPMV_NO_AUTOVEC \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define HSPMV_NO_AUTOVEC
#endif

namespace hspmv::util::simd {

#if defined(HSPMV_SIMD_AVX512)

inline constexpr int kDoubleLanes = 8;
inline const char* isa_name() { return "avx512"; }

using VecD = __m512d;
using VecI = __m256i;  ///< kDoubleLanes 32-bit indices
using MaskD = __mmask8;

inline MaskD mask_all() { return static_cast<MaskD>(0xFF); }
/// Low `m` lanes active (0 <= m <= kDoubleLanes).
inline MaskD mask_first(int m) {
  return static_cast<MaskD>((1u << m) - 1u);
}
/// base & (lo[i] <= j < hi[i]) per lane — the split kernels' per-row
/// entry-range predicate.
inline MaskD mask_range(VecI lo, VecI hi, std::int32_t j, MaskD base) {
  const VecI jv = _mm256_set1_epi32(j);
  return base & _mm256_cmp_epi32_mask(lo, jv, _MM_CMPINT_LE) &
         _mm256_cmp_epi32_mask(jv, hi, _MM_CMPINT_LT);
}

inline VecD vzero() { return _mm512_setzero_pd(); }
inline VecD vbroadcast(double v) { return _mm512_set1_pd(v); }
inline VecD vload(const double* p) { return _mm512_loadu_pd(p); }
inline VecD vload(const double* p, MaskD m) {
  return _mm512_maskz_loadu_pd(m, p);
}
inline void vstore(double* p, VecD v) { _mm512_storeu_pd(p, v); }

inline VecI iload(const std::int32_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline VecI iload(const std::int32_t* p, MaskD m) {
  return _mm256_maskz_loadu_epi32(m, p);
}
inline VecI ibroadcast(std::int32_t v) { return _mm256_set1_epi32(v); }
/// idx * scale per 32-bit lane (blocked-SpMM column addressing).
inline VecI iscale(VecI idx, std::int32_t scale) {
  return _mm256_mullo_epi32(idx, _mm256_set1_epi32(scale));
}

inline VecD vgather(const double* base, VecI idx) {
  // Full-mask masked form: the plain _mm512_i32gather_pd wrapper feeds an
  // _mm512_undefined_pd() source and trips -Wmaybe-uninitialized.
  return _mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xFF, idx, base, 8);
}
/// Masked gather: inactive lanes are 0 and their addresses are not read.
inline VecD vgather(const double* base, VecI idx, MaskD m) {
  return _mm512_mask_i32gather_pd(_mm512_setzero_pd(), m, idx, base, 8);
}

/// Fused a*b + c.
inline VecD vfma(VecD a, VecD b, VecD c) { return _mm512_fmadd_pd(a, b, c); }
inline VecD vadd(VecD a, VecD b) { return _mm512_add_pd(a, b); }
/// Fused a*b + c on active lanes; c untouched elsewhere (exact skip
/// semantics — no spurious +0.0 accumulation on masked-out lanes).
inline VecD vfma(VecD a, VecD b, VecD c, MaskD m) {
  return _mm512_mask3_fmadd_pd(a, b, c, m);
}

/// Fixed pairwise-tree reduction: ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)).
inline double vreduce(VecD v) {
  alignas(64) double lane[8];
  _mm512_storeu_pd(lane, v);
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

#elif defined(HSPMV_SIMD_AVX2)

inline constexpr int kDoubleLanes = 4;
inline const char* isa_name() { return "avx2"; }

using VecD = __m256d;
using VecI = __m128i;  ///< kDoubleLanes 32-bit indices

/// AVX2 has no mask registers: carry the lane predicate as both a 64-bit
/// per-double mask (loads, gathers, blends) and a 32-bit per-index mask
/// (index loads, range compares). All-ones = active.
struct MaskD {
  __m256i m64;
  __m128i m32;
};

namespace detail {
// mask_first(m) loads m leading -1 words from the table's offset 4 - m.
alignas(32) inline constexpr std::int64_t kMaskTable64[8] = {
    -1, -1, -1, -1, 0, 0, 0, 0};
alignas(16) inline constexpr std::int32_t kMaskTable32[8] = {
    -1, -1, -1, -1, 0, 0, 0, 0};
}  // namespace detail

inline MaskD mask_all() {
  return MaskD{_mm256_set1_epi64x(-1), _mm_set1_epi32(-1)};
}
inline MaskD mask_first(int m) {
  return MaskD{_mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                   detail::kMaskTable64 + 4 - m)),
               _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                   detail::kMaskTable32 + 4 - m))};
}
inline MaskD mask_range(VecI lo, VecI hi, std::int32_t j, MaskD base) {
  const __m128i jv = _mm_set1_epi32(j);
  // lo <= j is !(lo > j); j < hi is hi > j.
  const __m128i m32 = _mm_and_si128(
      _mm_andnot_si128(_mm_cmpgt_epi32(lo, jv), _mm_cmpgt_epi32(hi, jv)),
      base.m32);
  return MaskD{_mm256_cvtepi32_epi64(m32), m32};
}

inline VecD vzero() { return _mm256_setzero_pd(); }
inline VecD vbroadcast(double v) { return _mm256_set1_pd(v); }
inline VecD vload(const double* p) { return _mm256_loadu_pd(p); }
inline VecD vload(const double* p, MaskD m) {
  return _mm256_maskload_pd(p, m.m64);
}
inline void vstore(double* p, VecD v) { _mm256_storeu_pd(p, v); }

inline VecI iload(const std::int32_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
inline VecI iload(const std::int32_t* p, MaskD m) {
  return _mm_maskload_epi32(p, m.m32);
}
inline VecI ibroadcast(std::int32_t v) { return _mm_set1_epi32(v); }
inline VecI iscale(VecI idx, std::int32_t scale) {
  return _mm_mullo_epi32(idx, _mm_set1_epi32(scale));
}

inline VecD vgather(const double* base, VecI idx) {
  return _mm256_i32gather_pd(base, idx, 8);
}
inline VecD vgather(const double* base, VecI idx, MaskD m) {
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, idx,
                                  _mm256_castsi256_pd(m.m64), 8);
}

inline VecD vfma(VecD a, VecD b, VecD c) { return _mm256_fmadd_pd(a, b, c); }
inline VecD vadd(VecD a, VecD b) { return _mm256_add_pd(a, b); }
inline VecD vfma(VecD a, VecD b, VecD c, MaskD m) {
  return _mm256_blendv_pd(c, _mm256_fmadd_pd(a, b, c),
                          _mm256_castsi256_pd(m.m64));
}

/// Fixed pairwise reduction (l0+l1) + (l2+l3) — the exact reduction order
/// of the scalar row_dot's four accumulators.
inline double vreduce(VecD v) {
  alignas(32) double lane[4];
  _mm256_storeu_pd(lane, v);
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

#elif defined(HSPMV_SIMD_NEON)

inline constexpr int kDoubleLanes = 2;
inline const char* isa_name() { return "neon"; }

using VecD = float64x2_t;
struct VecI {
  std::int32_t i[2];
};
struct MaskD {
  bool b[2];
};

inline MaskD mask_all() { return MaskD{{true, true}}; }
inline MaskD mask_first(int m) { return MaskD{{m > 0, m > 1}}; }
inline MaskD mask_range(VecI lo, VecI hi, std::int32_t j, MaskD base) {
  return MaskD{{base.b[0] && lo.i[0] <= j && j < hi.i[0],
                base.b[1] && lo.i[1] <= j && j < hi.i[1]}};
}

inline VecD vzero() { return vdupq_n_f64(0.0); }
inline VecD vbroadcast(double v) { return vdupq_n_f64(v); }
inline VecD vload(const double* p) { return vld1q_f64(p); }
inline VecD vload(const double* p, MaskD m) {
  return VecD{m.b[0] ? p[0] : 0.0, m.b[1] ? p[1] : 0.0};
}
inline void vstore(double* p, VecD v) { vst1q_f64(p, v); }

inline VecI iload(const std::int32_t* p) { return VecI{{p[0], p[1]}}; }
inline VecI iload(const std::int32_t* p, MaskD m) {
  return VecI{{m.b[0] ? p[0] : 0, m.b[1] ? p[1] : 0}};
}
inline VecI ibroadcast(std::int32_t v) { return VecI{{v, v}}; }
inline VecI iscale(VecI idx, std::int32_t scale) {
  return VecI{{idx.i[0] * scale, idx.i[1] * scale}};
}

// NEON has no gather instruction: lane-wise loads.
inline VecD vgather(const double* base, VecI idx) {
  return VecD{base[idx.i[0]], base[idx.i[1]]};
}
inline VecD vgather(const double* base, VecI idx, MaskD m) {
  return VecD{m.b[0] ? base[idx.i[0]] : 0.0, m.b[1] ? base[idx.i[1]] : 0.0};
}

inline VecD vfma(VecD a, VecD b, VecD c) { return vfmaq_f64(c, a, b); }
inline VecD vadd(VecD a, VecD b) { return vaddq_f64(a, b); }
inline VecD vfma(VecD a, VecD b, VecD c, MaskD m) {
  const VecD fused = vfmaq_f64(c, a, b);
  return VecD{m.b[0] ? vgetq_lane_f64(fused, 0) : vgetq_lane_f64(c, 0),
              m.b[1] ? vgetq_lane_f64(fused, 1) : vgetq_lane_f64(c, 1)};
}

inline double vreduce(VecD v) {
  return vgetq_lane_f64(v, 0) + vgetq_lane_f64(v, 1);
}

#else  // HSPMV_SIMD_SCALAR

inline constexpr int kDoubleLanes = 1;
inline const char* isa_name() { return "scalar"; }

// One-lane stand-ins so the generic vector kernels still *compile* under
// `if constexpr (kDoubleLanes > 1)` — they are never executed: every
// dispatch site falls through to its scalar reference loop instead.
using VecD = double;
using VecI = std::int32_t;
using MaskD = bool;

inline MaskD mask_all() { return true; }
inline MaskD mask_first(int m) { return m > 0; }
inline MaskD mask_range(VecI lo, VecI hi, std::int32_t j, MaskD base) {
  return base && lo <= j && j < hi;
}

inline VecD vzero() { return 0.0; }
inline VecD vbroadcast(double v) { return v; }
inline VecD vload(const double* p) { return *p; }
inline VecD vload(const double* p, MaskD m) { return m ? *p : 0.0; }
inline void vstore(double* p, VecD v) { *p = v; }

inline VecI iload(const std::int32_t* p) { return *p; }
inline VecI iload(const std::int32_t* p, MaskD m) { return m ? *p : 0; }
inline VecI ibroadcast(std::int32_t v) { return v; }
inline VecI iscale(VecI idx, std::int32_t scale) { return idx * scale; }

inline VecD vgather(const double* base, VecI idx) { return base[idx]; }
inline VecD vgather(const double* base, VecI idx, MaskD m) {
  return m ? base[idx] : 0.0;
}

inline VecD vfma(VecD a, VecD b, VecD c) { return std::fma(a, b, c); }
inline VecD vadd(VecD a, VecD b) { return a + b; }
inline VecD vfma(VecD a, VecD b, VecD c, MaskD m) {
  return m ? std::fma(a, b, c) : c;
}

inline double vreduce(VecD v) { return v; }

#endif

}  // namespace hspmv::util::simd
