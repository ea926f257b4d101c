// determinism-policy: floating-point accumulation on kernel/solver paths
// must go through the pinned-order helpers, and raw SIMD intrinsics must
// stay inside the portability shim.
//
// Bitwise reproducibility across runs, thread counts, and recoveries is
// a certified property of this repo (the chaos bitwise-stability sweeps,
// the SIMD ulp policy of docs/performance.md, resilient solvers that
// re-converge bitwise-identically). That only holds because every
// reduction runs in a pinned order: row_dot / row_dot_strided for kernel
// rows, vreduce for SIMD lane sums, sparse::dot (and fused_dot, its
// update-in-the-same-pass form) for solver dots, and team_fused_dot for
// their team-parallel form (fixed 8192-element blocks summed in block
// order, so the order does not depend on the team size). An
// ad-hoc `sum += ...` loop or std::accumulate introduces an unpinned
// order the certification never sees; a raw _mm*/Neon intrinsic outside
// util/simd.hpp dodges both the shim's lane policy and its scalar
// fallback.
#include <set>

#include "analysis/registry.hpp"
#include "analysis/support.hpp"

namespace hspmv::analysis {

namespace {

using support::is_ident;
using support::is_kw;
using support::is_punct;

/// Functions allowed to contain scalar FP accumulation loops: they ARE
/// the pinned order (or reductions over rank-invariant integers).
const std::set<std::string>& pinned_helpers() {
  static const std::set<std::string> kNames = {
      "row_dot", "row_dot_strided", "vreduce", "dot", "fused_dot",
      "team_fused_dot", "norm2", "apply_op"};
  return kNames;
}

bool is_simd_intrinsic(const std::string& name) {
  if (name.rfind("_mm", 0) == 0) return true;     // _mm*, _mm256_*, _mm512_*
  if (name.rfind("__m", 0) == 0) return true;     // __m128d, __m256d, ...
  static const char* const kNeonPrefixes[] = {
      "vld1q", "vst1q", "vfmaq", "vaddq", "vmulq", "vdupq",
      "vgetq", "vsetq", "vpaddd", "vpadds", "vcombine", "vget_"};
  for (const char* p : kNeonPrefixes) {
    if (name.rfind(p, 0) == 0) return true;
  }
  return name.rfind("float64x", 0) == 0 || name.rfind("uint64x", 0) == 0;
}

class DeterminismPolicyCheck final : public Check {
 public:
  [[nodiscard]] std::string id() const override {
    return "determinism-policy";
  }
  [[nodiscard]] std::string description() const override {
    return "ad-hoc FP reduction (std::accumulate / scalar += loop) "
           "outside the pinned helpers, or raw SIMD intrinsics outside "
           "util/simd.hpp";
  }
  [[nodiscard]] std::string mirrors() const override {
    return "chaos bitwise-stability sweeps + SIMD ulp policy "
           "(tests/spmv/test_engine_chaos.cpp, "
           "tests/sparse/test_simd_kernels.cpp)";
  }
  [[nodiscard]] bool applies(const std::string& path) const override {
    if (is_fixture_path(path)) return true;
    if (path == "src/util/simd.hpp") return false;  // the shim itself
    return path_starts_with_any(path, {"src/"});
  }

  void run(const FileModel& m,
           std::vector<Finding>& findings) const override {
    scan_intrinsics(m, findings);
    if (path_starts_with_any(
            m.path, {"src/sparse/", "src/spmv/", "src/solvers/"}) ||
        is_fixture_path(m.path)) {
      scan_accumulate(m, findings);
      scan_reduction_loops(m, findings);
    }
  }

 private:
  void scan_intrinsics(const FileModel& m,
                       std::vector<Finding>& findings) const {
    for (std::size_t i = 0; i < m.toks.size(); ++i) {
      const Token& t = m.toks[i];
      if (t.kind == Tok::kIdent && !t.keyword &&
          is_simd_intrinsic(t.text)) {
        findings.push_back(Finding{
            id(), m.path, t.line,
            "raw SIMD intrinsic '" + t.text +
                "' outside util/simd.hpp: kernel vector paths must go "
                "through the portability shim so the lane count, masking "
                "and vreduce order stay policy-controlled",
            false, "", false});
        // One finding per line is enough.
        while (i + 1 < m.toks.size() && m.toks[i + 1].line == t.line) ++i;
      }
    }
  }

  void scan_accumulate(const FileModel& m,
                       std::vector<Finding>& findings) const {
    for (std::size_t i = 2; i < m.toks.size(); ++i) {
      if (is_ident(m.toks[i], "accumulate") &&
          is_punct(m.toks[i - 1], "::") && is_ident(m.toks[i - 2], "std")) {
        findings.push_back(Finding{
            id(), m.path, m.toks[i].line,
            "std::accumulate on a kernel/solver path: its left-fold "
            "order is not the pinned accumulation order the bitwise "
            "certification covers — use sparse::dot / row_dot / vreduce",
            false, "", false});
      }
    }
  }

  /// `for (...) { acc += ...; }` where acc is a scalar double/value_t
  /// declared in the enclosing function — an unpinned reduction order.
  void scan_reduction_loops(const FileModel& m,
                            std::vector<Finding>& findings) const {
    for (const FunctionInfo& f : m.functions) {
      if (f.is_lambda) continue;
      if (pinned_helpers().count(f.name) != 0) continue;
      if (f.name.size() > 7 &&
          f.name.rfind("_scalar") == f.name.size() - 7) {
        continue;  // the pinned scalar reference kernels
      }
      const auto accumulators = scalar_fp_locals(m, f);
      if (accumulators.empty()) continue;
      for (const TokRange& loop : m.loop_bodies) {
        if (!f.body.contains(loop.begin)) continue;
        for (std::size_t i = loop.begin; i < loop.end; ++i) {
          const Token& t = m.toks[i];
          if (!is_ident(t) || accumulators.count(t.text) == 0) continue;
          if (i + 1 >= loop.end || !is_punct(m.toks[i + 1], "+=")) {
            continue;
          }
          const Token& prev = m.toks[i - 1];
          const bool stmt_start = is_punct(prev, ";") ||
                                  is_punct(prev, "{") ||
                                  is_punct(prev, "}") || is_punct(prev, ")");
          if (!stmt_start) continue;
          findings.push_back(Finding{
              id(), m.path, t.line,
              "scalar FP reduction '" + t.text +
                  " += ...' in a loop inside '" + f.name +
                  "': an ad-hoc accumulation order the bitwise "
                  "certification never sees — use the pinned helpers "
                  "(sparse::dot / fused_dot, row_dot, vreduce) or "
                  "justify why the order is fixed",
              false, "", false});
        }
      }
    }
  }

  /// Scalar double/value_t locals of `f` (candidate accumulators).
  std::set<std::string> scalar_fp_locals(const FileModel& m,
                                         const FunctionInfo& f) const {
    std::set<std::string> names;
    for (std::size_t i = f.body.begin; i + 1 < f.body.end; ++i) {
      const Token& t = m.toks[i];
      if (!is_kw(t, "double") && !is_ident(t, "value_t")) continue;
      // `double x` — exclude pointers/refs/arrays and casts.
      const Token& next = m.toks[i + 1];
      if (!is_ident(next)) continue;
      const Token& after = m.toks[i + 2];
      if (is_punct(after, "=") || is_punct(after, ";") ||
          is_punct(after, "{")) {
        names.insert(next.text);
      }
    }
    return names;
  }
};

}  // namespace

std::unique_ptr<Check> make_determinism_policy_check() {
  return std::make_unique<DeterminismPolicyCheck>();
}

}  // namespace hspmv::analysis
