// The three-term Lanczos step shared by lanczos() (lanczos.cpp) and
// resilient_lanczos() (resilient_lanczos.cpp). Private to src/solvers.
#pragma once

#include <span>
#include <vector>

#include "solvers/lanczos.hpp"

namespace hspmv::solvers::detail {

/// The callers supply the start vector, the spMVM and the dot product.
struct LanczosStep {
  explicit LanczosStep(const LanczosOptions& options) : options(options) {}

  /// Iteration `it` with w = A v on entry: orthogonalizes w, appends
  /// alpha, beta and the Ritz values to `result`, and moves v_prev <- v,
  /// v <- w / beta. Returns true once converged.
  bool operator()(int it, std::span<sparse::value_t> v,
                  std::span<sparse::value_t> w, LanczosResult& result,
                  const DotFn& dot);

  LanczosOptions options;
  // HSPMV-CHECK-ALLOW(first-touch): previous Lanczos vector; only the calling thread sweeps it
  std::vector<sparse::value_t> v_prev;
  std::vector<std::vector<sparse::value_t>> basis;  ///< reorthogonalization
  double previous_lowest = 0.0;
};

}  // namespace hspmv::solvers::detail
