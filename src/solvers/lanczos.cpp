#include "solvers/lanczos.hpp"

#include <cmath>
#include <stdexcept>

#include "solvers/lanczos_step.hpp"
#include "solvers/tridiag.hpp"
#include "util/prng.hpp"

namespace hspmv::solvers {

using sparse::value_t;

LanczosResult lanczos(const Operator& op, const LanczosOptions& options) {
  if (!op.apply || !op.dot || op.local_size == 0) {
    throw std::invalid_argument("lanczos: incomplete operator");
  }
  if (options.max_iterations < 1) {
    throw std::invalid_argument("lanczos: max_iterations must be >= 1");
  }
  const std::size_t n = op.local_size;

  // HSPMV-CHECK-ALLOW(first-touch): sequential reference Lanczos; the allocating thread is the only consumer
  std::vector<value_t> v(n);       // current Lanczos vector
  // HSPMV-CHECK-ALLOW(first-touch): sequential reference Lanczos; the allocating thread is the only consumer
  std::vector<value_t> w(n);

  // Deterministic random start, normalized with the *global* dot so every
  // rank of a distributed run produces consistent local slices only if
  // the caller seeds identically per slice; sequential use is trivial.
  util::Xoshiro256 rng(options.seed);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  const value_t norm = std::sqrt(op.dot(v, v));
  if (norm == 0.0) throw std::runtime_error("lanczos: zero start vector");
  sparse::scale(1.0 / norm, v);

  LanczosResult result;
  detail::LanczosStep step(options);
  for (int it = 0; it < options.max_iterations; ++it) {
    op.apply(v, w);
    if (step(it, v, w, result, op.dot)) break;
  }
  return result;
}

namespace detail {

bool LanczosStep::operator()(int it, std::span<value_t> v,
                             std::span<value_t> w, LanczosResult& result,
                             const DotFn& dot) {
  if (options.full_reorthogonalization) basis.emplace_back(v.begin(), v.end());
  const double a = dot(w, v);
  result.alpha.push_back(a);
  // w -= a v + b_prev v_prev
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] -= a * v[i];
    if (it > 0) w[i] -= result.beta.back() * v_prev[i];
  }
  if (options.full_reorthogonalization) {
    for (const auto& q : basis) {
      const double projection = dot(w, q);
      for (std::size_t i = 0; i < w.size(); ++i) w[i] -= projection * q[i];
    }
  }
  const double b = std::sqrt(dot(w, w));

  result.ritz_values = tridiagonal_eigenvalues(result.alpha, result.beta);
  result.iterations = it + 1;
  const double lowest = result.ritz_values.front();
  if (it > 0 && std::abs(lowest - previous_lowest) <
                    options.tolerance * (1.0 + std::abs(lowest))) {
    result.converged = true;
    return true;
  }
  previous_lowest = lowest;

  if (b < 1e-14) {
    // Invariant subspace found: the Ritz values are exact.
    result.converged = true;
    return true;
  }
  result.beta.push_back(b);
  v_prev.assign(v.begin(), v.end());
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = w[i] / b;
  return false;
}

}  // namespace detail

}  // namespace hspmv::solvers
