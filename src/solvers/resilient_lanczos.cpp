// Fault-tolerant, elastic distributed Lanczos.
//
// The Lanczos recurrence of lanczos.cpp under the ElasticDriver
// (elastic_driver.hpp). Unlike CG the recurrence cannot be restarted
// from one vector, so the checkpoint carries the Lanczos vectors (v,
// v_prev, and the reorthogonalization basis when enabled) plus the
// tridiagonal coefficients as replicated scalars.
//
// Capacity grows (ResilienceOptions::grows) always run in rollback mode
// here regardless of GrowPlan::rollback: the checkpoint already carries
// the complete recurrence, so restoring it on the grown membership is
// both the simplest and the only deterministic resync — and it hands
// joiners everything they need (vectors by restore, coefficients as
// replicated scalars) without a separate state transfer. The recurrence
// therefore has no live vectors and an empty control block.
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "solvers/elastic_driver.hpp"
#include "solvers/lanczos_step.hpp"
#include "util/prng.hpp"

namespace hspmv::solvers {

using sparse::value_t;

namespace {

/// Start-vector entry for global row `row`: a hash of (seed, row) mapped
/// to [-1, 1). Unlike the sequential driver's PRNG stream this depends
/// only on the global row index, so the start vector — and hence the
/// whole recurrence — is independent of the partition and survives
/// repartitioning after a failure or a grow.
value_t start_entry(std::uint64_t seed, std::int64_t row) {
  const std::uint64_t h = util::splitmix64(util::splitmix64(seed) ^
                                           static_cast<std::uint64_t>(row));
  return -1.0 + 2.0 * (static_cast<value_t>(h >> 11) * 0x1.0p-53);
}

struct LanczosRecurrence {
  using Result = ResilientLanczosResult;
  using Driver = detail::ElasticDriver<LanczosRecurrence>;
  struct Config {
    const LanczosOptions& options;
  };
  static constexpr auto kOnJoinerResult =
      &ResilienceOptions::on_joiner_lanczos_result;

  explicit LanczosRecurrence(const Config& config)
      : lanczos(config.options) {}

  void resize(Driver& d) { lanczos.v_prev.assign(d.rows(), 0.0); }

  void start(Driver& d) {
    const std::span<value_t> v = d.input();
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = start_entry(lanczos.options.seed,
                         d.row_begin() + static_cast<std::int64_t>(i));
    }
    const value_t norm = std::sqrt(d.dot(v, v));
    if (norm == 0.0) {
      throw std::runtime_error("resilient_lanczos: zero start vector");
    }
    for (auto& entry : v) entry /= norm;
  }

  void step(Driver& d) {
    const std::span<value_t> w = d.apply();
    lanczos(d.iteration(), d.input(), w, out.lanczos,
            [&d](std::span<const value_t> u, std::span<const value_t> v) {
              return d.dot(u, v);
            });
  }

  [[nodiscard]] bool converged() const { return out.lanczos.converged; }

  // Checkpoint layout: vectors = [v, v_prev, basis...], scalars =
  // [n_alpha, alpha..., n_beta, beta..., previous_lowest].
  std::vector<std::span<const value_t>> checkpoint(
      Driver& d, std::vector<value_t>& scalars) const {
    std::vector<std::span<const value_t>> vectors = {d.input(),
                                                     lanczos.v_prev};
    for (const auto& q : lanczos.basis) vectors.emplace_back(q);
    for (const auto* block : {&out.lanczos.alpha, &out.lanczos.beta}) {
      scalars.push_back(static_cast<value_t>(block->size()));
      scalars.insert(scalars.end(), block->begin(), block->end());
    }
    scalars.push_back(lanczos.previous_lowest);
    return vectors;
  }

  void resume(Driver& d, std::span<const std::span<const value_t>> slices,
              std::span<const value_t> scalars) {
    std::copy(slices[0].begin(), slices[0].end(), d.input().begin());
    lanczos.v_prev.assign(slices[1].begin(), slices[1].end());
    lanczos.basis.clear();
    for (const auto q : slices.subspan(2)) {
      lanczos.basis.emplace_back(q.begin(), q.end());
    }
    auto cursor = scalars.begin();
    for (auto* block : {&out.lanczos.alpha, &out.lanczos.beta}) {
      const auto count = static_cast<std::ptrdiff_t>(*cursor++);
      block->assign(cursor, cursor + count);
      cursor += count;
    }
    lanczos.previous_lowest = *cursor;
    // ritz_values and iterations are stale until the next step refreshes
    // them; a step always follows a resume (the restored iteration is
    // below max_iterations).
  }

  [[nodiscard]] std::vector<value_t> control() const { return {}; }
  void adopt_control(std::span<const value_t> /*block*/) {}
  void finish(Driver& /*d*/) {}

  detail::LanczosStep lanczos;  ///< v_prev, basis and the options
  Result out;
};

}  // namespace

ResilientLanczosResult resilient_lanczos(minimpi::Comm comm,
                                         const sparse::CsrMatrix& global,
                                         const ResilienceOptions& resilience,
                                         const LanczosOptions& options) {
  detail::validate(global, resilience, "resilient_lanczos");
  if (options.max_iterations < 1) {
    throw std::invalid_argument(
        "resilient_lanczos: max_iterations must be >= 1");
  }
  detail::ElasticDriver<LanczosRecurrence> driver(global, resilience,
                                                  {options});
  return driver.run(std::move(comm));
}

}  // namespace hspmv::solvers
