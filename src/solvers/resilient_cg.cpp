// Fault-tolerant, elastic distributed conjugate gradients.
//
// The textbook CG of cg.cpp as a recurrence under the ElasticDriver
// (elastic_driver.hpp), which runs the checkpoint/recover/grow
// protocol. CG checkpoints only x: after a shrink or a rollback-mode
// grow it restarts the recurrence from the restored x (r = b - A x,
// p = r). Migrate-mode grows carry the live recurrence (x, r, p) across
// bitwise and resume at the same iteration. Joiners adopt the
// thresholds, r.r and the residual history by broadcast; convergence is
// derived from r.r and the threshold.
//
// The search direction p lives in the owned part of the engine's input
// vector and Ap is read in place from its output, so an apply copies
// nothing. The vector phase runs on the engine's thread team, as the
// paper's vector mode runs every loop outside the MPI calls on the
// OpenMP threads: p.Ap, the x/r update fused into r.r
// (sparse::team_fused_dot) and p = r + beta p are one dispatch each.
// The dots sum fixed 8192-element blocks in block order, so x is
// bitwise the same for every team size.
#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "solvers/elastic_driver.hpp"

namespace hspmv::solvers {

using sparse::value_t;

namespace {

struct CgRecurrence {
  using Result = ResilientCgResult;
  using Driver = detail::ElasticDriver<CgRecurrence>;
  struct Config {
    std::span<const value_t> b;
    const CgOptions& options;
  };
  static constexpr auto kOnJoinerResult = &ResilienceOptions::on_joiner_result;

  explicit CgRecurrence(const Config& config) : config(config) {}

  void resize(Driver& d) {
    x.assign(d.rows(), 0.0);
    r.assign(d.rows(), 0.0);
    local_b = config.b.subspan(static_cast<std::size_t>(d.row_begin()),
                               d.rows());
  }

  void start(Driver& d) {
    b_norm = std::sqrt(d.dot(local_b, local_b));
    threshold = config.options.tolerance * (b_norm > 0.0 ? b_norm : 1.0);
    restart(d);
  }

  /// (Re)start the recurrence from the current x at d.iteration():
  /// r = b - A x, p = r, and the residual history cut back to match.
  void restart(Driver& d) {
    const std::span<value_t> p = d.input();
    std::copy(x.begin(), x.end(), p.begin());
    const auto ax = d.apply();
    for (std::size_t i = 0; i < x.size(); ++i) r[i] = local_b[i] - ax[i];
    std::copy(r.begin(), r.end(), p.begin());
    rr = d.dot(r, r);
    out.cg.residual_history.resize(static_cast<std::size_t>(d.iteration()));
    out.cg.residual_history.push_back(std::sqrt(rr));
  }

  /// One CG iteration (the body of the textbook loop). The x/r update
  /// rides in team_fused_dot's pass over r, so r.r costs no extra sweep
  /// and is bitwise team_dot(r, r) after the update; p = r + beta p
  /// updates the engine input.
  void step(Driver& d) {
    const std::span<const value_t> ap = d.apply();
    const std::span<value_t> p = d.input();
    const double p_ap = d.dot(p, ap);
    if (p_ap <= 0.0) {
      throw std::runtime_error(
          "resilient_cg: operator is not positive definite (p'Ap <= 0)");
    }
    const double alpha = rr / p_ap;
    const value_t rr_local = sparse::team_fused_dot(
        d.team(), r, r, [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
          }
        });
    const double rr_next =
        d.comm().allreduce(rr_local, minimpi::ReduceOp::kSum);
    const double beta = rr_next / rr;
    sparse::team_xpay(d.team(), r, beta, p);
    rr = rr_next;
    out.cg.residual_history.push_back(std::sqrt(rr));
  }

  [[nodiscard]] bool converged() const { return std::sqrt(rr) <= threshold; }

  std::vector<std::span<const value_t>> checkpoint(
      Driver& /*d*/, std::vector<value_t>& /*scalars*/) const {
    return {std::span<const value_t>(x)};
  }

  void resume(Driver& d, std::span<const std::span<const value_t>> slices,
              std::span<const value_t> /*scalars*/) {
    std::copy(slices[0].begin(), slices[0].end(), x.begin());
    restart(d);
  }

  /// Control block: [b_norm, threshold, r.r, history...].
  [[nodiscard]] std::vector<value_t> control() const {
    // HSPMV-CHECK-ALLOW(first-touch): replicated control block, sent once per grow; cold metadata
    std::vector<value_t> block = {b_norm, threshold, rr};
    const auto& history = out.cg.residual_history;
    block.insert(block.end(), history.begin(), history.end());
    return block;
  }

  void adopt_control(std::span<const value_t> block) {
    b_norm = block[0];
    threshold = block[1];
    rr = block[2];
    out.cg.residual_history.assign(block.begin() + 3, block.end());
  }

  std::array<std::span<value_t>, 3> live(Driver& d) {
    return {x, r, d.input()};
  }

  void finish(Driver& d) {
    out.cg.iterations = d.iteration();
    out.cg.converged = converged();
    out.cg.residual_norm = std::sqrt(rr);
    out.cg.relative_residual =
        b_norm > 0.0 ? out.cg.residual_norm / b_norm : out.cg.residual_norm;
    out.x = d.comm().allgatherv(std::span<const value_t>(x));
  }

  Config config;
  Result out;
  std::span<const value_t> local_b;  ///< this rank's slice of b
  std::vector<value_t> x, r;
  double rr = 0.0;
  double b_norm = 0.0;
  double threshold = 0.0;
};

}  // namespace

ResilientCgResult resilient_cg(minimpi::Comm comm,
                               const sparse::CsrMatrix& global,
                               std::span<const value_t> b,
                               const ResilienceOptions& resilience,
                               const CgOptions& options) {
  detail::validate(global, resilience, "resilient_cg");
  if (b.size() != static_cast<std::size_t>(global.rows())) {
    throw std::invalid_argument(
        "resilient_cg: b must be the replicated global right-hand side");
  }
  detail::ElasticDriver<CgRecurrence> driver(global, resilience,
                                             {b, options});
  return driver.run(std::move(comm));
}

}  // namespace hspmv::solvers
