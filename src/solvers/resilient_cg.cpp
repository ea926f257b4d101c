// Fault-tolerant, elastic distributed conjugate gradients.
//
// The iteration is the textbook CG of cg.cpp on a RecoverableSpmv
// operator, wrapped in the recovery protocol: checkpoint x every K
// iterations (buddy-replicated), and on FaultError shrink the
// communicator, rebuild the engine over the survivors, restore the last
// complete checkpoint, restart the recurrence from it (r = b - A x,
// p = r), and continue. Transient faults never reach this level when the
// engine's retry policy absorbs them; one that escapes (retries
// exhausted, exchange deadline) is rethrown — retrying a healthy
// exchange is the engine's job, not the solver's.
//
// Capacity grows (ResilienceOptions::grows) run the protocol the other
// way: spawn fresh ranks, incrementally repartition onto the grown
// communicator (only rows whose owner changed travel), then resync.
// Migrate-mode grows carry the live recurrence (x, r, p) across
// bitwise and resume at the same iteration; rollback-mode grows restore
// the last complete checkpoint on the grown membership, so from that
// checkpoint on, the continuation is bitwise a calm run at the new
// size. Joiners enter through run_joiner(), adopt the replicated
// control state (iteration, thresholds, residual history, fired grow
// plans) by broadcast, and iterate as full members.
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
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>

#include "solvers/resilience.hpp"
#include "sparse/vector_ops.hpp"
#include "spmv/resilient.hpp"
#include "util/timer.hpp"

namespace hspmv::solvers {

using sparse::index_t;
using sparse::value_t;

namespace {

/// One rank's driver. Founders construct it and call run(); each
/// spawned rank gets a fresh instance driven by run_joiner() from the
/// joiner_main the survivors pass to Comm::spawn. All configuration is
/// held by reference — the founders' inputs outlive the joiner threads
/// because minimpi::run joins spawned ranks before returning.
class ElasticCg {
 public:
  ElasticCg(const sparse::CsrMatrix& global, std::span<const value_t> b,
            const ResilienceOptions& resilience, const CgOptions& options)
      : global_(global),
        b_(b),
        resilience_(resilience),
        options_(options),
        fired_(resilience.grows.size(), 0) {}

  ResilientCgResult run(minimpi::Comm comm) {
    world_rank_ = comm.global_rank();
    op_.emplace(std::move(comm), global_, resilience_.threads,
                resilience_.variant, resilience_.engine);
    resize_state();
    b_norm_ = std::sqrt(dot(local_b(), local_b()));
    threshold_ = options_.tolerance * (b_norm_ > 0.0 ? b_norm_ : 1.0);
    rr_ = restart();
    out_.cg.residual_history.push_back(std::sqrt(rr_));
    converged_ = std::sqrt(rr_) <= threshold_;
    loop();
    return std::move(out_);
  }

  /// Entry point for a spawned rank: `grown` is the communicator its
  /// joiner_main received; `plan_index` identifies the GrowPlan that
  /// spawned it. Joins the survivors' post-grow resync (the matching
  /// RecoverableSpmv joiner constructor already ran the migration
  /// collective) and then iterates like any founder.
  ResilientCgResult run_joiner(minimpi::Comm grown, std::size_t plan_index) {
    world_rank_ = grown.global_rank();
    op_.emplace(spmv::RecoverableSpmv::JoinerTag{}, std::move(grown),
                global_, resilience_.threads, resilience_.variant,
                resilience_.engine);
    grow_resync(/*joiner=*/true, resilience_.grows.at(plan_index));
    loop();
    return std::move(out_);
  }

 private:
  void resize_state() {
    row_begin_ = op_->matrix().row_begin();
    n_ = static_cast<std::size_t>(op_->matrix().owned_rows());
    x_.assign(n_, 0.0);
    r_.assign(n_, 0.0);
    xd_ = op_->make_vector();
    yd_ = op_->make_vector();
    team_ = &op_->engine().team();
  }

  /// The search direction p: the owned part of the engine's input.
  [[nodiscard]] std::span<value_t> direction() { return xd_->owned(); }

  /// yd_ = A xd_ in place.
  void apply() {
    const spmv::Timings t = op_->apply(*xd_, *yd_);
    out_.recovery.transient_retries += t.retries;
  }

  double dot(std::span<const value_t> u, std::span<const value_t> v) {
    // Pinned local order (sparse::team_dot) so the distributed dot is
    // bitwise-stable for a fixed partition, whatever the team size.
    return global_sum(sparse::team_dot(*team_, u, v));
  }

  double global_sum(value_t local) {
    return op_->comm().allreduce(local, minimpi::ReduceOp::kSum);
  }

  [[nodiscard]] std::span<const value_t> local_b() const {
    return b_.subspan(static_cast<std::size_t>(row_begin_), n_);
  }

  /// (Re)start the recurrence from the current x: r = b - A x, p = r.
  double restart() {
    std::copy(x_.begin(), x_.end(), direction().begin());
    apply();
    const auto bl = local_b();
    const auto ax = yd_->owned();
    for (std::size_t i = 0; i < n_; ++i) r_[i] = bl[i] - ax[i];
    std::copy(r_.begin(), r_.end(), direction().begin());
    return dot(r_, r_);
  }

  void checkpoint() {
    store_.save(op_->comm(), row_begin_, it_,
                {std::span<const value_t>(x_)}, {});
  }

  /// Replicated control state, broadcast from new rank 0 (always an old
  /// member) so joiners adopt it: iteration, norms, recurrence scalar,
  /// convergence flag, the residual history, and which grow plans have
  /// fired. Survivors hold identical values already; overwriting them
  /// with rank 0's copies is a no-op by construction.
  void sync_control() {
    const minimpi::Comm& comm = op_->comm();
    // HSPMV-CHECK-ALLOW(first-touch): replicated control header, broadcast once per recovery; cold metadata
    std::vector<value_t> header(6 + fired_.size());
    if (comm.rank() == 0) {
      header[0] = static_cast<value_t>(it_);
      header[1] = b_norm_;
      header[2] = threshold_;
      header[3] = rr_;
      header[4] = converged_ ? 1.0 : 0.0;
      header[5] =
          static_cast<value_t>(out_.cg.residual_history.size());
      for (std::size_t i = 0; i < fired_.size(); ++i) {
        header[6 + i] = fired_[i] ? 1.0 : 0.0;
      }
    }
    comm.broadcast(std::span<value_t>(header), 0);
    it_ = static_cast<int>(header[0]);
    b_norm_ = header[1];
    threshold_ = header[2];
    rr_ = header[3];
    converged_ = header[4] != 0.0;
    out_.cg.residual_history.resize(static_cast<std::size_t>(header[5]));
    for (std::size_t i = 0; i < fired_.size(); ++i) {
      fired_[i] = header[6 + i] != 0.0 ? 1 : 0;
    }
    comm.broadcast(std::span<value_t>(out_.cg.residual_history), 0);
  }

  /// The post-grow collective resync both sides run: survivors right
  /// after grow_and_rebuild, joiners right after their operator's
  /// migration constructor.
  void grow_resync(bool joiner, const GrowPlan& plan) {
    util::Timer timer;
    RecoveryStats& stats = out_.recovery;
    if (plan.rollback) {
      // Restore the last complete checkpoint on the grown membership;
      // from here on the solve is bitwise a calm run at the new size
      // resumed from that checkpoint.
      const auto restored = store_.restore_global(
          op_->comm(), global_.rows(), op_->matrix().row_begin(),
          op_->matrix().owned_rows());
      if (!joiner) {
        stats.iterations_lost += it_ - static_cast<int>(restored.iteration);
      }
      it_ = static_cast<int>(restored.iteration);
      resize_state();
      std::copy(restored.vectors.at(0).begin() + row_begin_,
                restored.vectors.at(0).begin() + row_begin_ +
                    static_cast<std::ptrdiff_t>(n_),
                x_.begin());
      sync_control();
      rr_ = restart();
      out_.cg.residual_history.resize(static_cast<std::size_t>(it_));
      out_.cg.residual_history.push_back(std::sqrt(rr_));
      converged_ = std::sqrt(rr_) <= threshold_;
    } else {
      // Carry the live recurrence across bitwise: x, r, p follow their
      // rows to the new owners; rr is replicated and adopted by
      // broadcast. No iterations are lost.
      auto new_x = op_->migrate_vector(
          joiner ? std::span<const value_t>{} : std::span<const value_t>(x_));
      auto new_r = op_->migrate_vector(
          joiner ? std::span<const value_t>{} : std::span<const value_t>(r_));
      auto new_p = op_->migrate_vector(joiner ? std::span<const value_t>{}
                                              : direction());
      resize_state();
      x_ = std::move(new_x);
      r_ = std::move(new_r);
      std::copy(new_p.begin(), new_p.end(), direction().begin());
      // Committed checkpoint generations follow the membership change to
      // the new (rank+1) % size buddies.
      store_.remap(op_->comm());
      sync_control();
    }
    // Replicate the current state to the new buddies right away: the
    // next failure must not depend on reaching the next scheduled
    // checkpoint.
    checkpoint();
    ++stats.grows;
    stats.rows_migrated += op_->last_rebuild().rows_migrated;
    stats.rows_full_replication += op_->last_rebuild().rows_full_replication;
    stats.grow_seconds += timer.seconds();
  }

  /// Fire every not-yet-fired grow plan scheduled for the current
  /// iteration. All members scan the same plans with the same it_ and
  /// fired_ flags, so they agree on what fires without communicating.
  /// A rollback-mode grow rewinds it_, which can make earlier-indexed
  /// plans due again — hence the rescan — but a fired plan never
  /// re-fires.
  void maybe_grow() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t i = 0; i < resilience_.grows.size(); ++i) {
        if (fired_[i] || resilience_.grows[i].iteration != it_) continue;
        fired_[i] = 1;
        const GrowPlan plan = resilience_.grows[i];
        op_->grow_and_rebuild(plan.ranks, make_joiner_main(i));
        grow_resync(/*joiner=*/false, plan);
        progress = true;
        break;
      }
    }
  }

  [[nodiscard]] std::function<void(minimpi::Comm&)> make_joiner_main(
      std::size_t plan_index) {
    // Capture only shared-const configuration — every survivor passes an
    // equivalent closure to the spawn rendezvous, and the joiner builds
    // its own driver state from scratch.
    const sparse::CsrMatrix& global = global_;
    const std::span<const value_t> b = b_;
    const ResilienceOptions& resilience = resilience_;
    const CgOptions& options = options_;
    return [&global, b, &resilience, &options,
            plan_index](minimpi::Comm& grown) {
      ElasticCg peer(global, b, resilience, options);
      ResilientCgResult result = peer.run_joiner(grown, plan_index);
      if (resilience.on_joiner_result) {
        resilience.on_joiner_result(std::move(result));
      }
    };
  }

  /// One CG iteration (the body of the textbook loop). The x/r update
  /// rides in team_fused_dot's pass over r, so r.r costs no extra sweep
  /// and is bitwise team_dot(r, r) after the update; p = r + beta p
  /// updates the engine input.
  void step() {
    apply();
    const std::span<value_t> p = direction();
    const std::span<const value_t> ap = yd_->owned();
    const double p_ap = dot(p, ap);
    if (p_ap <= 0.0) {
      throw std::runtime_error(
          "resilient_cg: operator is not positive definite (p'Ap <= 0)");
    }
    const double alpha = rr_ / p_ap;
    const value_t rr_local = sparse::team_fused_dot(
        *team_, r_, r_, [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            x_[i] += alpha * p[i];
            r_[i] -= alpha * ap[i];
          }
        });
    const double rr_next = global_sum(rr_local);
    const double beta = rr_next / rr_;
    sparse::team_xpay(*team_, r_, beta, p);
    rr_ = rr_next;
    ++it_;
    out_.cg.residual_history.push_back(std::sqrt(rr_));
    converged_ = std::sqrt(rr_) <= threshold_;
  }

  /// Shrink-recovery retry loop. Returns false when this rank died
  /// mid-recovery (the caller returns early with survivor == false).
  bool recover(const minimpi::FaultError& fault) {
    RecoveryStats& stats = out_.recovery;
    util::Timer recovery_timer;
    minimpi::FaultError current = fault;
    for (int attempt = 0;; ++attempt) {
      if (attempt >= resilience_.max_recoveries) throw current;
      try {
        op_->shrink_and_rebuild();
        stats.rows_migrated += op_->last_rebuild().rows_migrated;
        stats.rows_full_replication +=
            op_->last_rebuild().rows_full_replication;
        const auto restored = store_.restore_global(
            op_->comm(), global_.rows(), op_->matrix().row_begin(),
            op_->matrix().owned_rows());
        stats.iterations_lost += it_ - static_cast<int>(restored.iteration);
        it_ = static_cast<int>(restored.iteration);
        resize_state();
        std::copy(restored.vectors.at(0).begin() + row_begin_,
                  restored.vectors.at(0).begin() + row_begin_ +
                      static_cast<std::ptrdiff_t>(n_),
                  x_.begin());
        rr_ = restart();
        out_.cg.residual_history.resize(static_cast<std::size_t>(it_));
        out_.cg.residual_history.push_back(std::sqrt(rr_));
        converged_ = std::sqrt(rr_) <= threshold_;
        // Replicate the restored slice to the new buddy right away: the
        // next failure must not depend on reaching the next scheduled
        // checkpoint.
        checkpoint();
        ++stats.failures_recovered;
        break;
      } catch (const CheckpointLostError&) {
        throw;
      } catch (const minimpi::FaultError& again) {
        // Another death mid-recovery: run the whole recovery again
        // under the new epoch.
        if (again.kind() == minimpi::FaultKind::kTransient) throw;
        if (again.rank() == world_rank_) {
          stats.survivor = false;
          stats.final_size = 0;
          return false;
        }
        current = again;
      }
    }
    stats.recovery_seconds += recovery_timer.seconds();
    return true;
  }

  void loop() {
    while (!converged_ && it_ < options_.max_iterations) {
      try {
        maybe_grow();
        if (converged_) break;
        // Checkpoint before the planned-failure hook fires: a victim
        // dying at a checkpoint iteration commits its slice to the buddy
        // first, so that iteration (not the previous one) is restorable.
        if (it_ % resilience_.checkpoint_interval == 0) checkpoint();
        for (const FailurePlan& plan : resilience_.failures) {
          if (plan.rank == world_rank_ && plan.iteration == it_) {
            op_->comm().simulate_rank_failure();
          }
        }
        step();
      } catch (const minimpi::FaultError& fault) {
        if (fault.kind() == minimpi::FaultKind::kTransient) throw;
        // HSPMV-CHECK-ALLOW(divergent-collective): the victim rank is dead to the protocol; survivors shrink and rebuild the communicator before their next collective
        if (fault.rank() == world_rank_) {
          // This rank was killed: leave quietly, the others carry on.
          out_.recovery.survivor = false;
          out_.recovery.final_size = 0;
          return;
        }
        if (!recover(fault)) return;
      }
    }
    out_.cg.iterations = it_;
    out_.cg.converged = converged_;
    out_.cg.residual_norm = std::sqrt(rr_);
    out_.cg.relative_residual = b_norm_ > 0.0
                                    ? out_.cg.residual_norm / b_norm_
                                    : out_.cg.residual_norm;
    out_.recovery.final_size = op_->comm().size();
    out_.x = op_->comm().allgatherv(std::span<const value_t>(x_));
  }

  // Configuration (shared by reference with joiner drivers).
  const sparse::CsrMatrix& global_;
  std::span<const value_t> b_;
  const ResilienceOptions& resilience_;
  const CgOptions& options_;

  // Per-rank driver state.
  ResilientCgResult out_;
  int world_rank_ = -1;
  std::optional<spmv::RecoverableSpmv> op_;
  BuddyCheckpoint store_;
  index_t row_begin_ = 0;
  std::size_t n_ = 0;
  std::optional<spmv::DistVector> xd_, yd_;
  /// The current engine's team (re-read after every shrink and grow).
  team::ThreadTeam* team_ = nullptr;
  std::vector<value_t> x_, r_;
  int it_ = 0;
  double rr_ = 0.0;
  double b_norm_ = 0.0;
  double threshold_ = 0.0;
  bool converged_ = false;
  std::vector<char> fired_;  ///< one flag per ResilienceOptions::grows entry
};

}  // namespace

ResilientCgResult resilient_cg(minimpi::Comm comm,
                               const sparse::CsrMatrix& global,
                               std::span<const value_t> b,
                               const ResilienceOptions& resilience,
                               const CgOptions& options) {
  if (global.rows() != global.cols()) {
    throw std::invalid_argument("resilient_cg: matrix must be square");
  }
  if (b.size() != static_cast<std::size_t>(global.rows())) {
    throw std::invalid_argument(
        "resilient_cg: b must be the replicated global right-hand side");
  }
  if (resilience.checkpoint_interval < 1) {
    throw std::invalid_argument(
        "resilient_cg: checkpoint_interval must be >= 1");
  }
  for (const GrowPlan& plan : resilience.grows) {
    if (plan.ranks < 1 || plan.iteration < 0) {
      throw std::invalid_argument(
          "resilient_cg: grow plans need iteration >= 0 and ranks >= 1");
    }
  }
  ElasticCg driver(global, b, resilience, options);
  return driver.run(std::move(comm));
}

}  // namespace hspmv::solvers
