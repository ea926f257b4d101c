// The elastic iteration driver shared by the resilient solvers.
//
// ElasticDriver<Recurrence> runs one rank's side of the recovery
// protocol (docs/resilience.md) around a solver recurrence. It owns the
// RecoverableSpmv operator and its engine vectors, the buddy-checkpoint
// store, the iteration counter, the fired-grow flags and the
// RecoveryStats. It checkpoints every K iterations, fires planned
// failures and grows, and on a permanent FaultError shrinks, rebuilds,
// restores the last complete checkpoint, re-saves it and continues. A
// transient fault that escapes the engine's retry policy is rethrown.
//
// The Recurrence (CgRecurrence, LanczosRecurrence) is a template
// parameter, not a virtual base, so its step inlines into the loop and
// each solver keeps its own result type and joiner callback. The members
// it must provide are listed in docs/resilience.md ("Adding a
// recurrence").
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "solvers/resilience.hpp"
#include "sparse/vector_ops.hpp"
#include "spmv/resilient.hpp"
#include "util/timer.hpp"

namespace hspmv::solvers::detail {

/// Throws std::invalid_argument, prefixed with `who`, unless `global` is
/// square and `resilience` is runnable: checkpoint_interval >= 1, grow
/// plans with iteration >= 0 and ranks >= 1, failure plans with rank >= 0
/// and iteration >= 0 (the rule of parse_failure_plan).
void validate(const sparse::CsrMatrix& global,
              const ResilienceOptions& resilience, const std::string& who);

template <class Recurrence>
class ElasticDriver {
 public:
  using Config = typename Recurrence::Config;
  using Result = typename Recurrence::Result;
  using value_t = sparse::value_t;
  /// Migrate-mode grows need the recurrence's live vectors; without a
  /// live() member every grow rolls back.
  static constexpr bool kMigrates =
      requires(Recurrence& r, ElasticDriver& d) { r.live(d); };

  /// All configuration is held by reference: the founders' inputs
  /// outlive the joiner threads because minimpi::run joins spawned
  /// ranks before returning.
  ElasticDriver(const sparse::CsrMatrix& global,
                const ResilienceOptions& resilience, const Config& config)
      : global_(global),
        resilience_(resilience),
        config_(config),
        rec_(config),
        fired_(resilience.grows.size(), 0) {}

  Result run(minimpi::Comm comm) {
    world_rank_ = comm.global_rank();
    op_.emplace(std::move(comm), global_, resilience_.threads,
                resilience_.variant, resilience_.engine);
    resize();
    rec_.start(*this);
    return loop();
  }

  /// Entry point for a spawned rank: `grown` is the communicator its
  /// joiner_main received; `plan_index` identifies the GrowPlan that
  /// spawned it. Joins the survivors' post-grow resync (the matching
  /// RecoverableSpmv joiner constructor already ran the migration
  /// collective) and then iterates like any founder.
  Result run_joiner(minimpi::Comm grown, std::size_t plan_index) {
    world_rank_ = grown.global_rank();
    op_.emplace(spmv::RecoverableSpmv::JoinerTag{}, std::move(grown),
                global_, resilience_.threads, resilience_.variant,
                resilience_.engine);
    grow_resync(/*joiner=*/true, resilience_.grows.at(plan_index));
    return loop();
  }

  // ---- What a recurrence uses ----

  /// The recurrence's vector: the owned part of the engine's input.
  [[nodiscard]] std::span<value_t> input() { return xd_->owned(); }
  /// A input(), computed in place in the owned part of the engine's
  /// output (valid until the next apply).
  std::span<value_t> apply() {
    stats_.transient_retries += op_->apply(*xd_, *yd_).retries;
    return yd_->owned();
  }
  double dot(std::span<const value_t> u, std::span<const value_t> v) {
    return op_->comm().allreduce(sparse::team_dot(*team_, u, v),
                                 minimpi::ReduceOp::kSum);
  }
  /// The current engine's team (re-read after every shrink and grow).
  [[nodiscard]] team::ThreadTeam& team() { return *team_; }
  [[nodiscard]] const minimpi::Comm& comm() const { return op_->comm(); }
  [[nodiscard]] sparse::index_t row_begin() const {
    return op_->matrix().row_begin();
  }
  [[nodiscard]] std::size_t rows() const {
    return static_cast<std::size_t>(op_->matrix().owned_rows());
  }
  [[nodiscard]] int iteration() const { return it_; }

 private:
  void resize() {
    xd_ = op_->make_vector();
    yd_ = op_->make_vector();
    team_ = &op_->engine().team();
    rec_.resize(*this);
  }

  void checkpoint() {
    // HSPMV-CHECK-ALLOW(first-touch): checkpoint scalar packing; cold
    std::vector<value_t> scalars;
    const auto vectors = rec_.checkpoint(*this, scalars);
    store_.save(op_->comm(), row_begin(), it_, vectors, scalars);
  }

  /// Restore the last complete checkpoint on the current membership and
  /// resume the recurrence from this rank's slices of it.
  void roll_back(bool joiner) {
    const auto restored = store_.restore_global(
        op_->comm(), global_.rows(), row_begin(),
        op_->matrix().owned_rows());
    if (!joiner) {
      stats_.iterations_lost += it_ - static_cast<int>(restored.iteration);
    }
    it_ = static_cast<int>(restored.iteration);
    resize();
    std::vector<std::span<const value_t>> slices;
    for (const auto& v : restored.vectors) {
      slices.push_back(
          std::span<const value_t>(v).subspan(row_begin(), rows()));
    }
    rec_.resume(*this, slices, restored.scalars);
  }

  /// Carry the live recurrence across a grow bitwise: its vectors follow
  /// their rows to the new owners (joiners contribute empty slices). No
  /// iterations are lost.
  void migrate(bool joiner) {
    using Live = decltype(rec_.live(*this));
    const Live old = joiner ? Live{} : rec_.live(*this);
    std::vector<std::vector<value_t>> moved;
    for (const std::span<value_t> v : old) {
      moved.push_back(op_->migrate_vector(v));
    }
    resize();
    const Live now = rec_.live(*this);
    for (std::size_t k = 0; k < now.size(); ++k) {
      std::copy(moved[k].begin(), moved[k].end(), now[k].begin());
    }
    // Committed checkpoint generations follow the membership change to
    // the new (rank+1) % size buddies.
    store_.remap(op_->comm());
  }

  /// Replicated control state, sent from new rank 0 (always an old
  /// member) so joiners adopt it: [iteration, one flag per grow plan,
  /// the recurrence's control() block]. Only rank 0 contributes to the
  /// allgatherv, so every member receives its block whatever its length.
  /// Survivors hold identical values already; overwriting them with rank
  /// 0's copies is a no-op by construction.
  void sync_control() {
    // HSPMV-CHECK-ALLOW(first-touch): replicated control block, sent once per grow; cold metadata
    std::vector<value_t> block;
    if (op_->comm().rank() == 0) {
      block.push_back(static_cast<value_t>(it_));
      block.insert(block.end(), fired_.begin(), fired_.end());
      // HSPMV-CHECK-ALLOW(first-touch): recurrence control block, sent once per grow; cold metadata
      const std::vector<value_t> control = rec_.control();
      block.insert(block.end(), control.begin(), control.end());
    }
    block = op_->comm().allgatherv(std::span<const value_t>(block));
    it_ = static_cast<int>(block.at(0));
    for (std::size_t i = 0; i < fired_.size(); ++i) {
      fired_[i] = block[1 + i] != 0.0 ? 1 : 0;
    }
    rec_.adopt_control(
        std::span<const value_t>(block).subspan(1 + fired_.size()));
  }

  /// The post-grow collective resync both sides run: survivors right
  /// after grow_and_rebuild, joiners right after their operator's
  /// migration constructor. Joiners first adopt the control state.
  /// Rollback mode then restores the last complete checkpoint on the
  /// grown membership, so from there on the solve is bitwise a calm run
  /// at the new size; a recurrence without live vectors always takes it.
  void grow_resync(bool joiner, const GrowPlan& plan) {
    util::Timer timer;
    sync_control();
    if constexpr (kMigrates) {
      if (!plan.rollback) migrate(joiner);
    }
    if (plan.rollback || !kMigrates) roll_back(joiner);
    // Replicate the current state to the new buddies right away: the
    // next failure must not depend on reaching the next scheduled
    // checkpoint.
    checkpoint();
    ++stats_.grows;
    count_rebuild();
    stats_.grow_seconds += timer.seconds();
  }

  /// Fire every not-yet-fired grow plan scheduled for the current
  /// iteration. All members scan the same plans with the same it_ and
  /// fired_ flags, so they agree on what fires without communicating.
  /// A rollback-mode grow rewinds it_, which can make earlier-indexed
  /// plans due again — hence the rescan — but a fired plan never
  /// re-fires.
  void maybe_grow() {
    for (std::size_t i = 0; i < resilience_.grows.size();) {
      const GrowPlan& plan = resilience_.grows[i];
      if (fired_[i] || plan.iteration != it_) {
        ++i;
        continue;
      }
      fired_[i] = 1;
      // The joiner builds its own driver from shared-const configuration
      // only: every survivor passes an equivalent closure to the spawn
      // rendezvous.
      op_->grow_and_rebuild(
          plan.ranks, [&global = global_, &resilience = resilience_,
                       config = config_, i](minimpi::Comm& grown) {
            ElasticDriver peer(global, resilience, config);
            Result result = peer.run_joiner(grown, i);
            const auto& deliver = resilience.*Recurrence::kOnJoinerResult;
            if (deliver) deliver(std::move(result));
          });
      grow_resync(/*joiner=*/false, plan);
      i = 0;
    }
  }

  void count_rebuild() {
    stats_.rows_migrated += op_->last_rebuild().rows_migrated;
    stats_.rows_full_replication += op_->last_rebuild().rows_full_replication;
  }

  /// Shrink-recovery retry loop: shrink, rebuild, restore, re-save; on
  /// another death mid-recovery run the whole recovery again under the
  /// new epoch. Returns false when this rank is the victim.
  bool recover(minimpi::FaultError fault) {
    util::Timer timer;
    for (int attempt = 0;; ++attempt) {
      // HSPMV-CHECK-ALLOW(divergent-collective): the victim rank is dead to the protocol; survivors shrink and rebuild the communicator before their next collective
      if (fault.rank() == world_rank_) return false;
      if (attempt >= resilience_.max_recoveries) throw fault;
      try {
        op_->shrink_and_rebuild();
        count_rebuild();
        roll_back(/*joiner=*/false);
        // Re-save under the new buddy mapping right away: the next
        // failure must not depend on reaching the next checkpoint.
        checkpoint();
        ++stats_.failures_recovered;
        break;
      } catch (const CheckpointLostError&) {
        throw;
      } catch (const minimpi::FaultError& again) {
        if (again.kind() == minimpi::FaultKind::kTransient) throw;
        fault = again;
      }
    }
    stats_.recovery_seconds += timer.seconds();
    return true;
  }

  Result loop() {
    while (!rec_.converged() && it_ < config_.options.max_iterations) {
      try {
        maybe_grow();
        if (rec_.converged()) break;
        // Checkpoint before the planned-failure hook fires: a victim
        // dying at a checkpoint iteration commits its slice to the buddy
        // first, so that iteration (not the previous one) is restorable.
        if (it_ % resilience_.checkpoint_interval == 0) checkpoint();
        for (const FailurePlan& plan : resilience_.failures) {
          if (plan.rank == world_rank_ && plan.iteration == it_) {
            op_->comm().simulate_rank_failure();
          }
        }
        rec_.step(*this);
        ++it_;
      } catch (const minimpi::FaultError& fault) {
        if (fault.kind() == minimpi::FaultKind::kTransient) throw;
        if (!recover(fault)) {
          // This rank was killed: leave quietly, the others carry on.
          stats_.survivor = false;
          break;
        }
      }
    }
    if (stats_.survivor) {
      stats_.final_size = op_->comm().size();
      rec_.finish(*this);
    }
    rec_.out.recovery = stats_;
    return std::move(rec_.out);
  }

  // Configuration (shared by reference with joiner drivers).
  const sparse::CsrMatrix& global_;
  const ResilienceOptions& resilience_;
  Config config_;

  // Per-rank protocol state.
  Recurrence rec_;
  RecoveryStats stats_;
  int world_rank_ = -1;
  std::optional<spmv::RecoverableSpmv> op_;
  BuddyCheckpoint store_;
  std::optional<spmv::DistVector> xd_, yd_;
  team::ThreadTeam* team_ = nullptr;
  int it_ = 0;
  std::vector<char> fired_;  ///< one flag per ResilienceOptions::grows entry
};

}  // namespace hspmv::solvers::detail
