// Fault-tolerant solver infrastructure: buddy checkpointing and the
// recovery options/statistics shared by the resilient drivers.
//
// The recovery model (docs/resilience.md) is checkpoint/restart over
// shrinking communicators. Every K iterations each rank snapshots its
// owned vector slices plus the replicated scalar state, keeps the
// snapshot in memory, and replicates it to a buddy (rank+1 mod size) —
// so any single rank's state survives that rank. On a permanent fault
// the survivors shrink the communicator (ULFM-style), deterministically
// repartition, reassemble the last complete checkpoint from own + buddy
// snapshots (pulling a dead rank's slice from its buddy), roll the
// iteration back, and continue. Losing a buddy *pair* between two
// checkpoints loses a slice for good: restore throws
// CheckpointLostError and the driver gives up.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "minimpi/comm.hpp"
#include "solvers/cg.hpp"
#include "solvers/lanczos.hpp"
#include "spmv/engine.hpp"

namespace hspmv::solvers {

/// A planned permanent failure: kill world rank `rank` when it reaches
/// iteration `iteration` (CLI syntax "<rank>:<iteration>").
struct FailurePlan {
  int rank = -1;
  int iteration = 0;
};

/// Parse the CLI syntax "<rank>:<iteration>" (e.g. "2:7"). Throws
/// std::invalid_argument on malformed input or negative fields.
[[nodiscard]] FailurePlan parse_failure_plan(const std::string& spec);

/// A planned capacity expansion: when the driver reaches iteration
/// `iteration`, spawn `ranks` fresh ranks (Comm::spawn), incrementally
/// repartition onto the grown communicator, and continue. Each plan
/// fires at most once — a rollback through its iteration does not
/// re-trigger it (CLI syntax "<iteration>:+<ranks>").
struct GrowPlan {
  int iteration = 0;
  int ranks = 1;
  /// When true the grown membership restores the last complete
  /// checkpoint and rolls the iteration back (same protocol as failure
  /// recovery), so the continuation is bitwise a calm run at the new
  /// size from that checkpoint onward. When false the live recurrence
  /// state migrates across (migrate_vector) and the solve resumes at
  /// the same iteration — cheaper, but the post-grow dot products
  /// re-associate, so equivalence to a calm run is numerical only.
  bool rollback = false;
};

/// Parse the CLI syntax "<iteration>:+<ranks>" (e.g. "20:+2"); an "!"
/// suffix requests rollback mode ("20:+2!"). Throws
/// std::invalid_argument on malformed input or non-positive ranks.
[[nodiscard]] GrowPlan parse_grow_plan(const std::string& spec);

struct ResilientCgResult;
struct ResilientLanczosResult;

/// Knobs of the resilient drivers. Plans must satisfy the parsers' rules
/// (failure: rank, iteration >= 0; grow: iteration >= 0, ranks >= 1).
struct ResilienceOptions {
  /// Checkpoint every this many iterations (a bootstrap checkpoint at
  /// iteration 0 always happens). Larger: less overhead, more
  /// iterations lost per failure. Must be >= 1.
  int checkpoint_interval = 10;
  /// Permanent failures survived before the driver gives up and lets
  /// the FaultError escape.
  int max_recoveries = 8;
  /// Injected permanent failures (world ranks; fire once each).
  std::vector<FailurePlan> failures;
  /// Planned capacity expansions (fire once each, in order).
  std::vector<GrowPlan> grows;
  /// Invoked (on the joiner's thread) with each spawned rank's result
  /// when it finishes; null discards joiner results. The callback must
  /// stay valid until the founding ranks' drivers return.
  std::function<void(ResilientCgResult)> on_joiner_result;
  /// Same, for the resilient Lanczos driver.
  std::function<void(ResilientLanczosResult)> on_joiner_lanczos_result;
  /// Distributed-engine shape. `engine.retry` is the transient-fault
  /// policy of the halo exchange.
  spmv::Variant variant = spmv::Variant::kVectorNoOverlap;
  spmv::EngineOptions engine;
  int threads = 2;  ///< team size per rank (>= 2 for task mode)
};

/// What recovery cost, per rank.
struct RecoveryStats {
  int failures_recovered = 0;   ///< completed shrink+restore cycles
  int grows = 0;                ///< completed spawn+rebuild cycles
  int iterations_lost = 0;      ///< sum of rollback distances
  std::int64_t transient_retries = 0;  ///< halo-exchange reposts (Timings)
  /// Rows that actually travelled across all topology changes (shrinks
  /// and grows), versus what the pre-elastic full re-replication path
  /// would have touched (global rows per change). The incremental
  /// repartitioner keeps the former strictly below the latter whenever
  /// any row survives in place.
  std::int64_t rows_migrated = 0;
  std::int64_t rows_full_replication = 0;
  double recovery_seconds = 0.0;       ///< wall clock inside recovery
  double grow_seconds = 0.0;           ///< wall clock inside grow+resync
  /// False on a killed rank: its driver returns early with whatever
  /// partial result it had; only survivors carry the solution.
  bool survivor = true;
  int final_size = 0;  ///< communicator size at the end
};

/// A checkpoint slice that no survivor holds — the buddy pair died
/// within one checkpoint interval. Unrecoverable by design.
class CheckpointLostError : public minimpi::FaultError {
 public:
  CheckpointLostError(std::uint64_t epoch, const std::string& message)
      : minimpi::FaultError(minimpi::FaultKind::kPermanent, -1, epoch,
                            message) {}
};

/// In-memory buddy-checkpoint store (one per rank, lives in the rank's
/// driver). Holds the two latest committed generations of this rank's
/// snapshot and of its buddy's — the previous generation covers the
/// window where a failure interrupts a save round after some ranks
/// committed and before others did.
///
/// Every snapshot is stamped with the failure epoch of the communicator
/// it was saved under. The (rank+1) % size buddy mapping is only
/// meaningful within one topology: after a shrink or grow the same rank
/// numbers denote different members and different row slices, so
/// restore groups candidate generations by (epoch, iteration) — slices
/// from different topologies can never be stitched into one restored
/// state — and remap() re-replicates committed snapshots to the buddies
/// of the *new* topology.
class BuddyCheckpoint {
 public:
  /// Loosely collective over `comm`: snapshot `vectors` (owned slices of
  /// equal length starting at global row `row_begin`) plus `scalars`
  /// (replicated, identical on every rank), then exchange with the
  /// buddies ((rank+1) % size receives mine). The snapshot is stamped
  /// with comm.epoch(). Commits atomically: a FaultError during the
  /// exchange leaves the previous generations untouched.
  void save(const minimpi::Comm& comm, sparse::index_t row_begin,
            std::int64_t iteration,
            const std::vector<std::span<const sparse::value_t>>& vectors,
            std::span<const sparse::value_t> scalars);

  struct Restored {
    std::int64_t iteration = 0;
    /// Full global vectors, reassembled from the slices.
    std::vector<std::vector<sparse::value_t>> vectors;
    // HSPMV-CHECK-ALLOW(first-touch): checkpoint scalar block; cold metadata
    std::vector<sparse::value_t> scalars;
  };

  /// Collective over the current communicator (shrunk survivors or
  /// grown membership): gather every member's snapshots, pick the best
  /// (iteration, epoch) generation whose slices tile [0, global_rows)
  /// completely — newest iteration first, newest epoch breaking ties —
  /// and reassemble it. Slices from different epochs never mix: a
  /// generation saved before a topology change is restored whole or not
  /// at all. Also reseeds this store: the caller's new slice
  /// [row_begin, row_begin + local_rows) of the restored state becomes
  /// the sole committed snapshot (buddy replication happens at the
  /// caller's next save), so an interrupted recovery can restore again.
  /// Throws CheckpointLostError when no complete generation survives.
  [[nodiscard]] Restored restore_global(const minimpi::Comm& comm,
                                        sparse::index_t global_rows,
                                        sparse::index_t row_begin,
                                        sparse::index_t local_rows);

  /// Collective over the *new* communicator after a topology change
  /// that kept this rank's own slice (e.g. a grow that migrated state
  /// with migrate_vector instead of rolling back): re-exchange the
  /// committed own generations with the new (rank+1) % size buddies, so
  /// the single-rank-loss guarantee holds again under the new
  /// membership. The old buddy slots are discarded — they belong to a
  /// topology that no longer exists.
  void remap(const minimpi::Comm& comm);

 private:
  struct Snapshot {
    std::int64_t row_begin = 0;
    std::int64_t iteration = -1;  ///< -1: empty slot
    std::int64_t epoch = 0;       ///< comm.epoch() at save time
    // HSPMV-CHECK-ALLOW(first-touch): checkpoint slice storage; written and read by the calling thread
    std::vector<sparse::value_t> data;  ///< vectors * slice_len, packed
    // HSPMV-CHECK-ALLOW(first-touch): checkpoint scalar block; cold metadata
    std::vector<sparse::value_t> scalars;
    std::int64_t slice_len = 0;
    std::int64_t vector_count = 0;

    [[nodiscard]] bool empty() const { return iteration < 0; }
  };

  static void serialize(const Snapshot& snapshot,
                        std::vector<sparse::value_t>& out);
  static std::vector<Snapshot> parse_stream(
      std::span<const sparse::value_t> stream);

  Snapshot own_, buddy_, own_prev_, buddy_prev_;
};

// ---- resilient drivers ----
// Both are recurrences under one ElasticDriver (elastic_driver.hpp): it
// runs the iteration on a RecoverableSpmv operator, catches FaultError,
// shrinks + rebuilds + restores + rolls back, grows on plan, and
// continues to convergence. A killed rank returns early with survivor
// == false. Both entry points reject invalid ResilienceOptions (see its
// field comments) with std::invalid_argument before any collective.

struct ResilientCgResult {
  CgResult cg;
  RecoveryStats recovery;
  /// Replicated global solution (survivors; empty on a killed rank).
  // HSPMV-CHECK-ALLOW(first-touch): restored global vector on the recovery path; rebuilt engines re-place hot data
  std::vector<sparse::value_t> x;
};

/// Solve `global` x = b (b replicated, global.rows() entries) with
/// fault-tolerant distributed CG. Collective over `comm`.
ResilientCgResult resilient_cg(minimpi::Comm comm,
                               const sparse::CsrMatrix& global,
                               std::span<const sparse::value_t> b,
                               const ResilienceOptions& resilience = {},
                               const CgOptions& options = {});

struct ResilientLanczosResult {
  LanczosResult lanczos;
  RecoveryStats recovery;
};

/// Extremal eigenvalues of symmetric `global` with fault-tolerant
/// distributed Lanczos. The start vector is derived per global row from
/// options.seed, so it is independent of the partition (and of rank
/// failures). Collective over `comm`.
ResilientLanczosResult resilient_lanczos(
    minimpi::Comm comm, const sparse::CsrMatrix& global,
    const ResilienceOptions& resilience = {},
    const LanczosOptions& options = {});

}  // namespace hspmv::solvers
