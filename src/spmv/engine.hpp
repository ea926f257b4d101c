// The three distributed spMVM execution strategies of the paper (Fig. 4):
//
//  (a) vector mode, no overlap   — Irecv; gather; Isend; Waitall; full
//      spMVM over all elements.
//  (b) vector mode, naive overlap — Irecv; gather; Isend; spMVM of the
//      *local* elements; Waitall; spMVM of the non-local elements. With
//      deferred progress (standard MPI) the communication does NOT
//      overlap the local compute — it happens inside Waitall — and the
//      split kernel pays Eq. (2)'s extra result-vector traffic.
//  (c) task mode, explicit overlap — a dedicated communication thread
//      executes Isend/Waitall while the remaining threads run the local
//      spMVM; work is distributed explicitly (contiguous nonzero chunks
//      per compute thread), since OpenMP has no subteams.
//
// The node-level compute phase of every variant runs through a pluggable
// LocalKernel backend: CRS (the paper's format) or SELL-C-sigma
// (Kreutzer et al., arXiv:1112.5588) — both support the full sweep and
// the split local/non-local pair, so the overlap strategies compose with
// either storage format.
//
// Halo data movement is locality-aware on both sides. Send: the gather
// into the packed buffers runs team-parallel (GatherSchedule splits the
// flattened element space, so one huge peer block still spreads across
// threads). Receive: there is no unpack step at all — each peer's halo
// run is contiguous in the [owned | halo] RHS segment (CommPlan invariant),
// so irecv targets the final x.halo() subspan directly and the kernels
// read received values in place. Storage follows first-touch placement:
// matrix arrays, send buffers, and (via make_vector) the vectors are
// paged where their streaming thread lives.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "spmv/dist_matrix.hpp"
#include "spmv/dist_vector.hpp"
#include "spmv/multi_vector.hpp"
#include "spmv/retry.hpp"
#include "team/range_check.hpp"
#include "team/thread_team.hpp"
#include "util/aligned.hpp"
#include "util/timeline.hpp"

namespace hspmv::spmv {

enum class Variant {
  kVectorNoOverlap,
  kVectorNaiveOverlap,
  kTaskMode,
};

/// Storage format of the node-level compute phase. kAuto defers the
/// choice to the per-matrix autotuner (spmv/autotune.hpp): the engine
/// resolves it to a concrete (backend, C, sigma, schedule) configuration
/// at rebuild() time, per EngineOptions::tune.
enum class LocalBackend {
  kCsr,
  kSell,
  kAuto,
};

/// "csr" -> kCsr, "sell" -> kSell, "auto" -> kAuto; throws
/// std::invalid_argument otherwise.
LocalBackend parse_backend(const std::string& name);
const char* backend_name(LocalBackend backend);

/// How a kAuto engine resolves its configuration (the --tune flag).
enum class TuneMode {
  kOff,     ///< no timing, no cache IO: deterministic code-balance model pick
  kCached,  ///< consult the tuning cache; timed sweep only on a miss, persist
  kForce,   ///< always re-run the timed sweep and overwrite the cache entry
};

/// "off" -> kOff, "cached" -> kCached, "force" -> kForce; throws
/// std::invalid_argument otherwise.
TuneMode parse_tune_mode(const std::string& name);
const char* tune_mode_name(TuneMode mode);

/// One concrete node-level kernel configuration — what the autotuner
/// sweeps and what a kAuto engine resolves to.
struct TunedConfig {
  LocalBackend backend = LocalBackend::kCsr;
  int sell_chunk = 32;       ///< SELL-C-sigma chunk height C (ignored for CSR)
  int sell_sigma = 1;        ///< SELL sorting window (ignored for CSR)
  /// Thread schedule of the local sweeps: nonzero/slot-balanced
  /// contiguous chunks (true, the engine's historical distribution) or
  /// uniform row/chunk counts per worker (OpenMP schedule(static)).
  bool nnz_balanced = true;
};

/// Engine construction knobs beyond the (matrix, threads, variant) core.
struct EngineOptions {
  LocalBackend backend = LocalBackend::kCsr;
  int sell_chunk = 32;   ///< SELL-C-sigma chunk height C
  int sell_sigma = 256;  ///< SELL-C-sigma sorting window
  /// kAuto resolution policy (ignored for explicit backends).
  TuneMode tune = TuneMode::kCached;
  /// Tuning-cache file for kAuto. Empty = autotune::default_cache_path()
  /// (HSPMV_TUNING_CACHE env var, else ~/.cache/hspmv/tuning-v1.json).
  std::string tuning_cache;
  /// Thread schedule of the kernel sweeps (see TunedConfig::nnz_balanced);
  /// a kAuto engine takes the autotuned value instead.
  bool nnz_balanced = true;
  /// Team-parallel send-buffer gather in the vector-mode variants
  /// (element-balanced via GatherSchedule). Off = the historical serial
  /// loop on thread 0. Either way the buffers hold identical bytes.
  bool parallel_gather = true;
  /// NUMA first-touch placement of the local matrix block and send
  /// buffers: pages are touched by the team member that later streams
  /// them (same nnz-balanced boundaries the kernels use). Results are
  /// bitwise-unchanged; only page placement differs.
  bool first_touch = true;
  /// Debug-mode write-range race detector: every parallel phase (gather,
  /// first-touch fills, kernel sweeps) registers the element ranges each
  /// team member writes, and the engine asserts pairwise disjointness and
  /// full coverage at the phase's closing barrier. Off by default — the
  /// bookkeeping serializes on a mutex.
  team::RangeCheckOptions range_check;
  /// Transient-fault retry of the halo exchange (see retry.hpp). Off by
  /// default: the engine waits with one wait_all and any fault escalates
  /// unchanged.
  RetryPolicy retry;
};

/// Node-level compute backend: runs one worker's share of the local row
/// block, as the full sweep or the split local/non-local pair. A worker's
/// share (contiguous rows for CRS, contiguous chunks for SELL, balanced
/// by nonzeros/slots) is fixed at construction, so both split phases of a
/// row always execute on the same worker and the sweeps are race-free.
class LocalKernel {
 public:
  virtual ~LocalKernel() = default;

  /// y(rows of worker's share) = A x over all entries.
  virtual void full(int worker, std::span<const sparse::value_t> x,
                    std::span<sparse::value_t> y) const = 0;
  /// y(share) = A x over entries with column < local_cols.
  virtual void local(int worker, std::span<const sparse::value_t> x,
                     std::span<sparse::value_t> y) const = 0;
  /// y(share) += A x over entries with column >= local_cols.
  virtual void nonlocal(int worker, std::span<const sparse::value_t> x,
                        std::span<sparse::value_t> y) const = 0;

  /// Blocked multi-RHS (SpMM) sweeps: x and y hold `width` interleaved
  /// columns per row (MultiVector layout). Same shares as the
  /// single-vector sweeps, so row_boundaries()/write_ranges() describe
  /// the blocked writes too (claims are in row space); column q of the
  /// block is bitwise-identical to the single-vector kernel on column q.
  virtual void full_block(int worker, int width,
                          std::span<const sparse::value_t> x,
                          std::span<sparse::value_t> y) const = 0;
  virtual void local_block(int worker, int width,
                           std::span<const sparse::value_t> x,
                           std::span<sparse::value_t> y) const = 0;
  virtual void nonlocal_block(int worker, int width,
                              std::span<const sparse::value_t> x,
                              std::span<sparse::value_t> y) const = 0;

  /// Owned-row boundaries of the worker shares (workers+1 entries): the
  /// rows worker w writes lie in [b[w], b[w+1]). For SELL this is the
  /// chunk-granular approximation (writes un-permute within a sigma
  /// window). Used to first-touch result/RHS storage where it is written.
  [[nodiscard]] virtual std::vector<std::int64_t> row_boundaries() const = 0;

  /// The *exact* owned-row indices worker w's sweeps write, as sorted
  /// disjoint half-open ranges. The default derives the single contiguous
  /// range from row_boundaries(); SELL overrides it because a sigma
  /// window crossing a worker boundary interleaves rows of neighbouring
  /// workers. Consumed by the write-range race detector.
  [[nodiscard]] virtual std::vector<team::Range> write_ranges(
      int worker) const;
};

/// Build the backend for `matrix`'s local block, distributing work over
/// `workers` shares. SELL parameters are ignored by the CSR backend.
/// With `place_team` non-null the backend's arrays are re-placed by NUMA
/// first-touch: team member `party_offset + w` copies worker w's share
/// (task mode passes 1 — member 0 is the communication thread).
/// `nnz_balanced` selects the worker-share schedule (TunedConfig field).
/// `backend` must be concrete — pass a resolved configuration, not kAuto.
std::unique_ptr<LocalKernel> make_local_kernel(const DistMatrix& matrix,
                                               LocalBackend backend,
                                               int workers, int sell_chunk,
                                               int sell_sigma,
                                               team::ThreadTeam* place_team =
                                                   nullptr,
                                               int party_offset = 0,
                                               bool nnz_balanced = true);

/// Wall-clock phase attribution of one apply(). Phases overlap in task
/// mode, so the sum can exceed total_s there. gather_s is the max over
/// participating threads (each times its own share) in every variant.
struct Timings {
  double gather_s = 0.0;
  double comm_s = 0.0;       ///< time inside Waitall (plus Isend posting)
  double local_s = 0.0;      ///< local/full compute phase (max over threads)
  double nonlocal_s = 0.0;
  double total_s = 0.0;

  /// Measured communication volume of this rank's halo exchange — the
  /// LIKWID-style counters to hold against TrafficEstimate. Exact (from
  /// the communication plan), identical every apply(); operator+= sums
  /// them like the times, so per-apply averages divide the same way.
  std::int64_t bytes_sent = 0;
  std::int64_t bytes_received = 0;
  std::int64_t halo_elements = 0;  ///< elements received into the halo
  std::int64_t messages = 0;       ///< sends + receives posted
  /// Transient-fault reposts performed by the retry policy (0 unless
  /// EngineOptions::retry is enabled and faults were injected).
  std::int64_t retries = 0;

  /// The node-level kernel configuration that produced this timing (the
  /// engine's resolved TunedConfig — reports what kAuto actually chose).
  /// operator+= copies these from the right-hand side instead of summing:
  /// accumulated timings keep the configuration of the applies they sum.
  LocalBackend backend = LocalBackend::kCsr;
  int sell_chunk = 0;  ///< 0 until an apply() stamps the configuration
  int sell_sigma = 0;

  /// Elastic-topology accounting, stamped by RecoverableSpmv::apply():
  /// rows the most recent incremental rebuild actually moved between
  /// ranks, against the global row count a full re-replication would
  /// have re-extracted. 0/0 until a topology change happens. Copied from
  /// the right-hand side by operator+= like the configuration fields —
  /// accumulated timings report the latest topology's migration cost.
  std::int64_t rows_migrated = 0;
  std::int64_t rows_full_replication = 0;

  Timings& operator+=(const Timings& other);
};

class SpmvEngine {
 public:
  /// `threads`: team size per rank. Task mode needs >= 2 (one
  /// communication thread + at least one worker).
  SpmvEngine(const DistMatrix& matrix, int threads, Variant variant,
             EngineOptions options = {});

  /// y(owned) = A * x. x's halo segment is overwritten with fresh remote
  /// values. Collective across the matrix's communicator.
  Timings apply(DistVector& x, DistVector& y);

  /// Blocked apply: y(owned block) = A * x for width() right-hand sides
  /// at once, through the same variant (including task-mode overlap).
  /// The halo exchange moves width values per boundary element — each
  /// peer's K-wide block is one contiguous message — and the kernels run
  /// the blocked sweeps, amortizing matrix traffic over the columns.
  /// Column q of the result is bitwise-identical to the single-vector
  /// apply on column q. x and y must share the same width.
  Timings apply(MultiVector& x, MultiVector& y);

  /// Re-target the engine at a different DistMatrix — the recovery path
  /// after a communicator shrink (the new matrix lives on the shrunk
  /// comm with repartitioned rows). Rebuilds the kernel shares, send
  /// buffers, and gather schedules exactly as construction does; the
  /// thread team, variant, and options persist. `matrix` must outlive
  /// the engine. Vectors from make_vector() of the old matrix are
  /// incompatible — make fresh ones.
  void rebuild(const DistMatrix& matrix);

  /// A zero DistVector for this engine's matrix with NUMA-placed storage:
  /// each team member first-touches the row slice its kernel share will
  /// write/stream (plain un-placed construction when first_touch is off).
  [[nodiscard]] DistVector make_vector();

  /// A zero MultiVector of `width` columns with the same NUMA placement
  /// policy as make_vector() (row slices first-touched by their kernel
  /// share's thread, scaled by width).
  [[nodiscard]] MultiVector make_multi_vector(int width);

  [[nodiscard]] Variant variant() const { return variant_; }
  /// The *resolved* backend: for a kAuto engine this is what the tuner
  /// chose (never kAuto itself).
  [[nodiscard]] LocalBackend backend() const { return tuned_.backend; }
  /// The full resolved node-level configuration (== the options for
  /// explicit backends).
  [[nodiscard]] const TunedConfig& tuned_config() const { return tuned_; }
  [[nodiscard]] int threads() const { return team_.size(); }
  [[nodiscard]] int compute_threads() const { return compute_threads_; }
  /// The rank's thread team, for a solver's vector phase between
  /// applies (the paper's vector mode: the team runs every loop outside
  /// the MPI calls). Not to be used while an apply() is running.
  [[nodiscard]] team::ThreadTeam& team() { return team_; }

  /// Attach a timeline recorder (nullptr to detach): every phase of each
  /// team thread is recorded as a span on lane "<prefix>t<id>" — the
  /// measured counterpart of the paper's Fig. 4 schematics.
  void set_trace(util::Timeline* trace, std::string lane_prefix = "");

  /// Model-based per-apply traffic accounting for this rank (the
  /// LIKWID-counter analogue): minimum memory bytes per Eq. 1/2 plus the
  /// exact halo-exchange bytes from the communication plan. For a
  /// blocked apply pass its width: the vector, extra-C, and
  /// communication terms scale by K while the matrix streams once — the
  /// amortization B_SpMM(K) models.
  struct TrafficEstimate {
    double matrix_bytes = 0.0;   ///< val + col_idx + row_ptr streaming
    double vector_bytes = 0.0;   ///< B first load + C write-allocate/evict
    double extra_c_bytes = 0.0;  ///< Eq. 2's second result-vector sweep
    double comm_recv_bytes = 0.0;
    double comm_send_bytes = 0.0;
    int messages = 0;

    [[nodiscard]] double kernel_bytes() const {
      return matrix_bytes + vector_bytes + extra_c_bytes;
    }
  };
  [[nodiscard]] TrafficEstimate traffic_estimate(int width = 1) const;

  /// The write-range race detector (inert unless EngineOptions::range_check
  /// enabled it). Tests read its diagnostics after apply().
  [[nodiscard]] const team::WriteRangeChecker& range_checker() const {
    return range_checker_;
  }

 private:
  /// One apply()'s operands, width-agnostic: DistVector (width 1) and
  /// MultiVector run the same exchange and kernel code through this.
  struct ApplyView {
    std::span<sparse::value_t> x_owned;
    std::span<sparse::value_t> x_full;
    std::span<sparse::value_t> x_halo;
    std::span<sparse::value_t> y_owned;
    int width = 1;
  };

  /// Flattened send-element offset of block s (send_blocks.size()+1
  /// entries) — maps a (block, element) gather span onto the single
  /// [0, total_send_elements) domain the range checker validates.
  /// Blocked applies scale claims by width (one claim unit per value).
  [[nodiscard]] std::vector<std::int64_t> send_block_offsets() const;

  /// Register worker w's kernel write ranges with the checker.
  void claim_kernel_writes(const std::string& phase, int worker);

  /// The packed send buffers serving `width` (send_buffers_ for 1,
  /// block_send_buffers_ otherwise).
  [[nodiscard]] std::vector<util::FirstTouchVector<sparse::value_t>>&
  buffers_for(int width);
  /// (Re)allocate + first-touch `buffers` at gather.size() * width
  /// elements per send block.
  void place_send_buffers(
      std::vector<util::FirstTouchVector<sparse::value_t>>& buffers,
      int width);
  /// Size block_send_buffers_ for `width`, lazily on the first blocked
  /// apply of that width (the K=1 buffers keep their placement).
  void ensure_block_buffers(int width);

  void post_recvs(const ApplyView& v,
                  std::vector<minimpi::Request>& requests);
  void gather_block(const SendBlock& block,
                    std::span<const sparse::value_t> owned, std::size_t slot,
                    int width);
  void post_sends(const ApplyView& v,
                  std::vector<minimpi::Request>& requests);

  /// Dispatch a kernel phase at the view's width.
  void kernel_full(int worker, const ApplyView& v) const;
  void kernel_local(int worker, const ApplyView& v) const;
  void kernel_nonlocal(int worker, const ApplyView& v) const;

  /// Complete the posted exchange. Without a retry policy this is one
  /// wait_all; with one it polls the requests, reposts transiently
  /// faulted ones (bounded attempts, exponential backoff), and counts
  /// the reposts into `retries`. Permanent faults always rethrow.
  void wait_exchange(const ApplyView& v,
                     std::vector<minimpi::Request>& requests,
                     std::int64_t& retries);

  /// Repost request `index` of the [recvs | sends] exchange vector.
  void repost_request(const ApplyView& v,
                      std::vector<minimpi::Request>& requests,
                      std::size_t index);

  Timings apply_view(const ApplyView& v);
  Timings apply_vector(const ApplyView& v, bool naive_overlap);
  Timings apply_task_mode(const ApplyView& v);

  /// Never null; repointed by rebuild() after a communicator shrink.
  const DistMatrix* matrix_;
  Variant variant_;
  EngineOptions options_;
  /// Concrete kernel configuration: options_' backend fields, or the
  /// autotuner's pick when options_.backend is kAuto. Set by rebuild().
  TunedConfig tuned_;
  team::ThreadTeam team_;
  int compute_threads_;
  /// Format-pluggable node-level compute, one share per compute thread.
  std::unique_ptr<LocalKernel> kernel_;
  /// One packed buffer per send block (first-touched by the gathering
  /// threads when options_.first_touch).
  std::vector<util::FirstTouchVector<sparse::value_t>> send_buffers_;
  /// Blocked-apply counterpart: gather.size() * width values per block,
  /// sized for the most recent blocked width (0 = none yet). Kept apart
  /// from send_buffers_ so blocked applies never disturb the K=1
  /// buffers' first-touch placement.
  std::vector<util::FirstTouchVector<sparse::value_t>> block_send_buffers_;
  int block_width_ = 0;
  /// Element-balanced split of the vector-mode gather over the full team.
  GatherSchedule gather_schedule_;
  /// Task-mode split over the workers only (member 0 does MPI).
  GatherSchedule task_gather_schedule_;
  util::Timeline* trace_ = nullptr;
  std::string trace_prefix_;
  /// Debug-mode write-range recorder (default-constructed = inert).
  team::WriteRangeChecker range_checker_;
};

}  // namespace hspmv::spmv
