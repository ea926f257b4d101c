// Layer measurements taken from outside the library: the host reference
// (STREAM triad sized from the LLC, the Eq. 1 code balance, the plain
// serial CRS kernel), ThreadTeam fork/join, idle Comm::allreduce, and
// the ledger derived from the Timings that SpmvEngine::apply returns.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "minimpi/comm.hpp"
#include "minimpi/types.hpp"
#include "shape.hpp"
#include "sparse/csr.hpp"
#include "spmv/engine.hpp"

namespace e2e {

class Report;
class Tracer;

/// Collective: hand memory the process freed back to the OS (glibc
/// malloc_trim), so that each repeated set-up pays its first-touch page
/// faults as a first set-up in a fresh process does, instead of reusing
/// whatever the previous one left in the heap.
void release_freed_memory(const hspmv::minimpi::Comm& comm);

/// Collective: `count` timed set-ups. Each runs `teardown` (dropping the
/// previous one), releases freed memory, then times `build` between
/// barriers inside a "setup" span; rank 0 appends the seconds to `out`.
void timed_setups(const hspmv::minimpi::Comm& comm, int count,
                  Tracer* tracer, std::vector<double>& out,
                  const std::function<void()>& teardown,
                  const std::function<void()>& build);

/// spmv.setup.partition_s / .dist_matrix_s / .engine_s: medians of the
/// spans Shape::build (or the caller) recorded; `engine_span` names the
/// constructor span (SpmvEngine or SpmvServer).
void add_setup_spans(Report& report, const Tracer& tracer,
                     const std::string& engine_span);

/// Size of the last-level cache read from sysfs (cpu0), 0 if unknown.
std::uint64_t llc_bytes();
/// Peak resident set size of this process so far, in MB (1e6 bytes).
double peak_rss_mb();

struct HostReference {
  double triad_t1_gbs = 0.0;  ///< STREAM triad incl. write-allocate, 1 thread
  double triad_t4_gbs = 0.0;  ///< same with 4 threads
};

/// perfmodel.triad_gbs.t1/.t4 with each array at least 4x the LLC
/// (shrunk, with a note, only if that would exceed half of the memory
/// the host reports available).
HostReference measure_triad(Report& report);

/// perfmodel.b_crs (Eq. 1, kappa = 0) and perfmodel.roofline_gflops
/// (triad t4 / B_CRS) for a matrix with `nnzr`.
void add_model_metrics(Report& report, const HostReference& host,
                       double nnzr);

/// sparse.serial_gflops / sparse.serial_roofline_eff: plain
/// single-threaded sparse::spmv on `a`. Returns the median seconds per
/// spMVM (the HPC baseline the parallel efficiency divides).
double add_serial_baseline(Report& report, const HostReference& host,
                           const hspmv::sparse::CsrMatrix& a, double seconds);

/// team.fork_join_us.p50/.tail: ThreadTeam::execute with an empty body.
void add_team_fork_join(Report& report, int team_size, int calls);

/// spmv.* from per-apply Timings of rank 0: phase medians, the
/// unattributed share, kernel bandwidth and efficiencies, exact halo
/// counters (summed over ranks by the caller into the two totals).
/// Also runs the reconcile self-checks against `outside_s`.
struct EngineLedgerInput {
  std::vector<hspmv::spmv::Timings> timings;  ///< rank 0, one per apply
  /// The same applies timed from outside (around op.apply or a bare
  /// engine.apply), one per entry of `timings`.
  std::vector<double> outside_s;
  double kernel_bytes_all_ranks = 0.0;  ///< traffic_estimate().kernel_bytes()
  std::int64_t halo_bytes_all_ranks = 0;  ///< bytes sent per apply
  std::int64_t messages_all_ranks = 0;    ///< messages per apply
  double serial_s = 0.0;                  ///< serial spMVM time
  int cores = 4;                          ///< ranks x threads
};
void add_engine_ledger(Report& report, const HostReference& host,
                       const EngineLedgerInput& in);

/// solvers.* shares, minimpi.allreduce_* and minimpi.wait_share, derived
/// from the spans of the traced solves named `solve_span` (op.apply,
/// op.dot, minimpi.allreduce beneath them), plus trace.overhead_share
/// from solves timed with recording on versus off. Runs the self-check
/// that each traced solve's span self-times lie within the same solve
/// timed from outside, and its op.apply and op.dot spans within the
/// probe's own samples of that solve.
struct SolverLedgerInput {
  std::string solve_span;
  std::vector<double> traced_solve_s;
  std::vector<double> untraced_solve_s;
  /// Every probed solve timed from outside, indexed by the solve id its
  /// span carries; the probe's sample counts after each of those solves.
  std::vector<double> outside_solve_s;
  std::vector<std::size_t> apply_marks;
  std::vector<std::size_t> dot_marks;
  const OperatorProbe* probe = nullptr;
  double idle_allreduce_s = 0.0;
  int iterations = 0;  ///< exact, from the fixed-work run
};
void add_solver_ledger(Report& report, const Tracer& tracer,
                       const SolverLedgerInput& in);

/// What a workload's fixed-work minimpi::run measured, per rank: the
/// Timings of one direct apply (exact halo counters) and the model kernel
/// bytes of that apply; plus the run's exact RunStats.
struct FixedWork {
  std::vector<hspmv::spmv::Timings> direct;
  std::vector<double> kernel_bytes;
  hspmv::minimpi::RunStats stats;
};

/// The ledger every workload shares: host reference (triad, Eq. 1,
/// serial CRS), team fork/join at `threads`, the engine ledger from rank
/// 0's `timings` (each apply carrying `vectors_per_apply` right-hand
/// sides) and the exact minimpi counts.
void add_host_and_engine_ledger(
    Report& report, const hspmv::sparse::CsrMatrix& matrix, int ranks,
    int threads, const std::vector<hspmv::spmv::Timings>& timings,
    const std::vector<double>& outside_s, const FixedWork& fixed,
    int vectors_per_apply);

/// server.* metrics for the workloads that do not run a server, so that
/// every workload reports the same per-layer keys.
void add_server_not_applicable(Report& report);

/// The traced-run ledger both solver workloads share. A fixed-work
/// minimpi::run (one set-up, one direct apply per rank for the exact halo
/// counters and model traffic, one solve through `solve`, which returns
/// the iteration count) gives the exact counts; then the host reference,
/// the team, engine (from the probe's Timings) and solver ledgers and
/// the set-up spans. On entry `solver.iterations` is the timed loop's iteration
/// count; the fixed-work solve must repeat it exactly (a self-check).
void add_solver_workload_ledger(
    Report& report, const Tracer& tracer,
    const hspmv::sparse::CsrMatrix& matrix, int ranks, int threads,
    hspmv::spmv::Variant variant, SolverLedgerInput solver,
    const std::function<int(const hspmv::solvers::Operator&, const Shape&)>&
        solve);

}  // namespace e2e
