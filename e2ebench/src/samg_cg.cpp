// Workload samg-cg: solvers::resilient_cg to a relative residual of 1e-8
// on the sAMG-like graded Poisson matrix (poisson7 64^3, grading 1.02,
// coefficient jitter 0.3 seeded from --seed: 262,144 rows, 1.8 M
// nonzeros), buddy checkpoint every 10 iterations, no injected failure.
// 2 ranks x 2 threads in vector mode without overlap, CRS backend,
// deferred progress. Closed loop: one solve after another.
//
// Overhead-bound: each apply lasts about a millisecond and every
// iteration has two allreduces, so team fork/join, minimpi matching and
// collectives, waiting for peers and the elastic driver's checkpoint
// protocol dominate. resilient_cg builds its own engine inside each
// solve, so that cost falls in solve_s. The per-apply and per-dot
// latencies come from a plain-CG twin on the same engine shape, whose
// set-up is setup_s; one twin solve follows every third resilient
// solve.
#include <cmath>
#include <mutex>
#include <string>

#include "common.hpp"
#include "layers.hpp"
#include "matgen/poisson.hpp"
#include "minimpi/runtime.hpp"
#include "report.hpp"
#include "shape.hpp"
#include "solvers/cg.hpp"
#include "solvers/resilience.hpp"
#include "sparse/kernels.hpp"
#include "trace.hpp"
#include "util/prng.hpp"

namespace e2e {

namespace {

using namespace hspmv;
using sparse::value_t;

constexpr int kRanks = 2;
constexpr int kThreads = 2;
/// Set-ups are spread over the run, so that setup_s is a median over the
/// same host phases as the solves: a few first, then more after each
/// resilient solve.
constexpr int kFirstSetups = 9;
constexpr int kSetupsPerLoop = 2;
constexpr spmv::Variant kVariant = spmv::Variant::kVectorNoOverlap;
/// Per-apply latencies are taken in segments of this many consecutive
/// applies (about 50 ms; dots: twice as many), so that a run holds a few
/// hundred segments and the fastest segment p50 catches a calm moment of
/// a shared host.
constexpr std::size_t kSegment = 50;
/// One plain-CG twin solve follows every kTwinEvery-th resilient solve:
/// the twins' thousands of applies fill the latency segments, and the
/// rest of the run gives job_s more solves to take its fastest from.
constexpr std::int64_t kTwinEvery = 3;

/// ||b - A x|| / ||b|| with the plain serial kernel.
double true_relative_residual(const sparse::CsrMatrix& a,
                              std::span<const value_t> b,
                              std::span<const value_t> x) {
  std::vector<value_t> ax(b.size());
  sparse::spmv(a, x, ax);
  double rr = 0.0, bb = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    rr += (b[i] - ax[i]) * (b[i] - ax[i]);
    bb += b[i] * b[i];
  }
  return std::sqrt(rr / bb);
}

}  // namespace

void run_samg_cg(const Args& args, Report& report, Tracer& tracer) {
  matgen::PoissonParams params;
  params.nx = params.ny = params.nz = 64;
  params.grading = 1.02;
  params.coefficient_jitter = 0.3;
  params.seed = args.seed;
  const sparse::CsrMatrix a = matgen::poisson7(params);
  std::vector<value_t> b(static_cast<std::size_t>(a.rows()));
  util::Xoshiro256 rng(args.seed ^ 0x5a5a5a5a5a5a5a5aULL);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  report.note("input: sAMG-like poisson7 64^3 (grading 1.02, jitter 0.3, "
              "seed " + std::to_string(args.seed) + "): " +
              std::to_string(a.rows()) + " rows, " + std::to_string(a.nnz()) +
              " nnz, Nnzr " + fmt(a.nnz_per_row()) +
              "; b uniform(-1,1) from the seed");
  report.note("shape: 2 ranks x 2 threads, vector mode without overlap, "
              "CRS, deferred progress; closed loop of resilient_cg to 1e-8, "
              "checkpoint every 10 iterations");

  solvers::CgOptions cg_options;
  cg_options.max_iterations = 2000;
  cg_options.tolerance = 1e-8;
  solvers::ResilienceOptions resilience;
  resilience.checkpoint_interval = 10;
  resilience.variant = kVariant;
  resilience.engine = crs_engine_options();
  resilience.threads = kThreads;
  // The recurrence residual may drift from the true one by a little.
  constexpr double kResidualLimit = 10.0 * 1e-8;

  Tracer* const tr = args.trace ? &tracer : nullptr;
  OperatorProbe probe;
  probe.tracer = tr;
  std::vector<double> setup_s, solve_s, twin_s, twin_traced_s,
      twin_untraced_s;
  std::vector<std::size_t> apply_marks, dot_marks;  // samples per twin
  std::vector<value_t> gathered(static_cast<std::size_t>(a.rows()));
  std::mutex gather_mutex;
  double idle_allreduce = 0.0;
  int iterations = -1, twin_iterations = -1;

  minimpi::run(runtime_options(kRanks), [&](minimpi::Comm& comm) {
    const bool root = comm.rank() == 0;
    Tracer* const rank_tracer = root ? tr : nullptr;
    Shape shape;
    solvers::Operator op;
    const auto setups = [&](int count) {
      timed_setups(
          comm, count, rank_tracer, setup_s, [&] { shape.reset(); },
          [&] { shape.build(comm, a, kThreads, kVariant, rank_tracer); });
      op = shape.op(root ? &probe : nullptr);
      shape.engine->apply(*shape.x, *shape.y);  // first use, untimed
    };
    setups(kFirstSetups);
    const auto row_begin = static_cast<std::size_t>(shape.dist->row_begin());
    const std::span<const value_t> local_b(b.data() + row_begin,
                                           op.local_size);

    // Plain-CG twin on the same engine shape: per-apply and per-dot
    // latencies (one segment per solve), checked on the gathered
    // solution.
    const auto twin = [&](std::int64_t id, bool recording) {
      if (root) tracer.set_recording(recording);
      std::vector<value_t> x(op.local_size, 0.0);
      const double t0 = now_s();
      solvers::CgResult result;
      {
        Tracer::Scope span(rank_tracer, "solve.cg", id);
        result = solvers::conjugate_gradient(op, local_b, x, cg_options);
      }
      const double elapsed = now_s() - t0;
      {
        std::lock_guard<std::mutex> lock(gather_mutex);
        std::copy(x.begin(), x.end(),
                  gathered.begin() + static_cast<std::ptrdiff_t>(row_begin));
      }
      comm.barrier();
      if (root) {
        tracer.set_recording(true);
        twin_s.push_back(elapsed);
        (recording ? twin_traced_s : twin_untraced_s).push_back(elapsed);
        apply_marks.push_back(probe.apply_s.size());
        dot_marks.push_back(probe.dot_s.size());
        const double residual = true_relative_residual(a, b, gathered);
        if (twin_iterations < 0) twin_iterations = result.iterations;
        report.operation(result.converged && residual <= kResidualLimit &&
                             result.iterations == twin_iterations,
                         "plain CG twin: " +
                             std::to_string(result.iterations) +
                             " iterations, true residual " + fmt(residual));
      }
      comm.barrier();
    };

    // Closed loop: resilient_cg solves, every kTwinEvery-th one
    // followed by a twin solve (recorded on every other twin in traced
    // runs, which prices the tracer and gives solvers.checkpoint_share
    // its untraced base).
    const double start = now_s();
    for (std::int64_t id = 0;; ++id) {
      const double t0 = now_s();
      solvers::ResilientCgResult result;
      {
        Tracer::Scope span(rank_tracer, "solve.resilient_cg", id);
        result = solvers::resilient_cg(comm, a, b, resilience, cg_options);
      }
      const double elapsed = now_s() - t0;
      if (root) {
        solve_s.push_back(elapsed);
        // Correctness on the replicated solution, outside the timing.
        const double residual = true_relative_residual(a, b, result.x);
        if (iterations < 0) iterations = result.cg.iterations;
        report.operation(result.cg.converged && result.recovery.survivor &&
                             residual <= kResidualLimit &&
                             result.cg.iterations == iterations,
                         "resilient_cg solve: " +
                             std::to_string(result.cg.iterations) +
                             " iterations, true residual " + fmt(residual));
      }
      if (id % kTwinEvery == 0) {
        twin(id / kTwinEvery, args.trace && id % (2 * kTwinEvery) == 0);
      }
      const int more = root && now_s() - start < args.seconds ? 1 : 0;
      if (comm.allreduce(more, minimpi::ReduceOp::kMax) == 0) break;
      setups(kSetupsPerLoop);
    }
    if (args.trace) {
      const double idle = idle_allreduce_s(comm, 1000);
      if (root) idle_allreduce = idle;
    }
  });
  report.note("resilient solves: " + std::to_string(solve_s.size()) + ", " +
              std::to_string(iterations) + " iterations each; twin solves: " +
              std::to_string(apply_marks.size()));

  const auto count = [](const auto& v) {
    return static_cast<std::int64_t>(v.size());
  };
  report.add("setup_s", "s", median(setup_s), count(setup_s),
             "median: partition + DistMatrix + engine + vectors (twin), "
             "spread over the run");
  report.add("solve_s", "s", median(solve_s), count(solve_s),
             "median resilient_cg solve, incl. its engine build");
  report.add_best("solve_s.best", "s", solve_s, true, "resilient_cg solves");
  report.add_segmented(
      "apply_ms", "ms", segments(probe.apply_s, apply_marks, kSegment, 1e3),
      "op.apply of the plain-CG twins, " + std::to_string(kSegment) +
          " consecutive applies per segment");
  report.add_segmented(
      "dot_ms", "ms", segments(probe.dot_s, dot_marks, 2 * kSegment, 1e3),
      "op.dot incl. allreduce of the plain-CG twins, " +
          std::to_string(2 * kSegment) + " consecutive dots per segment");
  std::vector<double> twin_rate;
  for (const double t : twin_s) twin_rate.push_back(twin_iterations / t);
  report.add("twin_iteration_rate_per_s", "1/s", median(twin_rate),
             count(twin_rate),
             "median over plain-CG twin solves of iterations / solve time");

  if (!args.trace) return;

  SolverLedgerInput solver;
  solver.solve_span = "solve.cg";
  solver.traced_solve_s = twin_traced_s;
  solver.untraced_solve_s = twin_untraced_s;
  solver.idle_allreduce_s = idle_allreduce;
  solver.iterations = twin_iterations;
  solver.outside_solve_s = twin_s;
  solver.apply_marks = apply_marks;
  solver.dot_marks = dot_marks;
  solver.probe = &probe;
  add_solver_workload_ledger(
      report, tracer, a, kRanks, kThreads, kVariant, solver,
      [&](const solvers::Operator& op, const Shape& shape) {
        std::vector<value_t> x(op.local_size, 0.0);
        const auto row_begin =
            static_cast<std::size_t>(shape.dist->row_begin());
        return solvers::conjugate_gradient(
                   op,
                   std::span<const value_t>(b.data() + row_begin,
                                            op.local_size),
                   x, cg_options)
            .iterations;
      });
  // The resilient driver carries no inner spans; its overhead over the
  // untraced plain-CG twin on the same shape is the checkpoint protocol
  // (plus the per-solve engine build).
  const double resilient = median(solve_s);
  const double plain = median(twin_untraced_s);
  report.add("solvers.checkpoint_share", "share",
             resilient > 0.0 ? 1.0 - plain / resilient : 0.0,
             count(solve_s) + count(twin_untraced_s),
             "1 - plain CG twin / resilient_cg (medians)");
}

}  // namespace e2e
