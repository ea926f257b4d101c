#include "layers.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "common.hpp"
#include "minimpi/runtime.hpp"
#include "perfmodel/code_balance.hpp"
#include "perfmodel/stream.hpp"
#include "report.hpp"
#include "sparse/kernels.hpp"
#include "team/thread_team.hpp"
#include "trace.hpp"
#include "util/prng.hpp"

namespace e2e {

using hspmv::sparse::value_t;

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

namespace {

/// "307200K" / "2M" / "1024" -> bytes.
std::uint64_t parse_cache_size(const std::string& text) {
  std::size_t pos = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(text, &pos);
  } catch (const std::exception&) {
    return 0;
  }
  const char unit = pos < text.size() ? text[pos] : ' ';
  if (unit == 'K') return value << 10;
  if (unit == 'M') return value << 20;
  if (unit == 'G') return value << 30;
  return value;
}

std::uint64_t mem_available_bytes() {
  std::ifstream in("/proc/meminfo");
  std::string key, unit;
  std::uint64_t kb = 0;
  while (in >> key >> kb >> unit) {
    if (key == "MemAvailable:") return kb << 10;
  }
  return 0;
}

}  // namespace

std::uint64_t llc_bytes() {
  std::uint64_t best = 0;
  int best_level = 0;
  for (int index = 0; index < 16; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_file(dir + "/level");
    std::ifstream size_file(dir + "/size");
    std::ifstream type_file(dir + "/type");
    int level = 0;
    std::string size, type;
    if (!(level_file >> level) || !(size_file >> size)) continue;
    type_file >> type;
    if (type == "Instruction") continue;
    if (level >= best_level) {
      best_level = level;
      best = parse_cache_size(size);
    }
  }
  return best;
}

void release_freed_memory(const hspmv::minimpi::Comm& comm) {
  comm.barrier();
  if (comm.rank() == 0) malloc_trim(0);
  comm.barrier();
}

void timed_setups(const hspmv::minimpi::Comm& comm, int count,
                  Tracer* tracer, std::vector<double>& out,
                  const std::function<void()>& teardown,
                  const std::function<void()>& build) {
  for (int s = 0; s < count; ++s) {
    teardown();
    release_freed_memory(comm);
    const double t0 = now_s();
    {
      Tracer::Scope span(tracer, "setup", s);
      build();
      comm.barrier();
    }
    if (comm.rank() == 0) out.push_back(now_s() - t0);
  }
}

void add_setup_spans(Report& report, const Tracer& tracer,
                     const std::string& engine_span) {
  const auto add = [&](const std::string& metric, const std::string& span) {
    const std::vector<double> d = tracer.durations(span);
    report.add(metric, "s", median(d), static_cast<std::int64_t>(d.size()),
               "median " + span + " span");
  };
  add("spmv.setup.partition_s", "spmv.partition_rows");
  add("spmv.setup.dist_matrix_s", "spmv.DistMatrix");
  add("spmv.setup.engine_s", engine_span);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

HostReference measure_triad(Report& report) {
  constexpr int kThreads = 4;
  HostReference host;
  const std::uint64_t llc = llc_bytes();
  // Each array at least 4x the LLC (or 64 MiB when sysfs has no cache
  // information). Three arrays live at once.
  std::uint64_t array_bytes = std::max<std::uint64_t>(4 * llc, 64ull << 20);
  std::string note = "array " + std::to_string(array_bytes >> 20) +
                     " MiB = 4x LLC " + std::to_string(llc >> 20) + " MiB";
  const std::uint64_t budget = mem_available_bytes() / 2;
  if (budget > 0 && 3 * array_bytes > budget) {
    array_bytes = budget / 3;
    note = "array " + std::to_string(array_bytes >> 20) +
           " MiB (< 4x LLC " + std::to_string(llc >> 20) +
           " MiB: capped at half of MemAvailable)";
  }
  hspmv::perfmodel::StreamOptions options;
  options.elements = array_bytes / sizeof(double);
  options.repetitions = 3;
  options.threads = 1;
  const auto t1 = hspmv::perfmodel::run_stream(
      hspmv::perfmodel::StreamKernel::kTriad, options);
  options.threads = kThreads;
  const auto tn = hspmv::perfmodel::run_stream(
      hspmv::perfmodel::StreamKernel::kTriad, options);
  // effective_* counts the write-allocate stream, like the code balance.
  host.triad_t1_gbs = t1.effective_bytes_per_second / 1e9;
  host.triad_t4_gbs = tn.effective_bytes_per_second / 1e9;
  report.note("STREAM triad: " + note + "; GB/s = 1e9 bytes/s incl. "
              "write-allocate, best of 3");
  report.add("perfmodel.triad_gbs.t1", "GB/s", host.triad_t1_gbs, 3, note);
  report.add("perfmodel.triad_gbs.t4", "GB/s", host.triad_t4_gbs, 3,
             note + ", " + std::to_string(kThreads) + " threads");
  return host;
}

void add_model_metrics(Report& report, const HostReference& host,
                       double nnzr) {
  const double b_crs = hspmv::perfmodel::crs_code_balance(nnzr, 0.0);
  report.add("perfmodel.b_crs", "B/flop", b_crs, 1,
             "Eq. 1 at kappa=0, Nnzr=" + fmt(nnzr));
  report.add("perfmodel.roofline_gflops", "Gflop/s",
             host.triad_t4_gbs / b_crs, 1, "triad t4 / B_CRS");
}

double add_serial_baseline(Report& report, const HostReference& host,
                           const hspmv::sparse::CsrMatrix& a,
                           double seconds) {
  std::vector<value_t> x(static_cast<std::size_t>(a.cols()));
  std::vector<value_t> y(static_cast<std::size_t>(a.rows()));
  hspmv::util::Xoshiro256 rng(12345);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  hspmv::sparse::spmv(a, x, y);  // warm-up
  std::vector<double> times;
  const double until = now_s() + seconds;
  while (times.size() < 5 || (now_s() < until && times.size() < 200)) {
    const double t0 = now_s();
    hspmv::sparse::spmv(a, x, y);
    times.push_back(now_s() - t0);
  }
  const double t = median(times);
  const double gflops = 2.0 * static_cast<double>(a.nnz()) / t / 1e9;
  const double b_crs =
      hspmv::perfmodel::crs_code_balance(a.nnz_per_row(), 0.0);
  report.add("sparse.serial_gflops", "Gflop/s", gflops,
             static_cast<std::int64_t>(times.size()),
             "median of plain sparse::spmv, 1 thread");
  report.add("sparse.serial_roofline_eff", "share",
             gflops / (host.triad_t1_gbs / b_crs),
             static_cast<std::int64_t>(times.size()),
             "vs triad t1 / B_CRS");
  return t;
}

void add_team_fork_join(Report& report, int team_size, int calls) {
  hspmv::team::ThreadTeam team(team_size);
  const auto empty = [](int) {};
  for (int i = 0; i < 100; ++i) team.execute(empty);
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(calls));
  for (int i = 0; i < calls; ++i) {
    const double t0 = now_s();
    team.execute(empty);
    us.push_back((now_s() - t0) * 1e6);
  }
  report.add_distribution("team.fork_join_us", "us", us,
                          "team of " + std::to_string(team_size));
}

void add_engine_ledger(Report& report, const HostReference& host,
                       const EngineLedgerInput& in) {
  const auto n = static_cast<std::int64_t>(in.timings.size());
  std::vector<double> gather, comm, local, nonlocal, total, compute, inside;
  double phase_sum = 0.0, total_sum = 0.0;
  std::int64_t outside = 0;  // applies with a phase outside [0, total]
  std::int64_t overrun = 0;  // applies whose total exceeds the outside time
  for (std::size_t i = 0; i < in.timings.size(); ++i) {
    const auto& t = in.timings[i];
    for (const double phase : {t.gather_s, t.comm_s, t.local_s, t.nonlocal_s}) {
      if (phase < 0.0 || phase > t.total_s) ++outside;
    }
    gather.push_back(t.gather_s);
    comm.push_back(t.comm_s);
    local.push_back(t.local_s);
    nonlocal.push_back(t.nonlocal_s);
    total.push_back(t.total_s);
    compute.push_back(t.local_s + t.nonlocal_s);
    phase_sum += t.gather_s + t.comm_s + t.local_s + t.nonlocal_s;
    total_sum += t.total_s;
    if (i < in.outside_s.size()) {
      if (t.total_s > in.outside_s[i]) ++overrun;
      inside.push_back(t.total_s / in.outside_s[i]);
    }
  }
  const double g = median(gather), c = median(comm), l = median(local),
               nl = median(nonlocal), tot = median(total);
  report.add("spmv.gather_ms", "ms", g * 1e3, n, "median, rank 0");
  report.add("spmv.comm_ms", "ms", c * 1e3, n, "median, rank 0");
  report.add("spmv.local_ms", "ms", l * 1e3, n, "median, rank 0");
  report.add("spmv.nonlocal_ms", "ms", nl * 1e3, n, "median, rank 0");
  report.add("spmv.total_ms", "ms", tot * 1e3, n, "median, rank 0");
  // Ratio of sums: robust to the per-apply jitter of small phases.
  const double unattributed =
      total_sum > 0.0 ? 1.0 - phase_sum / total_sum : 0.0;
  report.add("spmv.unattributed_share", "share", unattributed, n,
             "1 - sum(phases)/sum(total); < 0 where phases overlap");
  // Self-check against an independent measurement, which reconciles the
  // phases to the total apply by apply: every phase lies in [0, total_s],
  // total_s never exceeds the same apply timed from outside, and the
  // engine's total covers at least kMinInside of the outside time in the
  // median (the rest is the probe's vector copies and call overhead).
  constexpr double kMinInside = 0.5;
  const double inside_share = median(inside);
  report.check(n > 0 && inside.size() == in.timings.size() && outside == 0 &&
                   overrun == 0 && inside_share >= kMinInside,
               "Timings within the outside apply time (" +
                   std::to_string(outside) + " phases outside their total, " +
                   std::to_string(overrun) +
                   " totals above the outside time, median total/outside " +
                   fmt(inside_share) + ", limit >= " + fmt(kMinInside) + ")");
  // How far the reported phase medians plus the unattributed share of
  // the median total fall from the median total. Printed, not checked:
  // the share is a ratio of sums, so it counts the heavy tail of the
  // dispatch gap that host preemption stretches (the gap ROADMAP item 1
  // targets), which the medians leave out; the two then legitimately
  // differ by up to a quarter of the total on a busy host.
  const double reconciled = g + c + l + nl + unattributed * tot;
  report.note("spmv ledger: phase medians + unattributed x median total = " +
              fmt(reconciled * 1e3) + " ms vs spmv.total_ms " +
              fmt(tot * 1e3) + " ms");
  const double compute_s = median(compute);
  const double kernel_gbs =
      compute_s > 0.0 ? in.kernel_bytes_all_ranks / compute_s / 1e9 : 0.0;
  report.add("spmv.kernel_gbs", "GB/s", kernel_gbs, n,
             "model kernel bytes (all ranks) / median local+nonlocal time");
  report.add("spmv.kernel_triad_eff", "share",
             host.triad_t4_gbs > 0.0 ? kernel_gbs / host.triad_t4_gbs : 0.0,
             n, "vs triad t4");
  report.add("spmv.parallel_eff", "share",
             tot > 0.0 ? in.serial_s / (tot * in.cores) : 0.0, n,
             "serial / (total x " + std::to_string(in.cores) + " cores)");
  report.add("spmv.halo_bytes", "B",
             static_cast<double>(in.halo_bytes_all_ranks), 1,
             "exact, per apply, all ranks");
  report.add("spmv.messages", "count",
             static_cast<double>(in.messages_all_ranks), 1,
             "exact, per apply, all ranks");
}

void add_solver_ledger(Report& report, const Tracer& tracer,
                       const SolverLedgerInput& in) {
  const double solve_total = tracer.total(in.solve_span);
  const auto solves =
      static_cast<std::int64_t>(tracer.durations(in.solve_span).size());
  const auto share = [&](const char* name) {
    return solve_total > 0.0
               ? tracer.total(name, in.solve_span) / solve_total
               : 0.0;
  };
  report.add("solvers.iterations", "count", in.iterations, 1,
             "exact, fixed-work solve");
  const double apply = share("op.apply"), dot = share("op.dot");
  report.add("solvers.apply_share", "share", apply, solves,
             "op.apply spans / " + in.solve_span);
  report.add("solvers.dot_share", "share", dot, solves,
             "op.dot spans / " + in.solve_span);
  report.add("solvers.vector_share", "share", 1.0 - apply - dot, solves,
             "rest of the solve: vector updates");

  std::vector<double> allreduce_us =
      tracer.durations("minimpi.allreduce", in.solve_span);
  for (double& t : allreduce_us) t *= 1e6;
  const auto n = static_cast<std::int64_t>(allreduce_us.size());
  report.add("minimpi.allreduce_idle_us", "us", in.idle_allreduce_s * 1e6,
             1000, "barrier-aligned, median");
  report.add_distribution("minimpi.allreduce_us", "us", allreduce_us,
                          "inside op.dot");
  const double waiting =
      sum(allreduce_us) * 1e-6 - static_cast<double>(n) * in.idle_allreduce_s;
  report.add("minimpi.wait_share", "share",
             solve_total > 0.0 ? waiting / solve_total : 0.0, n,
             "(in-situ - idle allreduce) / solve");

  // Self-check against independent timings of the same solves. The
  // outside timings bracket the spans, so per traced solve these hold
  // exactly: its span lies within the solve timed from outside the span,
  // and its op.apply and op.dot child spans match the probe's own samples
  // of that solve (taken with separate clock reads around each span) in
  // count, and sum to no more than them. How much the outside timings
  // exceed the spans is scope overhead, plus any preemption that falls
  // between a clock read and its span: over the solves, the median of the
  // largest of those gaps must stay within kSpanTolerance of the solve.
  // The self times of each solve's span tree are summed, so a span that
  // escaped its parent would show as a gap too.
  constexpr double kSpanTolerance = 0.01;
  const std::vector<double> self = tracer.self_times();
  const auto& spans = tracer.spans();
  const auto probe_sum = [](const std::vector<double>& v,
                            const std::vector<std::size_t>& marks,
                            std::size_t k, std::size_t& count) {
    const std::size_t begin = k > 0 ? marks[k - 1] : 0;
    count = marks[k] - begin;
    double s = 0.0;
    for (std::size_t i = begin; i < marks[k]; ++i) s += v[i];
    return s;
  };
  int checked = 0, mismatched = 0;
  std::vector<double> gaps;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != in.solve_span) continue;
    ++checked;
    const auto k = static_cast<std::size_t>(spans[i].id);
    if (in.probe == nullptr || k >= in.outside_solve_s.size() ||
        k >= in.apply_marks.size() || k >= in.dot_marks.size()) {
      ++mismatched;
      continue;
    }
    const double outside = in.outside_solve_s[k];
    double apply_spans = 0.0, dot_spans = 0.0;
    std::size_t apply_count = 0, dot_count = 0;
    for (std::size_t j = i + 1; j < spans.size(); ++j) {
      if (spans[j].parent != static_cast<int>(i)) continue;
      const double d = spans[j].end_s - spans[j].start_s;
      if (spans[j].name == "op.apply") {
        apply_spans += d;
        ++apply_count;
      } else if (spans[j].name == "op.dot") {
        dot_spans += d;
        ++dot_count;
      }
    }
    std::size_t apply_samples = 0, dot_samples = 0;
    const double apply_probe =
        probe_sum(in.probe->apply_s, in.apply_marks, k, apply_samples);
    const double dot_probe =
        probe_sum(in.probe->dot_s, in.dot_marks, k, dot_samples);
    const double span_self =
        tracer.subtree_self_sum(static_cast<int>(i), self);
    constexpr double kRounding_s = 1e-9;  // summing self times rounds
    if (span_self > outside + kRounding_s ||
        apply_spans > apply_probe + kRounding_s ||
        dot_spans > dot_probe + kRounding_s || apply_count != apply_samples ||
        dot_count != dot_samples) {
      ++mismatched;
    }
    gaps.push_back(std::max({outside - span_self, apply_probe - apply_spans,
                             dot_probe - dot_spans}) /
                   outside);
  }
  const double gap = median(gaps);
  report.check(checked > 0 && mismatched == 0 && gap <= kSpanTolerance,
               "span self-times lie within each solve timed from outside, "
               "and op.apply/op.dot spans within the probe's samples (" +
                   std::to_string(checked) + " solves, " +
                   std::to_string(mismatched) +
                   " out of order or miscounted; median gap " + fmt(gap) +
                   " of the solve, limit " + fmt(kSpanTolerance) + ")");

  const double traced = median(in.traced_solve_s);
  const double untraced = median(in.untraced_solve_s);
  report.add("trace.overhead_share", "share",
             untraced > 0.0 ? traced / untraced - 1.0 : 0.0,
             static_cast<std::int64_t>(in.traced_solve_s.size() +
                                       in.untraced_solve_s.size()),
             "median traced / untraced " + in.solve_span + " - 1");
}

void add_server_not_applicable(Report& report) {
  for (const char* name :
       {"server.batch_width.mean", "server.low.batch_width.mean"}) {
    report.not_applicable(name, "count");
  }
  for (const char* name :
       {"server.queue_ms.p50", "server.serve_ms.p50", "server.serve_ms.tail",
        "server.low.queue_ms.p50", "server.low.serve_ms.p50",
        "server.generator_late_ms.max"}) {
    report.not_applicable(name, "ms");
  }
  report.not_applicable("server.rejected", "count");
}

void add_host_and_engine_ledger(
    Report& report, const hspmv::sparse::CsrMatrix& matrix, int ranks,
    int threads, const std::vector<hspmv::spmv::Timings>& timings,
    const std::vector<double>& outside_s, const FixedWork& fixed,
    int vectors_per_apply) {
  const HostReference host = measure_triad(report);
  add_model_metrics(report, host, matrix.nnz_per_row());
  EngineLedgerInput ledger;
  ledger.timings = timings;
  ledger.outside_s = outside_s;
  // An apply of K right-hand sides does K serial spMVMs' work.
  ledger.serial_s =
      add_serial_baseline(report, host, matrix, 2.0) * vectors_per_apply;
  ledger.cores = ranks * threads;
  for (std::size_t r = 0; r < fixed.direct.size(); ++r) {
    ledger.kernel_bytes_all_ranks += fixed.kernel_bytes[r];
    ledger.halo_bytes_all_ranks += fixed.direct[r].bytes_sent;
    ledger.messages_all_ranks += fixed.direct[r].messages;
  }
  add_team_fork_join(report, threads, 5000);
  add_engine_ledger(report, host, ledger);
  report.add("minimpi.messages", "count",
             static_cast<double>(fixed.stats.messages), 1,
             "exact, RunStats of the fixed-work run");
  report.add("minimpi.bytes", "B", static_cast<double>(fixed.stats.bytes), 1,
             "exact, RunStats of the fixed-work run");
}

void add_solver_workload_ledger(
    Report& report, const Tracer& tracer,
    const hspmv::sparse::CsrMatrix& matrix, int ranks, int threads,
    hspmv::spmv::Variant variant, SolverLedgerInput solver,
    const std::function<int(const hspmv::solvers::Operator&, const Shape&)>&
        solve) {
  const int loop_iterations = solver.iterations;
  FixedWork fixed;
  fixed.direct.resize(static_cast<std::size_t>(ranks));
  fixed.kernel_bytes.resize(static_cast<std::size_t>(ranks));
  fixed.stats = hspmv::minimpi::run(
      runtime_options(ranks), [&](hspmv::minimpi::Comm& comm) {
        Shape shape;
        shape.build(comm, matrix, threads, variant, nullptr);
        const auto r = static_cast<std::size_t>(comm.rank());
        fixed.direct[r] = shape.engine->apply(*shape.x, *shape.y);
        fixed.kernel_bytes[r] =
            shape.engine->traffic_estimate().kernel_bytes();
        const int iterations = solve(shape.op(nullptr), shape);
        if (r == 0) solver.iterations = iterations;
      });
  add_host_and_engine_ledger(report, matrix, ranks, threads,
                             solver.probe->timings, solver.probe->apply_s,
                             fixed, 1);
  add_solver_ledger(report, tracer, solver);
  report.check(solver.iterations == loop_iterations,
               "fixed-work solve repeats the timed loop's iteration count");
  add_setup_spans(report, tracer, "spmv.SpmvEngine");
  add_server_not_applicable(report);
}

// ---- operator probe ----

hspmv::solvers::Operator make_probed_operator(
    hspmv::spmv::SpmvEngine& engine, const hspmv::spmv::DistMatrix& dist,
    hspmv::spmv::DistVector& x, hspmv::spmv::DistVector& y,
    OperatorProbe* probe) {
  hspmv::solvers::Operator op;
  op.local_size = static_cast<std::size_t>(dist.owned_rows());
  if (probe == nullptr) {
    op.apply = [&engine, &x, &y](std::span<const value_t> in,
                                 std::span<value_t> out) {
      std::copy(in.begin(), in.end(), x.owned().begin());
      engine.apply(x, y);
      std::copy(y.owned().begin(), y.owned().end(), out.begin());
    };
    op.dot = [&dist](std::span<const value_t> a, std::span<const value_t> b) {
      return dist.comm().allreduce(hspmv::sparse::dot(a, b),
                                   hspmv::minimpi::ReduceOp::kSum);
    };
    return op;
  }
  op.apply = [&engine, &x, &y, probe](std::span<const value_t> in,
                                      std::span<value_t> out) {
    const double t0 = now_s();
    {
      Tracer::Scope span(probe->tracer, "op.apply");
      std::copy(in.begin(), in.end(), x.owned().begin());
      hspmv::spmv::Timings t;
      {
        Tracer::Scope inner(probe->tracer, "spmv.engine.apply");
        t = engine.apply(x, y);
      }
      std::copy(y.owned().begin(), y.owned().end(), out.begin());
      probe->timings.push_back(t);
    }
    probe->apply_s.push_back(now_s() - t0);
  };
  op.dot = [&dist, probe](std::span<const value_t> a,
                          std::span<const value_t> b) {
    const double t0 = now_s();
    value_t global = 0.0;
    {
      Tracer::Scope span(probe->tracer, "op.dot");
      value_t local = 0.0;
      {
        Tracer::Scope inner(probe->tracer, "sparse.dot");
        local = hspmv::sparse::dot(a, b);
      }
      Tracer::Scope inner(probe->tracer, "minimpi.allreduce");
      global = dist.comm().allreduce(local, hspmv::minimpi::ReduceOp::kSum);
    }
    probe->dot_s.push_back(now_s() - t0);
    return global;
  };
  return op;
}

double idle_allreduce_s(const hspmv::minimpi::Comm& comm, int calls) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(calls));
  double value = 1.0;
  for (int i = 0; i < calls; ++i) {
    comm.barrier();
    const double t0 = now_s();
    value = comm.allreduce(value, hspmv::minimpi::ReduceOp::kMax);
    times.push_back(now_s() - t0);
  }
  return median(times);
}

}  // namespace e2e
