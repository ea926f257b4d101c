// Workload server-hmep: SpmvServer over HMeP make_hmep(1) (184,800 rows,
// 2.27 M nonzeros), 2 ranks x 1 thread, naive overlap, CRS backend,
// deferred progress, max_block 8, a fixed 5 ms max_wait. A single client
// thread drives it open loop with request vectors pre-generated from
// --seed, in rounds until the run's time is up, each round:
//  - burst: 32 requests submitted at once, served to completion (burst_s),
//           four times;
//  - low:   a fixed rate where the deadline fires first and batches stay
//           near K = 1;
//  - high:  a fixed rate below capacity where batches fill;
// then a bounded search over a fixed rate ladder for the highest rate
// whose tail latency meets the limit without a growing backlog.
// Latency is timed from each request's due time, so a stalled generator
// or server counts against the requests queued behind it. A short
// keep_results pre-pass checks results against serial sparse::spmv.
//
// Exercises what the solvers never touch: BatchQueue coalescing, K-wide
// broadcast/gather from rank 0 and the blocked SpMM split kernels; it
// bypasses the team (one thread per rank) and the resilient driver.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "common.hpp"
#include "common/paper_matrices.hpp"
#include "layers.hpp"
#include "minimpi/runtime.hpp"
#include "report.hpp"
#include "sparse/kernels.hpp"
#include "spmv/partition.hpp"
#include "spmv/server.hpp"
#include "trace.hpp"
#include "util/prng.hpp"

namespace e2e {

namespace {

using namespace hspmv;
using sparse::value_t;

constexpr int kRanks = 2;
constexpr int kThreads = 1;
constexpr spmv::Variant kVariant = spmv::Variant::kVectorNaiveOverlap;
/// Set-ups are spread over the run, so that setup_s is a median over the
/// same host phases as the serving: a few first, then one before each
/// round.
constexpr int kFirstSetups = 3;
constexpr int kSetupsPerRound = 1;
constexpr int kMaxBlock = 8;
constexpr double kMaxWait_s = 0.005;
/// Queue capacity: the measured phases never fill theirs (a segment has
/// at most 40 requests), so a slow host delays but never refuses them.
/// Search trials use a small one, so that an overloaded trial refuses
/// requests and fails fast instead of queueing seconds of backlog.
constexpr std::size_t kCapacity = 256;
constexpr std::size_t kTrialCapacity = 32;
constexpr std::size_t kPool = 32;       ///< distinct request vectors
constexpr std::size_t kPrepass = 16;    ///< keep_results requests checked
constexpr std::size_t kBurst = 32;      ///< requests per burst
constexpr int kBurstsPerRound = 4;
/// Low rate: arrivals 12.5 ms apart, so the 5 ms deadline fires first
/// and batches stay at K = 1. 40 requests (0.5 s) per segment: many
/// short segments give the fastest segment p50 many chances to fall in
/// a calm moment of a shared host.
constexpr double kLowRate = 80.0;       ///< req/s
constexpr std::size_t kLowRequests = 40;
/// High rate: clumps of max_block requests due together (a client
/// submitting a block), at under half of capacity, so batches fill to
/// K = 8 without queueing behind each other. Five clumps per segment.
constexpr double kHighRate = 96.0;      ///< req/s
constexpr std::size_t kHighRequests = 40;
/// Tail-latency limit of a sustainable rate, and the rate ladder the
/// search bisects (4% steps from 60 to 710 req/s). A failed trial is
/// repeated once before the rung counts as unsustainable, so one hiccup
/// of a shared host cannot halve the result. The search runs once, at
/// the end, in trials of kTrialSeconds; the rounds before it leave it
/// kSearchBudget_s of the run.
constexpr double kLatencyLimit_s = 0.060;
constexpr double kLadderBase = 60.0;
constexpr double kLadderStep = 1.04;
constexpr int kLadderRungs = 64;
constexpr int kSearchTrials = 12;
constexpr double kTrialSeconds = 0.5;
constexpr double kSearchBudget_s = 7.0;
/// Relative tolerance of the pre-pass check: naive overlap sums the
/// local and non-local parts of a row separately, so results may differ
/// from the serial kernel in the last bits.
constexpr double kResultTolerance = 1e-12;

double ladder_rate(int rung) { return kLadderBase * std::pow(kLadderStep, rung); }

/// One serve() pass: the requests the client sent and what came back.
struct Phase {
  std::string name;
  double rate = 0.0;  ///< req/s; 0 = burst (all due at once)
  std::size_t clump = 1;  ///< requests due together
  std::size_t requests = 0;
  std::size_t first_id = 0;

  std::vector<double> due_s;       ///< per request, now_s() clock
  std::vector<char> admitted;      ///< try_submit result per request
  double generator_late_max_s = 0.0;
  double clock_offset_s = 0.0;     ///< now_s() - queue.now()
  double clock_offset_error_s = 0.0;  ///< bound on its reading error
  spmv::ServerReport report;       ///< rank 0
  std::vector<double> batch_start_s;  ///< before_apply on rank 0, now_s()

  [[nodiscard]] std::size_t rejected() const {
    return static_cast<std::size_t>(
        std::count(admitted.begin(), admitted.end(), 0));
  }
  /// Due-to-completion latency of every request (seconds); rejected or
  /// lost requests count as +infinity.
  [[nodiscard]] std::vector<double> latencies() const {
    std::vector<double> out(requests, std::numeric_limits<double>::infinity());
    for (const auto& done : report.completed) {
      const std::size_t i = done.id - first_id;
      if (i < requests) out[i] = done.complete_s + clock_offset_s - due_s[i];
    }
    return out;
  }
  [[nodiscard]] std::size_t lost() const {
    return requests - rejected() - report.completed.size();
  }
};

/// Shared between the ranks' threads of one minimpi::run.
struct Shared {
  std::unique_ptr<spmv::BatchQueue> queue;
  Phase* phase = nullptr;
  bool record_batches = true;
};

}  // namespace

void run_server_hmep(const Args& args, Report& report, Tracer& tracer) {
  const bench::PaperMatrix pm = bench::make_hmep(1);
  const sparse::CsrMatrix& h = pm.matrix;
  const auto rows = static_cast<std::size_t>(h.rows());
  std::vector<std::vector<value_t>> pool(kPool, std::vector<value_t>(rows));
  for (std::size_t p = 0; p < kPool; ++p) {
    util::Xoshiro256 rng(args.seed * 0x9e3779b97f4a7c15ULL + p + 1);
    for (auto& v : pool[p]) v = rng.uniform(-1.0, 1.0);
  }
  report.note("input: HMeP make_hmep(1): " + std::to_string(h.rows()) +
              " rows, " + std::to_string(h.nnz()) + " nnz; " +
              std::to_string(kPool) + " request vectors from the seed");
  report.note("shape: SpmvServer 2 ranks x 1 thread, naive overlap, CRS, "
              "max_block 8, max_wait 5 ms; low " +
              fmt(kLowRate) + " req/s, high " +
              fmt(kHighRate) + " req/s, latency limit " +
              fmt(kLatencyLimit_s * 1e3) + " ms at p95");

  std::size_t next_id = 0;
  const auto make_phase = [&](std::string name, double rate,
                              std::size_t requests, std::size_t clump = 1) {
    Phase p;
    p.name = std::move(name);
    p.rate = rate;
    p.clump = clump;
    p.requests = requests;
    p.first_id = next_id;
    next_id += requests;
    return p;
  };

  Shared shared;
  spmv::ServerOptions server_options;
  if (args.trace) {
    // The public seam timestamps the start of each batch's apply.
    server_options.before_apply = [&shared](int, const minimpi::Comm& comm) {
      if (comm.rank() == 0 && shared.record_batches) {
        shared.phase->batch_start_s.push_back(now_s());
      }
    };
  }

  // The client: one thread, requests sent a clump at a time when due,
  // dropped when refused. A clump's payloads are copied from the pool
  // before its due time, so the benchmark's own copies and page faults
  // stay out of the latencies.
  const auto client = [&pool](spmv::BatchQueue& queue, Phase& phase) {
    phase.due_s.resize(phase.requests);
    phase.admitted.assign(phase.requests, 0);
    double start = 0.0;
    std::vector<std::vector<value_t>> payload;
    for (std::size_t first = 0; first < phase.requests; first += phase.clump) {
      const std::size_t last = std::min(first + phase.clump, phase.requests);
      payload.clear();
      for (std::size_t i = first; i < last; ++i) {
        payload.push_back(pool[(phase.first_id + i) % kPool]);
      }
      if (first == 0) start = now_s();
      const double due =
          phase.rate > 0.0 ? start + static_cast<double>(first) / phase.rate
                           : start;
      const double wait = due - now_s();
      if (wait > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      phase.generator_late_max_s =
          std::max(phase.generator_late_max_s, now_s() - due);
      for (std::size_t i = first; i < last; ++i) {
        phase.due_s[i] = due;
        phase.admitted[i] =
            queue.try_submit(phase.first_id + i, payload[i - first]) ? 1 : 0;
      }
    }
    queue.close();
  };

  // Collective: serve one phase on `server`.
  const auto serve = [&](minimpi::Comm& comm, spmv::SpmvServer& server,
                         Phase& phase, std::size_t capacity = kCapacity) {
    if (comm.rank() == 0) {
      shared.queue = std::make_unique<spmv::BatchQueue>(capacity, kMaxBlock,
                                                        kMaxWait_s);
      shared.phase = &phase;
      // The two clocks differ by a constant. Read it bracketed between
      // two now_s() calls and keep the tightest of a few tries, so that a
      // preemption between the reads cannot skew it.
      double width = std::numeric_limits<double>::infinity();
      for (int i = 0; i < 5; ++i) {
        const double before = now_s();
        const double queue_now = shared.queue->now();
        const double after = now_s();
        if (after - before < width) {
          width = after - before;
          phase.clock_offset_s = 0.5 * (before + after) - queue_now;
        }
      }
      phase.clock_offset_error_s = 0.5 * width;
    }
    comm.barrier();
    std::thread sender;
    if (comm.rank() == 0) {
      sender = std::thread([&] { client(*shared.queue, phase); });
    }
    spmv::ServerReport local = server.serve(*shared.queue);
    if (sender.joinable()) sender.join();
    if (comm.rank() == 0) phase.report = std::move(local);
    comm.barrier();
  };

  Phase prepass = make_phase("prepass", 0.0, kPrepass, kPrepass);
  // Rank 0 adds a phase before serving it; the other ranks serve without
  // a phase record.
  std::vector<Phase> bursts, lows, highs, trials;
  Phase low_untraced = make_phase("low-untraced", kLowRate, kLowRequests);
  std::vector<double> setup_s;
  int max_rung = -1;
  double idle_allreduce = 0.0;

  const auto sustainable = [](const Phase& p) {
    if (p.rejected() > 0 || p.lost() > 0) return false;
    const std::vector<double> lat = p.latencies();
    if (percentile(lat, 95.0) > kLatencyLimit_s) return false;
    // No growing backlog: the last quarter's median latency stays within
    // half the limit of the first quarter's.
    const std::size_t q = lat.size() / 4;
    const std::vector<double> first(lat.begin(),
                                    lat.begin() + static_cast<std::ptrdiff_t>(q));
    const std::vector<double> last(lat.end() - static_cast<std::ptrdiff_t>(q),
                                   lat.end());
    return median(last) <= median(first) + 0.5 * kLatencyLimit_s;
  };

  minimpi::run(runtime_options(kRanks), [&](minimpi::Comm& comm) {
    const bool root = comm.rank() == 0;
    Tracer* const rank_tracer = root && args.trace ? &tracer : nullptr;
    {
      spmv::ServerOptions check_options;
      check_options.keep_results = true;
      spmv::SpmvServer checker(comm, h, kThreads, kVariant,
                               crs_engine_options(), check_options);
      serve(comm, checker, prepass);
    }
    if (args.trace) {
      // The steps SpmvServer's ctor runs internally, called on their own
      // so that the ledger can split set-up time by layer.
      std::vector<sparse::index_t> bounds;
      {
        Tracer::Scope span(rank_tracer, "spmv.partition_rows");
        bounds = spmv::partition_rows(
            h, comm.size(), spmv::PartitionStrategy::kBalancedNonzeros);
      }
      Tracer::Scope span(rank_tracer, "spmv.DistMatrix");
      const spmv::DistMatrix dist(comm, h, bounds);
    }
    std::unique_ptr<spmv::SpmvServer> server;
    const auto setups = [&](int count) {
      timed_setups(
          comm, count, rank_tracer, setup_s, [&] { server.reset(); },
          [&] {
            Tracer::Scope span(rank_tracer, "spmv.SpmvServer");
            server = std::make_unique<spmv::SpmvServer>(
                comm, h, kThreads, kVariant, crs_engine_options(),
                server_options);
          });
    };
    // Collective: serve a new phase, recorded in `phases` on rank 0.
    Phase idle;
    const auto serve_new = [&](std::vector<Phase>& phases, Phase phase,
                               std::size_t capacity = kCapacity) {
      Phase* p = &idle;
      if (root) {
        phases.push_back(std::move(phase));
        p = &phases.back();
      }
      serve(comm, *server, *p, capacity);
    };
    // Collective: bisect the ladder. `lo` is the highest rung known
    // sustainable, `hi` the lowest known not to be (after two failed
    // trials); returns `lo` (on rank 0).
    const auto search = [&] {
      int lo = -1, hi = kLadderRungs;
      bool failed_once = false;
      for (int t = 0; t < kSearchTrials; ++t) {
        const double rate = ladder_rate((lo + hi) / 2);
        serve_new(trials,
                  root ? make_phase("trial", rate, static_cast<std::size_t>(
                                                       rate * kTrialSeconds))
                       : Phase{},
                  kTrialCapacity);
        int more = 0;
        if (root) {
          const int mid = (lo + hi) / 2;
          if (sustainable(trials.back())) {
            lo = mid;
            failed_once = false;
          } else if (!failed_once) {
            failed_once = true;  // same rung again
          } else {
            hi = mid;
            failed_once = false;
          }
          more = hi - lo > 1 ? 1 : 0;
        }
        if (comm.allreduce(more, minimpi::ReduceOp::kMax) == 0) break;
      }
      return lo;
    };

    setups(kFirstSetups);
    const double start = now_s();
    for (;;) {
      setups(kSetupsPerRound);
      for (int i = 0; i < kBurstsPerRound; ++i) {
        serve_new(bursts,
                  root ? make_phase("burst", 0.0, kBurst, kBurst) : Phase{});
      }
      serve_new(lows,
                root ? make_phase("low", kLowRate, kLowRequests) : Phase{});
      serve_new(highs, root ? make_phase("high", kHighRate, kHighRequests,
                                         kMaxBlock)
                            : Phase{});
      const int more =
          root && now_s() - start < args.seconds - kSearchBudget_s ? 1 : 0;
      if (comm.allreduce(more, minimpi::ReduceOp::kMax) == 0) break;
    }
    if (args.trace) {
      // The same low phase with batch timestamps off prices the tracing.
      if (root) shared.record_batches = false;
      serve(comm, *server, low_untraced);
      if (root) shared.record_batches = true;
    }

    const int rung = search();
    if (root) max_rung = rung;
    if (args.trace) {
      const double idle_s = idle_allreduce_s(comm, 1000);
      if (root) idle_allreduce = idle_s;
    }
  });

  // ---- correctness ----
  double worst = 0.0;
  for (const auto& done : prepass.report.completed) {
    const std::vector<value_t>& x = pool[done.id % kPool];
    std::vector<value_t> y(rows);
    sparse::spmv(h, x, y);
    double diff = 0.0, scale = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
      diff = std::max(diff, std::abs(done.y[i] - y[i]));
      scale = std::max(scale, std::abs(y[i]));
    }
    const double error = diff / scale;
    worst = std::max(worst, error);
    report.operation(error <= kResultTolerance,
                     "pre-pass request " + std::to_string(done.id) +
                         ": relative error " + fmt(error));
  }
  report.note("pre-pass: " + std::to_string(prepass.report.completed.size()) +
              " keep_results requests vs serial sparse::spmv, worst "
              "relative error " + fmt(worst) + " (limit 1e-12)");
  // Every request of the measured phases must be admitted and served.
  const auto count_requests = [&report](const Phase& p) {
    const std::vector<double> lat = p.latencies();
    for (std::size_t i = 0; i < p.requests; ++i) {
      report.operation(p.admitted[i] != 0 && std::isfinite(lat[i]),
                       p.name + " request " + std::to_string(p.first_id + i) +
                           (p.admitted[i] ? " lost" : " refused"));
    }
  };
  for (std::size_t i = prepass.report.completed.size(); i < kPrepass; ++i) {
    report.operation(false, "pre-pass request lost");
  }
  for (const Phase& b : bursts) count_requests(b);
  for (const Phase& p : lows) count_requests(p);
  for (const Phase& p : highs) count_requests(p);
  if (args.trace) count_requests(low_untraced);

  // ---- end-to-end metrics ----
  const auto ms = [](std::vector<double> v) {
    for (double& x : v) x *= 1e3;
    return v;
  };
  report.add("setup_s", "s", median(setup_s),
             static_cast<std::int64_t>(setup_s.size()),
             "median SpmvServer ctor (partition + DistMatrix + engine), "
             "spread over the run");
  std::vector<double> burst_s;
  for (const Phase& b : bursts) {
    const std::vector<double> lat = b.latencies();
    burst_s.push_back(*std::max_element(lat.begin(), lat.end()));
  }
  report.add("burst_s", "s", median(burst_s),
             static_cast<std::int64_t>(burst_s.size()),
             "median time to serve 32 requests submitted at once");
  report.add_best("burst_s.best", "s", burst_s, true,
                  "bursts of 32 requests submitted at once");
  const auto latency_segments = [&ms](const std::vector<Phase>& phases) {
    std::vector<std::vector<double>> out;
    for (const Phase& p : phases) out.push_back(ms(p.latencies()));
    return out;
  };
  report.add_segmented("latency_low_ms", "ms", latency_segments(lows),
                       fmt(kLowRate) + " req/s, from due time");
  report.add_segmented("latency_high_ms", "ms", latency_segments(highs),
                       fmt(kHighRate) + " req/s in clumps of 8, from due time");
  report.add("max_rate_rps", "1/s", max_rung >= 0 ? ladder_rate(max_rung) : 0.0,
             static_cast<std::int64_t>(trials.size()),
             "highest ladder rung (4% steps from 60) with p95 <= " +
                 fmt(kLatencyLimit_s * 1e3) + " ms and no growing backlog");

  if (!args.trace) return;

  // ---- traced run: per-layer ledger ----
  // Request spans from the recorded timestamps: request (due ->
  // completion) = server.queue (due -> before_apply) + server.serve
  // (before_apply -> completion).
  const auto add_request_spans = [&tracer](const Phase& p) {
    std::vector<double> queue_ms, serve_ms;
    std::size_t batch = 0, in_batch = 0;
    for (const auto& done : p.report.completed) {
      if (batch >= p.batch_start_s.size()) break;
      const std::size_t i = done.id - p.first_id;
      const double due = p.due_s[i];
      const double start = p.batch_start_s[batch];
      const double end = done.complete_s + p.clock_offset_s;
      const std::string lane = p.name + ".req" + std::to_string(done.id % 16);
      const int root = tracer.add("request", due, end, -1,
                                  static_cast<std::int64_t>(done.id), lane);
      tracer.add("server.queue", due, start, root,
                 static_cast<std::int64_t>(done.id), lane);
      tracer.add("server.serve", start, end, root,
                 static_cast<std::int64_t>(done.id), lane);
      queue_ms.push_back((start - due) * 1e3);
      serve_ms.push_back((end - start) * 1e3);
      if (++in_batch == static_cast<std::size_t>(p.report.batch_widths[batch])) {
        tracer.add("server.batch", start, end, -1,
                   static_cast<std::int64_t>(batch), p.name + ".batches");
        ++batch;
        in_batch = 0;
      }
    }
    return std::make_pair(queue_ms, serve_ms);
  };
  // Pooled over the rounds.
  const auto request_spans = [&](const std::vector<Phase>& phases) {
    std::vector<double> queue_ms, serve_ms;
    for (const Phase& p : phases) {
      const auto [q, s] = add_request_spans(p);
      queue_ms.insert(queue_ms.end(), q.begin(), q.end());
      serve_ms.insert(serve_ms.end(), s.begin(), s.end());
    }
    return std::make_pair(queue_ms, serve_ms);
  };
  const auto widths = [](const std::vector<Phase>& phases) {
    std::vector<double> w;
    for (const Phase& p : phases) {
      w.insert(w.end(), p.report.batch_widths.begin(),
               p.report.batch_widths.end());
    }
    return w;
  };
  const auto mean = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
  };
  const auto [low_queue, low_serve] = request_spans(lows);
  const auto [high_queue, high_serve] = request_spans(highs);
  const auto n = [](const auto& v) { return static_cast<std::int64_t>(v.size()); };
  report.add("server.batch_width.mean", "count", mean(widths(highs)),
             n(widths(highs)), "high rate");
  report.add("server.queue_ms.p50", "ms", median(high_queue), n(high_queue),
             "high rate: due -> before_apply (coalescing + payload bcast)");
  report.add_distribution("server.serve_ms", "ms", high_serve,
                          "high rate: before_apply -> completion");
  report.add("server.low.batch_width.mean", "count", mean(widths(lows)),
             n(widths(lows)), "low rate");
  report.add("server.low.queue_ms.p50", "ms", median(low_queue), n(low_queue),
             "low rate: due -> before_apply");
  report.add("server.low.serve_ms.p50", "ms", median(low_serve), n(low_serve),
             "low rate: before_apply -> completion");
  std::size_t rejected = 0;
  double late = 0.0;
  for (const auto* phases : {&lows, &highs, &bursts}) {
    for (const Phase& p : *phases) {
      rejected += p.rejected();
      if (p.rate > 0.0) late = std::max(late, p.generator_late_max_s);
    }
  }
  rejected += low_untraced.rejected();
  report.add("server.rejected", "count", static_cast<double>(rejected), 1,
             "refused by back-pressure in the measured phases");
  report.add("server.generator_late_ms.max", "ms", late * 1e3, 1,
             "latest send behind its due time, low and high rates");
  std::vector<double> low_p50;
  for (const Phase& p : lows) low_p50.push_back(median(p.latencies()));
  report.add("trace.overhead_share", "share",
             median(low_p50) / median(low_untraced.latencies()) - 1.0,
             n(low_p50) + static_cast<std::int64_t>(kLowRequests),
             "low-rate p50 with / without batch timestamps - 1 (median of "
             "the traced segments' p50s)");

  // Self-check of the batch timestamps against the server's own
  // accounting: per traced phase, before_apply fired once per batch the
  // ServerReport lists, each completed request carries the width of the
  // batch it is mapped to, and each batch started after every one of its
  // requests was submitted (the queue's stamp, within the bracketed
  // error of the two clocks' offset plus kClockSlack_s) and before any of
  // them completed.
  constexpr double kClockSlack_s = 1e-6;
  int checked = 0, mismatched = 0;
  for (const auto* phases : {&lows, &highs}) {
    for (const Phase& p : *phases) {
      ++checked;
      bool ok = p.batch_start_s.size() == p.report.batch_widths.size();
      std::size_t batch = 0, in_batch = 0;
      for (const auto& done : p.report.completed) {
        if (!ok || batch >= p.batch_start_s.size()) {
          ok = false;
          break;
        }
        const double start = p.batch_start_s[batch];
        const double slack = p.clock_offset_error_s + kClockSlack_s;
        ok = done.batch_width == p.report.batch_widths[batch] &&
             done.submit_s + p.clock_offset_s <= start + slack &&
             start <= done.complete_s + p.clock_offset_s + slack;
        if (++in_batch == static_cast<std::size_t>(done.batch_width)) {
          ++batch;
          in_batch = 0;
        }
      }
      if (!ok || batch != p.report.batch_widths.size()) ++mismatched;
    }
  }
  report.check(checked > 0 && mismatched == 0,
               "batch timestamps agree with the server's batches and "
               "request stamps (" + std::to_string(checked) + " phases, " +
                   std::to_string(mismatched) + " mismatched)");

  // Fixed-work run for the exact counts and the engine ledger: one
  // server, 32 requests queued before serving (so batches are exactly
  // K = 8), then direct K-wide applies through its engine.
  constexpr int kDirectApplies = 40;
  std::vector<spmv::Timings> timings;
  std::vector<double> outside_s;
  FixedWork fixed;
  fixed.direct.resize(kRanks);
  fixed.kernel_bytes.resize(kRanks);
  spmv::BatchQueue fixed_queue(kCapacity, kMaxBlock, kMaxWait_s);
  for (std::size_t i = 0; i < kBurst; ++i) {
    std::vector<value_t> x = pool[i % kPool];
    fixed_queue.try_submit(i, x);
  }
  fixed_queue.close();
  fixed.stats =
      minimpi::run(runtime_options(kRanks), [&](minimpi::Comm& comm) {
        spmv::SpmvServer server(comm, h, kThreads, kVariant,
                                crs_engine_options());
        (void)server.serve(fixed_queue);
        auto& engine = server.spmv();
        spmv::MultiVector x = engine.make_multi_vector(kMaxBlock);
        spmv::MultiVector y = engine.make_multi_vector(kMaxBlock);
        const auto r = static_cast<std::size_t>(comm.rank());
        for (int a = 0; a < kDirectApplies; ++a) {
          const double t0 = now_s();
          const spmv::Timings t = engine.apply(x, y);
          const double elapsed = now_s() - t0;
          if (a == 0) fixed.direct[r] = t;
          if (r == 0) {
            timings.push_back(t);
            outside_s.push_back(elapsed);
          }
        }
        fixed.kernel_bytes[r] =
            engine.engine().traffic_estimate(kMaxBlock).kernel_bytes();
      });
  add_host_and_engine_ledger(report, h, kRanks, kThreads, timings, outside_s,
                             fixed, kMaxBlock);
  report.add("minimpi.allreduce_idle_us", "us", idle_allreduce * 1e6, 1000,
             "barrier-aligned, median");
  report.not_applicable("solvers.iterations", "count");
  for (const char* name :
       {"solvers.apply_share", "solvers.dot_share", "solvers.vector_share",
        "solvers.checkpoint_share", "minimpi.wait_share"}) {
    report.not_applicable(name, "share");
  }
  report.not_applicable("minimpi.allreduce_us.p50", "us");
  report.not_applicable("minimpi.allreduce_us.tail", "us");

  add_setup_spans(report, tracer, "spmv.SpmvServer");
}

}  // namespace e2e
