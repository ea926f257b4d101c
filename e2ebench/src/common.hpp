// Shared plumbing of the end-to-end benchmark: command-line arguments,
// sample statistics, and the probe that times the solver-facing
// operator from outside the library.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "minimpi/types.hpp"
#include "solvers/operator.hpp"
#include "spmv/engine.hpp"

namespace e2e {

class Report;
class Tracer;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace-event JSON path (traced runs)
  std::string git_head = "unknown";
};

/// Seconds on one process-wide steady clock (all spans and due times
/// share this epoch).
double now_s();

/// Every workload runs its ranks with standard-MPI progress semantics.
inline hspmv::minimpi::RuntimeOptions runtime_options(int ranks) {
  hspmv::minimpi::RuntimeOptions options;
  options.ranks = ranks;
  options.progress = hspmv::minimpi::ProgressMode::kDeferred;
  return options;
}

/// The CRS backend (the paper's format) with the autotuner out of the
/// way: no tuning-cache file is read or written.
inline hspmv::spmv::EngineOptions crs_engine_options() {
  hspmv::spmv::EngineOptions options;
  options.backend = hspmv::spmv::LocalBackend::kCsr;
  options.tune = hspmv::spmv::TuneMode::kOff;
  return options;
}

// ---- sample statistics ----

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile q in (0, 100] of an unsorted sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// The tail percentile of an n-sample timing: the highest rung of a
/// coarse ladder that leaves at least ten samples beyond it. The coarse
/// rungs keep the chosen percentile stable when n varies a little from
/// run to run. Returns 0 when n < 20 (no tail exists).
inline double tail_percentile(std::size_t n) {
  for (const double q : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    if (static_cast<double>(n) * (1.0 - q / 100.0) >= 10.0) return q;
  }
  return 0.0;
}

/// A number for a human-readable note: %g, so 1e-15 and 50 both read well.
inline std::string fmt(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%g", v);
  return buffer;
}

/// "p95", "p99.9": how a tail metric names its percentile.
inline std::string tail_label(double q) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "p%g", q);
  return buffer;
}

/// Split a probe's samples into segments for Report::add_segmented:
/// ends[i] is the sample count after unit i (a solve), and each unit's
/// samples are cut into consecutive segments of `per` samples (a short
/// remainder joins the unit's last segment). Values are multiplied by
/// `scale`.
inline std::vector<std::vector<double>> segments(
    const std::vector<double>& v, const std::vector<std::size_t>& ends,
    std::size_t per, double scale) {
  std::vector<std::vector<double>> out;
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    const std::size_t count = std::max<std::size_t>((end - begin) / per, 1);
    for (std::size_t k = 0; k < count && begin < end; ++k) {
      const std::size_t last = k + 1 == count ? end : begin + (k + 1) * per;
      auto& segment = out.emplace_back();
      for (std::size_t i = begin + k * per; i < last; ++i) {
        segment.push_back(v[i] * scale);
      }
    }
    begin = end;
  }
  return out;
}

inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// Times the solver-facing Operator from outside the library: spans and
/// durations around op.apply (copy in, SpmvEngine::apply, copy out) and
/// op.dot (local sparse::dot, then Comm::allreduce). Only rank 0 owns a
/// probe; other ranks run the same operator unprobed.
struct OperatorProbe {
  Tracer* tracer = nullptr;  ///< null: record durations only
  std::vector<double> apply_s;
  std::vector<double> dot_s;
  std::vector<hspmv::spmv::Timings> timings;
  void clear() {
    apply_s.clear();
    dot_s.clear();
    timings.clear();
  }
};

/// The distributed Operator over an engine and its two work vectors
/// (the same wrapping examples/holstein_lanczos.cpp uses), probed when
/// `probe` is non-null.
hspmv::solvers::Operator make_probed_operator(
    hspmv::spmv::SpmvEngine& engine, const hspmv::spmv::DistMatrix& dist,
    hspmv::spmv::DistVector& x, hspmv::spmv::DistVector& y,
    OperatorProbe* probe);

/// Median per-operation time of Comm::allreduce on one double with the
/// ranks aligned by a barrier before each call (no waiting for peers).
/// Collective; returns the rank's own median in seconds.
double idle_allreduce_s(const hspmv::minimpi::Comm& comm, int calls);

/// Workload entry points. Each fills `report` (metrics, attempted and
/// failed operations, self-check failures).
void run_samg_cg(const Args& args, Report& report, Tracer& tracer);
void run_server_hmep(const Args& args, Report& report, Tracer& tracer);

}  // namespace e2e
