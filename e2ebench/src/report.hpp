// The benchmark's result ledger: named metrics with unit and sample
// count, operations attempted and failed, and self-check outcomes.
// Printed once as a human-readable table and once as the machine-read
// RESULT line that run.py turns into the final JSON object.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace e2e {

class Report {
 public:
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    std::int64_t samples = 0;
    std::string note;  ///< e.g. which percentile "tail" is, or "n/a"
  };

  void add(const std::string& name, const std::string& unit, double value,
           std::int64_t samples, const std::string& note = "");
  /// The fast end of a run's samples: their minimum when lower is
  /// better, their maximum when it is not. A shared host only ever adds
  /// time, so the fastest of many short samples reads the code's own cost
  /// as long as any of them ran in a calm moment, where a median follows
  /// the host as soon as its slow phases cover half of the run.
  void add_best(const std::string& name, const std::string& unit,
                const std::vector<double>& samples, bool lower_is_better,
                const std::string& note);
  /// `<base>.p50` and `<base>.tail` of a sample, the tail being the
  /// highest ladder percentile with at least ten samples beyond it.
  void add_distribution(const std::string& base, const std::string& unit,
                        const std::vector<double>& samples,
                        const std::string& note);
  /// Same for a sample taken in segments (e.g. one per solve): `.p50` is
  /// the median over the segments' p50s, so one disturbed segment cannot
  /// move it, `.tail` the tail of all samples pooled, and
  /// `<base>.p50.best` add_best over the segments' p50s.
  void add_segmented(const std::string& base, const std::string& unit,
                     const std::vector<std::vector<double>>& segments,
                     const std::string& note);
  /// A per-layer metric the workload does not exercise: recorded as 0
  /// with note "n/a" so every workload reports the same key set.
  void not_applicable(const std::string& name, const std::string& unit);
  /// Record one user-visible operation (a solve, a request) and whether
  /// it succeeded and passed its correctness check.
  void operation(bool ok, const std::string& what);
  /// Record a self-check of the benchmark itself.
  void check(bool ok, const std::string& what);
  /// A provenance or context line for the header.
  void note(const std::string& line);

  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const {
    return failed_ == 0 && check_failures_ == 0;
  }
  [[nodiscard]] const std::vector<Metric>& metrics() const {
    return metrics_;
  }

  void print_table(std::FILE* out) const;
  /// One line: RESULT {"correct":..,"attempted":..,"failed":..,
  /// "metrics":{name:{"value","unit","samples","note"}}}
  void print_result_line(std::FILE* out) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  std::vector<std::string> passed_checks_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::int64_t check_failures_ = 0;
  std::int64_t checks_ = 0;
};

}  // namespace e2e
