#include "report.hpp"

#include <algorithm>

#include "common.hpp"

namespace e2e {

void Report::add(const std::string& name, const std::string& unit,
                 double value, std::int64_t samples,
                 const std::string& note) {
  metrics_.push_back({name, unit, value, samples, note});
}

void Report::add_best(const std::string& name, const std::string& unit,
                      const std::vector<double>& samples,
                      bool lower_is_better, const std::string& note) {
  double best = 0.0;
  if (!samples.empty()) {
    best = lower_is_better ? *std::min_element(samples.begin(), samples.end())
                           : *std::max_element(samples.begin(), samples.end());
  }
  add(name, unit, best, static_cast<std::int64_t>(samples.size()),
      std::string(lower_is_better ? "min" : "max") + " of " +
          std::to_string(samples.size()) + " " + note);
}

void Report::add_distribution(const std::string& base,
                              const std::string& unit,
                              const std::vector<double>& samples,
                              const std::string& note) {
  const auto n = static_cast<std::int64_t>(samples.size());
  const double q = tail_percentile(samples.size());
  add(base + ".p50", unit, median(samples), n, note);
  add(base + ".tail", unit, percentile(samples, q), n,
      tail_label(q) + ", " + note);
}

void Report::add_segmented(const std::string& base, const std::string& unit,
                           const std::vector<std::vector<double>>& segments,
                           const std::string& note) {
  std::size_t smallest = segments.empty() ? 0 : segments.front().size();
  std::vector<double> pooled, p50;
  for (const auto& s : segments) {
    smallest = std::min(smallest, s.size());
    pooled.insert(pooled.end(), s.begin(), s.end());
    p50.push_back(median(s));
  }
  const auto n = static_cast<std::int64_t>(pooled.size());
  const double q = tail_percentile(pooled.size());
  add(base + ".p50", unit, median(p50), n,
      "p50 per segment (" + std::to_string(segments.size()) +
          " segments of >= " + std::to_string(smallest) +
          "), median over segments, " + note);
  add(base + ".tail", unit, percentile(pooled, q), n,
      tail_label(q) + " of all segments, " + note);
  add_best(base + ".p50.best", unit, p50, true,
           "segment p50s (" + std::to_string(smallest) + "+ samples each), " +
               note);
}

void Report::not_applicable(const std::string& name,
                            const std::string& unit) {
  metrics_.push_back({name, unit, 0.0, 0, "n/a"});
}

void Report::operation(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back("FAILED operation: " + what);
  }
}

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    ++check_failures_;
    failures_.push_back("FAILED self-check: " + what);
  } else {
    passed_checks_.push_back("self-check ok: " + what);
  }
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::print_table(std::FILE* out) const {
  for (const std::string& line : notes_) std::fprintf(out, "# %s\n", line.c_str());
  std::fprintf(out, "%-34s %16s  %-8s %8s  %s\n", "metric", "value", "unit",
               "samples", "note");
  for (const Metric& m : metrics_) {
    std::fprintf(out, "%-34s %16.6g  %-8s %8lld  %s\n", m.name.c_str(),
                 m.value, m.unit.c_str(), static_cast<long long>(m.samples),
                 m.note.c_str());
  }
  for (const std::string& c : passed_checks_) {
    std::fprintf(out, "%s\n", c.c_str());
  }
  for (const std::string& f : failures_) std::fprintf(out, "%s\n", f.c_str());
  std::fprintf(out,
               "operations: %lld attempted, %lld failed | self-checks: %lld "
               "run, %lld failed\n",
               static_cast<long long>(attempted_),
               static_cast<long long>(failed_),
               static_cast<long long>(checks_),
               static_cast<long long>(check_failures_));
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void Report::print_result_line(std::FILE* out) const {
  std::fprintf(out, "RESULT {\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
                    "\"metrics\":{",
               correct() ? "true" : "false",
               static_cast<long long>(attempted_),
               static_cast<long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::fprintf(out,
                 "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"samples\":%lld,"
                 "\"note\":\"%s\"}",
                 i == 0 ? "" : ",", json_escape(m.name).c_str(), m.value,
                 json_escape(m.unit).c_str(),
                 static_cast<long long>(m.samples),
                 json_escape(m.note).c_str());
  }
  std::fprintf(out, "}}\n");
}

}  // namespace e2e
