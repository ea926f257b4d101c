#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common.hpp"

namespace e2e {

int Tracer::begin(const char* name, std::int64_t id) {
  if (!recording()) return -1;
  Span span;
  span.name = name;
  span.start_s = now_s();
  span.parent = open_.empty() ? -1 : open_.back();
  span.id = id >= 0 || span.parent < 0
                ? id
                : spans_[static_cast<std::size_t>(span.parent)].id;
  span.lane = "rank0";
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_s = now_s();
  // Scopes close in LIFO order; tolerate a stray end by searching.
  const auto it = std::find(open_.rbegin(), open_.rend(), index);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

int Tracer::add(const std::string& name, double start_s, double end_s,
                int parent, std::int64_t id, const std::string& lane) {
  if (!enabled_) return -1;
  spans_.push_back({name, start_s, end_s, parent, id, lane});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> Tracer::self_times() const {
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>> cover;
    for (const int c : children[i]) {
      const Span& k = spans_[static_cast<std::size_t>(c)];
      const double lo = std::max(k.start_s, s.start_s);
      const double hi = std::min(k.end_s, s.end_s);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0, reach = s.start_s;
    for (const auto& [lo, hi] : cover) {
      const double from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (s.end_s - s.start_s) - covered;
  }
  return self;
}

double Tracer::subtree_self_sum(int root,
                                const std::vector<double>& self) const {
  // Spans are recorded parent-before-child, so one forward pass marks
  // the subtree.
  std::vector<char> in(spans_.size(), 0);
  in[static_cast<std::size_t>(root)] = 1;
  double total = self[static_cast<std::size_t>(root)];
  for (std::size_t i = static_cast<std::size_t>(root) + 1; i < spans_.size();
       ++i) {
    const int p = spans_[i].parent;
    if (p >= 0 && in[static_cast<std::size_t>(p)]) {
      in[i] = 1;
      total += self[i];
    }
  }
  return total;
}

std::vector<double> Tracer::durations(const std::string& name,
                                      const std::string& within) const {
  const auto inside = [&](const Span& span) {
    if (within.empty()) return true;
    for (int p = span.parent; p >= 0;
         p = spans_[static_cast<std::size_t>(p)].parent) {
      if (spans_[static_cast<std::size_t>(p)].name == within) return true;
    }
    return false;
  };
  std::vector<double> d;
  for (const Span& s : spans_) {
    if (s.name == name && inside(s)) d.push_back(s.end_s - s.start_s);
  }
  return d;
}

double Tracer::total(const std::string& name,
                     const std::string& within) const {
  double t = 0.0;
  for (const double d : durations(name, within)) t += d;
  return t;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  double origin = 0.0;
  for (const Span& s : spans_) {
    origin = origin == 0.0 ? s.start_s : std::min(origin, s.start_s);
  }
  std::vector<std::string> lanes;
  const auto lane_id = [&lanes](const std::string& lane) {
    const auto it = std::find(lanes.begin(), lanes.end(), lane);
    if (it != lanes.end()) return static_cast<int>(it - lanes.begin());
    lanes.push_back(lane);
    return static_cast<int>(lanes.size()) - 1;
  };
  const std::vector<double> self = self_times();
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"id\":%lld,\"self_us\":%.3f}},\n",
                 s.name.c_str(), lane_id(s.lane), (s.start_s - origin) * 1e6,
                 (s.end_s - s.start_s) * 1e6, i, s.parent,
                 static_cast<long long>(s.id), self[i] * 1e6);
  }
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    std::fprintf(f,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}%s\n",
                 l, lanes[l].c_str(), l + 1 < lanes.size() ? "," : "");
  }
  if (lanes.empty()) {
    std::fprintf(f, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"args\":{\"name\":\"hspmv_e2e\"}}\n");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
