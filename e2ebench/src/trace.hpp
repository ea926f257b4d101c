// In-memory span recorder of the benchmark's traced run.
//
// Spans are recorded around the benchmark's own calls into each layer
// (name, start, end, parent span, and the id of the solve or request
// they belong to), kept in memory, and written once at exit as Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing). A span's
// self time is its duration minus the part of it its child spans cover;
// the per-layer table is derived from those self times.
//
// One Tracer is driven by one thread at a time (rank 0's); spans whose
// timestamps arrive after the fact (server requests) are added with an
// explicit parent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;       ///< index into spans(), -1 for a root
    std::int64_t id = -1;  ///< solve or request id
    std::string lane;      ///< Chrome "thread" the span is drawn on
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Pause or resume recording (used to time the tracer's own overhead).
  void set_recording(bool on) { recording_ = on; }
  [[nodiscard]] bool recording() const { return enabled_ && recording_; }

  /// Open a span under the innermost open one; returns its index, or -1
  /// when not recording.
  int begin(const char* name, std::int64_t id);
  void end(int index);

  /// Add a finished span with an explicit parent (-1 = root).
  int add(const std::string& name, double start_s, double end_s, int parent,
          std::int64_t id, const std::string& lane);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span (seconds), same indexing as spans().
  [[nodiscard]] std::vector<double> self_times() const;

  /// Sum of self times over the subtree rooted at `root` (equals the
  /// root's duration when every child lies inside its parent and
  /// siblings do not overlap).
  [[nodiscard]] double subtree_self_sum(int root,
                                        const std::vector<double>& self) const;

  /// Durations of spans named `name`, in recording order; with
  /// `within` non-empty, only those with an ancestor span of that name.
  [[nodiscard]] std::vector<double> durations(
      const std::string& name, const std::string& within = "") const;
  /// Sum of durations() (seconds).
  [[nodiscard]] double total(const std::string& name,
                             const std::string& within = "") const;

  /// Write all spans as Chrome trace-event JSON. Returns false when the
  /// file cannot be written.
  bool write_chrome_json(const std::string& path) const;

  /// RAII span; inert when `tracer` is null or not recording.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::int64_t id = -1)
        : tracer_(tracer),
          index_(tracer != nullptr ? tracer->begin(name, id) : -1) {}
    ~Scope() {
      if (index_ >= 0) tracer_->end(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

 private:
  bool enabled_;
  bool recording_ = true;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace e2e
