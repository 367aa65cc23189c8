// Host-time stopwatch and span recorder of the benchmark.
//
// Every call the benchmark makes into a layer of the program is wrapped in a
// Span.  The span always measures its host duration (the untraced run
// needs per-round times for its end-to-end figures); only a traced run
// also keeps it — name, start, end and the enclosing span — in memory,
// to write them out at the end as Chrome trace-event JSON and to derive
// the per-layer figures.  Nothing here reaches into the program.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace polybench {

/// Seconds on the host's monotonic clock.
double now_s();

class Tracer {
 public:
  struct Record {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;  ///< index of the enclosing span, -1 at the top
  };

  explicit Tracer(bool on) : on_(on) {}

  /// Opens a span; returns its index (-1 when not tracing).
  int open(const char* name, double start_s);
  void close(int index, double end_s);

  /// Host seconds inside span `index` not covered by its direct children.
  double self_s(std::size_t index) const;

  /// Writes the spans as a Chrome trace-event JSON array (viewable in
  /// chrome://tracing or Perfetto).  Returns false on an I/O error.
  bool write_chrome(const std::string& path) const;

  /// Prints one line per span name: count, total and self milliseconds.
  void print_summary() const;

 private:
  bool on_;
  std::vector<Record> records_;
  std::vector<int> stack_;
};

/// One timed call.  The constructor starts the clock; seconds() stops it
/// (idempotently) and returns the duration.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), start_(now_s()), index_(tracer.open(name, start_)) {}
  ~Span() { seconds(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double seconds() {
    if (!done_) {
      end_ = now_s();
      tracer_.close(index_, end_);
      done_ = true;
    }
    return end_ - start_;
  }

 private:
  Tracer& tracer_;
  double start_;
  double end_ = 0.0;
  int index_;
  bool done_ = false;
};

}  // namespace polybench
