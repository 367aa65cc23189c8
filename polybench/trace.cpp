#include "trace.hpp"

#include <cstdio>
#include <map>

namespace polybench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::open(const char* name, double start_s) {
  if (!on_) return -1;
  const int index = static_cast<int>(records_.size());
  records_.push_back(
      {name, start_s, start_s, stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index, double end_s) {
  if (index < 0) return;
  records_[static_cast<std::size_t>(index)].end_s = end_s;
  // Spans nest: the one closing is the innermost open one.
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

double Tracer::self_s(std::size_t index) const {
  const Record& r = records_[index];
  double covered = 0.0;
  // Children are recorded after their parent; direct children do not
  // overlap one another (one thread), so their durations add up.
  for (std::size_t j = index + 1; j < records_.size(); ++j) {
    const Record& c = records_[j];
    if (c.start_s > r.end_s) break;
    if (c.parent == static_cast<int>(index)) covered += c.end_s - c.start_s;
  }
  return (r.end_s - r.start_s) - covered;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = records_.empty() ? 0.0 : records_.front().start_s;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}",
                 i == 0 ? "" : ",\n", r.name.c_str(), (r.start_s - t0) * 1e6,
                 (r.end_s - r.start_s) * 1e6, i, r.parent);
  }
  std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0;
}

void Tracer::print_summary() const {
  struct Row {
    std::size_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    Row& row = rows[records_[i].name];
    ++row.count;
    row.total += records_[i].end_s - records_[i].start_s;
    row.self += self_s(i);
  }
  std::printf("%-28s %8s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto& [name, row] : rows)
    std::printf("%-28s %8zu %12.3f %12.3f\n", name.c_str(), row.count,
                row.total * 1e3, row.self * 1e3);
}

}  // namespace polybench
