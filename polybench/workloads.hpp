// The benchmark's three workloads (README.md gives their make-up).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace polybench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A metric's name and unit, as BENCHMARK.json declares it.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, in BENCHMARK.json's order.  Every workload
/// reports every one of them.
extern const std::vector<MetricSpec> kEndToEnd;
/// The per-layer metrics, in BENCHMARK.json's order.  A traced run prints
/// all of them; one of a layer the workload does not run reads 0.
extern const std::vector<MetricSpec> kPerLayer;

/// What one run of a workload reports.  Every output check is one
/// operation: `attempted` counts them, `failed` counts those that did not
/// hold, and `correct` stays true only while every failure is a known
/// program fault the benchmark keeps on purpose (README.md names them).
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::vector<Metric> end_to_end;  ///< printed by untraced runs
  std::vector<Metric> per_layer;   ///< printed by traced runs

  /// Records one output check and prints its verdict.
  void check(const std::string& name, bool ok, const std::string& detail,
             bool known_fault = false);
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

/// `smoke` shrinks every workload to a seconds-long self-test size.
struct RunOptions {
  std::uint64_t seed = 1;
  bool smoke = false;
};

Result steady_serve(const RunOptions& opt, Tracer& tracer);
Result catastrophe(const RunOptions& opt, Tracer& tracer);
Result paper_cycle(const RunOptions& opt, Tracer& tracer);

}  // namespace polybench
