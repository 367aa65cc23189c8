// polybench — one run of one benchmark workload.
//
//   polybench --workload steady_serve|catastrophe|paper_cycle --seed N
//             --seconds S --trace 0|1 [--trace-out FILE] [--smoke]
//
// A run is one episode of the workload: set-up, a timed part of fixed
// simulated work, and the output checks.  The work does not depend on how
// fast the host runs, so neither do `attempted` and `failed`; --seconds is
// accepted for the common command line, and on the reference machine the
// timed part of every workload lasts longer than the 10 s that
// BENCHMARK.json sets.  Human-readable lines
// (check verdicts, sample counts, the span summary) come first; the last
// line of standard output is one JSON object with `correct`, `attempted`,
// `failed` and `metrics` — the end-to-end metrics, or with --trace 1 the
// per-layer ones, each metric of BENCHMARK.json once, in its order.  Exit
// code 0 unless the arguments are wrong (2) or the workload misses an
// end-to-end metric or reports an undeclared one (3).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: polybench --workload steady_serve|catastrophe|"
               "paper_cycle --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--smoke]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  polybench::RunOptions opt;
  double seconds = 1.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else {
      usage();
      return 2;
    }
  }
  using Fn = polybench::Result (*)(const polybench::RunOptions&,
                                   polybench::Tracer&);
  const std::map<std::string, Fn> workloads = {
      {"steady_serve", &polybench::steady_serve},
      {"catastrophe", &polybench::catastrophe},
      {"paper_cycle", &polybench::paper_cycle}};
  const auto it = workloads.find(workload);
  if (it == workloads.end()) {
    usage();
    return 2;
  }

  polybench::Tracer tracer(trace);
  const double t0 = polybench::now_s();
  const polybench::Result res = it->second(opt, tracer);
  const double elapsed = polybench::now_s() - t0;

  for (const auto& m : res.end_to_end)
    std::printf("e2e %-28s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  for (const auto& m : res.per_layer)
    std::printf("layer %-32s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  if (trace) {
    tracer.print_summary();
    if (!trace_out.empty() && !tracer.write_chrome(trace_out))
      std::fprintf(stderr, "polybench: cannot write %s\n", trace_out.c_str());
  }
  std::printf("episode %.3f s (--seconds %g)\n", elapsed, seconds);

  // The result holds every metric of the manifest, in its order.  A
  // workload that misses an end-to-end metric, or reports one in another
  // unit, is a fault of the benchmark: no result line then.
  const auto& specs = trace ? polybench::kPerLayer : polybench::kEndToEnd;
  const auto& reported = trace ? res.per_layer : res.end_to_end;
  std::string metrics;
  for (const auto& spec : specs) {
    const polybench::Metric* found = nullptr;
    for (const auto& m : reported)
      if (m.name == spec.name) found = &m;
    if ((found == nullptr && !trace) ||
        (found != nullptr && found->unit != spec.unit)) {
      std::fprintf(stderr, "polybench: %s reports %s %s\n", workload.c_str(),
                   spec.name, found ? "in another unit" : "not at all");
      return 3;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}", metrics.empty() ? "" : ", ",
                  spec.name, found ? found->value : 0.0, spec.unit);
    metrics += buf;
  }
  for (const auto& m : reported) {
    bool declared = false;
    for (const auto& spec : specs) declared = declared || m.name == spec.name;
    if (!declared) {
      std::fprintf(stderr, "polybench: %s reports undeclared metric %s\n",
                   workload.c_str(), m.name.c_str());
      return 3;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              res.correct ? "true" : "false", res.attempted, res.failed,
              metrics.c_str());
  return 0;
}
