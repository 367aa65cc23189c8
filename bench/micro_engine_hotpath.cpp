// Engine hot-path throughput: events/sec and messages/sec.
//
// The paper's headline claim — a shape surviving 50%+ catastrophes at
// scale — is only testable at the rate the deterministic engine can push
// rounds through 100k+ AsyncNodes, so this bench pins the two numbers the
// scheduler/transport overhaul is accountable for:
//
//   * kernel workloads — the scheduler alone, no protocol: a steady fleet
//     of self-rescheduling timers (the shape of per-node tick events plus
//     in-flight deliveries), and a schedule/cancel churn loop (the shape
//     of timeout guards that almost always get cancelled);
//   * fleet workloads — EventCluster construction plus steady-state
//     rounds at sweep sizes: the fleet_ctor rows time the constructor
//     (endpoint registration + alive-pool bootstrap sampling — the paths
//     the O(n·seeds) bootstrap rewrite is accountable for), then after a
//     warmup the measured rounds report engine events/sec and transport
//     frames (messages)/sec through the full live stack (wire codecs,
//     RPS + T-Man + backup + migration).
//
//   micro_engine_hotpath                     # sweep to --max-nodes
//   micro_engine_hotpath --max-nodes 102400  # the 100k-node steady rounds
//
// Deterministic given --seed; reps default to 1.  BENCH_baseline/ keeps a
// recorded snapshot of the emitted JSON for the CI regression gate.
#include <chrono>
#include <cstdio>
#include <string>

#include "common.hpp"
#include "engine/event_cluster.hpp"
#include "engine/event_engine.hpp"
#include "shape/grid_torus.hpp"
#include "util/rng.hpp"

namespace {

using poly::engine::EventEngine;
using poly::engine::SimTime;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Steady timers: `timers` events live at all times, each firing and
/// rescheduling itself with a deterministic pseudo-random small delay —
/// the scheduler's steady-state shape under a ticking fleet.  Returns
/// events/sec over `total` executions.
double kernel_steady(std::size_t timers, std::size_t total,
                     std::uint64_t seed, std::uint64_t* executed) {
  if (timers == 0) {  // nothing scheduled: the drain loop below never ends
    *executed = 0;
    return 0.0;
  }
  EventEngine engine(seed);
  poly::util::Rng rng(seed ^ 0x5eedULL);
  // Self-rescheduling via an explicit loop: run_until windows advance the
  // clock, and each executed event re-arms itself inside the handler.
  struct Timer {
    EventEngine* engine;
    poly::util::Rng* rng;
    void operator()() const {
      auto* e = engine;
      auto* r = rng;
      e->schedule_after(SimTime{r->uniform_i64(1000, 25'000'000)},
                        Timer{e, r});
    }
  };
  for (std::size_t i = 0; i < timers; ++i)
    engine.schedule_after(SimTime{rng.uniform_i64(0, 25'000'000)},
                          Timer{&engine, &rng});
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t done = 0;
  while (done < total) done += engine.run_until(engine.now() + SimTime{1'000'000});
  const double wall = seconds_since(t0);
  *executed = engine.events_executed();
  return static_cast<double>(done) / wall;
}

/// Schedule/cancel churn: every iteration schedules a "timeout" far out and
/// cancels the previous one — the failure-detector guard pattern where
/// nearly every scheduled event is cancelled before it fires.
double kernel_cancel(std::size_t total, std::uint64_t seed,
                     std::uint64_t* executed) {
  EventEngine engine(seed);
  poly::util::Rng rng(seed ^ 0xcafeULL);
  const auto t0 = std::chrono::steady_clock::now();
  poly::engine::EventId prev = 0;
  bool have_prev = false;
  for (std::size_t i = 0; i < total; ++i) {
    const auto id = engine.schedule_after(
        SimTime{rng.uniform_i64(1'000'000, 400'000'000)}, [] {});
    if (have_prev) engine.cancel(prev);
    prev = id;
    have_prev = true;
    // Keep the clock moving so the wheel/queue sees realistic spreads.
    if ((i & 1023u) == 0) engine.run_until(engine.now() + SimTime{1'000'000});
  }
  engine.run();
  const double wall = seconds_since(t0);
  *executed = engine.events_executed();
  return static_cast<double>(2 * total) / wall;  // schedule+cancel pairs
}

}  // namespace

int main(int argc, char** argv) {
  using namespace poly;
  const auto opt = bench::BenchOptions::parse(argc, argv, /*reps=*/1);
  std::printf(
      "Engine hot path: scheduler + transport throughput (seed %llu)\n\n",
      static_cast<unsigned long long>(opt.seed));

  // mem_bytes_per_node is the fleet state-memory audit (arena + node slab +
  // heap-backed state + hub tables, divided by fleet size); kernel rows
  // have no fleet and report 0.  The column is gated tighter than the
  // wall-clock columns in CI — memory is deterministic, timing is not.
  // arena_used_per_node is the view-storage part alone: exact bytes handed
  // out, free of the 4 MB chunk granularity that dominates the total on
  // small fleets, so CI gates it exactly.
  util::Table table({"workload", "nodes", "events", "msgs", "wall_s",
                     "events_per_s", "msgs_per_s", "mem_bytes_per_node",
                     "arena_used_per_node"});

  // ---- kernel workloads ----------------------------------------------------
  {
    const std::size_t timers = std::min<std::size_t>(opt.max_nodes, 102'400);
    const std::size_t total = 4'000'000;
    std::uint64_t executed = 0;
    const double eps = kernel_steady(timers, total, opt.seed, &executed);
    table.add_row({"kernel_steady", std::to_string(timers),
                   std::to_string(executed), "0",
                   util::fmt(static_cast<double>(total) / eps, 2),
                   util::fmt(eps, 0), "0", "0", "0"});
    std::printf("  kernel_steady: %.0f events/s (%zu timers)\n", eps, timers);
  }
  {
    const std::size_t total = 2'000'000;
    std::uint64_t executed = 0;
    const double ops = kernel_cancel(total, opt.seed, &executed);
    table.add_row({"kernel_cancel", "0", std::to_string(executed), "0",
                   util::fmt(static_cast<double>(2 * total) / ops, 2),
                   util::fmt(ops, 0), "0", "0", "0"});
    std::printf("  kernel_cancel: %.0f schedule+cancel ops/s\n", ops);
  }

  // ---- fleet steady rounds -------------------------------------------------
  constexpr std::size_t kWarmupRounds = 10;
  constexpr std::size_t kMeasureRounds = 10;
  // Every other sweep size (100, 400, 1600, ...): the doubling steps add
  // little information here and the 4x spacing keeps the default sweep
  // short.  sweep_sizes carries the wrap-around guard for --max-nodes -1.
  const auto sweep = bench::sweep_sizes(opt);
  for (std::size_t i = 0; i < sweep.size(); i += 2) {
    const std::size_t n = sweep[i];
    const auto dims = bench::grid_for(n);
    shape::GridTorusShape shape(dims.nx, dims.ny);
    engine::EventClusterConfig cfg;
    cfg.node.replication = 4;
    // Constructor column: fleet build time (endpoint registration +
    // bootstrap seed sampling), the number the O(n·seeds) bootstrap is
    // gated on — at 102,400 nodes the old O(n²) candidate rebuild made
    // this rival the measured rounds.  Point generation happens outside
    // the timed region: the column measures the cluster, not the shape.
    const auto points = shape.generate();
    const auto c0 = std::chrono::steady_clock::now();
    engine::EventCluster fleet(shape.space_ptr(), points, cfg, opt.seed);
    const double ctor_wall = seconds_since(c0);
    // Only wall_s carries the measurement: the throughput columns keep
    // their event/message units (zero here) rather than smuggling a
    // nodes/s figure under the wrong header.
    table.add_row({"fleet_ctor", std::to_string(n), "0", "0",
                   util::fmt(ctor_wall, 3), "0", "0", "0", "0"});
    std::printf("  fleet_ctor:   %zu nodes in %.3f s (%.0f nodes/s)\n", n,
                ctor_wall, ctor_wall > 0 ? n / ctor_wall : 0.0);
    fleet.run_rounds(kWarmupRounds);
    // Best-of-reps: the measured window repeats over the (steady) fleet
    // and the fastest window is reported, which rejects timing noise from
    // sharing the machine — the protocol workload itself is deterministic.
    double wall = 0.0;
    double events = 0.0;
    double msgs = 0.0;
    for (std::size_t rep = 0; rep < opt.reps; ++rep) {
      const std::uint64_t ev0 = fleet.engine().events_executed();
      const std::uint64_t fr0 = fleet.hub().frames_sent();
      const auto t0 = std::chrono::steady_clock::now();
      fleet.run_rounds(kMeasureRounds);
      const double w = seconds_since(t0);
      if (rep == 0 || w < wall) {
        wall = w;
        events = static_cast<double>(fleet.engine().events_executed() - ev0);
        msgs = static_cast<double>(fleet.hub().frames_sent() - fr0);
      }
    }
    const std::size_t bpn = fleet.mem_bytes_per_node();
    const std::size_t arena_pn = fleet.memory_breakdown().arena_used / n;
    table.add_row({"fleet_steady", std::to_string(n),
                   util::fmt(events, 0), util::fmt(msgs, 0),
                   util::fmt(wall, 3),
                   util::fmt(wall > 0 ? events / wall : 0.0, 0),
                   util::fmt(wall > 0 ? msgs / wall : 0.0, 0),
                   std::to_string(bpn), std::to_string(arena_pn)});
    std::printf(
        "  fleet_steady: %zu nodes, %.0f events/s, %.0f msgs/s, %zu B/node "
        "(%zu B/node arena)\n",
        n, wall > 0 ? events / wall : 0.0, wall > 0 ? msgs / wall : 0.0, bpn,
        arena_pn);
  }

  std::puts("");
  bench::emit(table, opt, "micro_engine_hotpath");
  std::puts(
      "\nThe steady-round rows are the overhaul's accountability numbers: "
      "events+messages/sec at 102,400 nodes must not regress.");
  return 0;
}
