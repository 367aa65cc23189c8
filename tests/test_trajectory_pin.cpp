// Fixed-seed trajectory pin: bit-exact regression guard for the engine
// fleet.
//
// The determinism contract (docs/ARCHITECTURE.md) promises that an
// EventCluster run is a pure function of (points, config, seed).  The
// other engine tests check *internal* consistency (two runs of the same
// binary agree); this one pins the trajectory against constants captured
// from a trusted build, so a refactor that silently perturbs the RNG draw
// sequence, message order, or ranking tie-breaks fails here even when it
// stays self-consistent.  Counters (events executed, frames sent) are the
// sharpest signal — any divergence in the message schedule shifts them —
// and the fleet metrics are compared at 17 significant digits, i.e. to
// the last bit of a double.
//
// If a PR changes these values *intentionally* (a documented RNG-sequence
// change), follow the re-pin procedure in BENCH_baseline/README.md: rerun
// with POLY_TRAJ_PRINT=1, paste the printed block, and say so in the PR.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "engine/event_cluster.hpp"
#include "shape/grid_torus.hpp"
#include "traffic/workload.hpp"

namespace {

using namespace poly;

std::string g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Trajectory {
  std::string reliability, homogeneity, proximity;
  std::uint64_t events, frames;
};

void expect_traj(const Trajectory& got, const Trajectory& want,
                 const char* tag) {
  if (std::getenv("POLY_TRAJ_PRINT") != nullptr) {
    std::printf("[traj] %s reliability=%s homogeneity=%s proximity=%s "
                "events=%llu frames=%llu\n",
                tag, got.reliability.c_str(), got.homogeneity.c_str(),
                got.proximity.c_str(),
                static_cast<unsigned long long>(got.events),
                static_cast<unsigned long long>(got.frames));
    return;
  }
  EXPECT_EQ(got.reliability, want.reliability) << tag;
  EXPECT_EQ(got.homogeneity, want.homogeneity) << tag;
  EXPECT_EQ(got.proximity, want.proximity) << tag;
  EXPECT_EQ(got.events, want.events) << tag;
  EXPECT_EQ(got.frames, want.frames) << tag;
}

Trajectory measure(engine::EventCluster& fleet) {
  return Trajectory{g17(fleet.reliability()), g17(fleet.homogeneity()),
                    g17(fleet.proximity()), fleet.engine().events_executed(),
                    fleet.hub().frames_sent()};
}

// Reliable fixed-latency links, K=2: converge, crash the failure half,
// recover.  The bread-and-butter configuration of every engine scenario.
TEST(TrajectoryPin, FixedLatencyHalfCrash) {
  shape::GridTorusShape shape(20, 10);
  engine::EventClusterConfig cfg;  // defaults: 2 ms links, no drop, K=2
  engine::EventCluster fleet(shape.space_ptr(), shape.generate(), cfg,
                             /*seed=*/1);
  fleet.run_rounds(25);
  fleet.crash_region(
      [&](const space::Point& p) { return shape.in_failure_half(p); });
  fleet.run_rounds(30);

  expect_traj(measure(fleet),
              Trajectory{"0.84499999999999997", "0.5253553390593273",
                         "1.2919095998979637", 52296, 63145},
              "fixed/half-crash");
}

// Jittered lossy links, K=4: converge, uncorrelated churn, inject fresh
// nodes, recover.  Exercises the FIFO-clamp path, drops, bootstrap-after-
// churn and the inject path — the draws the half-crash case never makes.
TEST(TrajectoryPin, JitteredChurnAndInject) {
  using namespace std::chrono_literals;
  shape::GridTorusShape shape(10, 10);
  const auto points = shape.generate();
  engine::EventClusterConfig cfg;
  cfg.node.replication = 4;
  cfg.latency_min = std::chrono::duration_cast<engine::SimTime>(1ms);
  cfg.latency_max = std::chrono::duration_cast<engine::SimTime>(3ms);
  cfg.drop_rate = 0.01;
  engine::EventCluster fleet(shape.space_ptr(), points, cfg, /*seed=*/42);
  fleet.run_rounds(20);
  fleet.crash_random(30);
  fleet.run_rounds(5);
  for (std::size_t i = 0; i < 10; ++i) fleet.inject(points[i * 7].pos);
  fleet.run_rounds(25);

  expect_traj(measure(fleet),
              Trajectory{"0.98999999999999999", "0.27000000000000002",
                         "1.0249636770515542", 43308, 41615},
              "jitter/churn+inject");
}

// Fault-plane chaos, K=2: partition with scheduled heal, in-flight payload
// corruption, GC-pause stalls, crash + recovery.  Pins every per-rule RNG
// stream of the fault plane (docs/FAULTS.md) plus the decode-boundary
// reject counter — a reordered fate draw or a shifted stall tick moves
// these even when the clean-link pins above stay put.
TEST(TrajectoryPin, ChaosPartitionStallRecover) {
  shape::GridTorusShape shape(12, 8);
  engine::EventClusterConfig cfg;  // defaults: 2 ms links, no drop, K=2
  engine::EventCluster fleet(shape.space_ptr(), shape.generate(), cfg,
                             /*seed=*/5);
  fleet.run_rounds(10);
  fleet.partition_region(
      [](const space::Point& p) { return p.x() < 6.0; }, /*heal_rounds=*/16);
  fleet.corrupt_frames(0.1, /*heal_rounds=*/20);
  fleet.run_rounds(20);
  fleet.stall_random(8, /*rounds=*/4);
  fleet.crash_random(10);
  fleet.run_rounds(10);
  fleet.recover_all();
  fleet.run_rounds(15);

  const auto& fc = fleet.fault_counters();
  if (std::getenv("POLY_TRAJ_PRINT") != nullptr) {
    std::printf("[traj] chaos blackholed=%llu corrupted=%llu stalls=%llu "
                "recoveries=%llu rejected=%llu\n",
                static_cast<unsigned long long>(fc.frames_blackholed),
                static_cast<unsigned long long>(fc.frames_corrupted),
                static_cast<unsigned long long>(fc.stall_rounds),
                static_cast<unsigned long long>(fc.recoveries),
                static_cast<unsigned long long>(fleet.frames_rejected()));
  } else {
    // stall_rounds < 8*4: crash_random lands on some stalled nodes, and a
    // crashed node's frozen ticks stop counting.
    EXPECT_EQ(fc.frames_blackholed, 1997ull);
    EXPECT_EQ(fc.frames_corrupted, 1104ull);
    EXPECT_EQ(fc.stall_rounds, 20ull);
    EXPECT_EQ(fc.recoveries, 10ull);
    EXPECT_EQ(fleet.frames_rejected(), 215ull);
  }
  expect_traj(measure(fleet),
              Trajectory{"0.95833333333333337", "0.22060459562165868",
                         "0.92678129243323715", 31193, 38625},
              "chaos/partition+stall+recover");
}

// Traffic plane, K=2: converge, serve an open-loop mixed workload through
// a half crash and a full recovery, drain.  Pins the workload counters
// and the latency histogram's quantiles (bit-stable by construction) on
// top of the protocol trajectory — a perturbed arrival draw, a changed
// hop rule, or a histogram layout change all move these constants.  The
// protocol pin doubles as the traffic-isolation proof: these values must
// match ChaosPartitionStallRecover's sibling fleets bit for bit whenever
// the same timeline runs without traffic.
TEST(TrajectoryPin, TrafficThroughCrashAndRecovery) {
  shape::GridTorusShape shape(12, 8);
  engine::EventClusterConfig cfg;  // defaults: 2 ms links, no drop, K=2
  engine::EventCluster fleet(shape.space_ptr(), shape.generate(), cfg,
                             /*seed=*/9);
  fleet.run_rounds(15);
  traffic::TrafficConfig tcfg;
  tcfg.rate_per_round = 24;
  tcfg.mix = traffic::Mix::kMixed;
  fleet.start_traffic(tcfg);
  fleet.run_rounds(15);
  fleet.crash_region(
      [&](const space::Point& p) { return shape.in_failure_half(p); });
  fleet.run_rounds(15);
  fleet.recover_all();
  fleet.run_rounds(15);
  fleet.stop_traffic();
  std::size_t drained = 0;
  while (fleet.traffic_inflight() > 0 && ++drained < 100) fleet.run_rounds(1);

  const traffic::TrafficPlane* plane = fleet.traffic_plane();
  ASSERT_NE(plane, nullptr);
  const traffic::TrafficCounters& t = plane->totals();
  if (std::getenv("POLY_TRAJ_PRINT") != nullptr) {
    std::printf("[traj] traffic launched=%llu completed=%llu failed=%llu "
                "hops=%llu p50=%s p99=%s drained=%zu\n",
                static_cast<unsigned long long>(t.launched),
                static_cast<unsigned long long>(t.completed),
                static_cast<unsigned long long>(t.failed),
                static_cast<unsigned long long>(t.hops_total),
                g17(t.latency.quantile_ms(0.5)).c_str(),
                g17(t.latency.quantile_ms(0.99)).c_str(), drained);
  } else {
    EXPECT_EQ(t.launched, 1104ull);
    EXPECT_EQ(t.completed, 1040ull);
    EXPECT_EQ(t.failed, 64ull);
    EXPECT_EQ(t.hops_total, 1723ull);
    EXPECT_EQ(g17(t.latency.quantile_ms(0.5)), "2.0316149999999999");
    EXPECT_EQ(g17(t.latency.quantile_ms(0.99)), "16.252927");
  }
  EXPECT_EQ(t.launched, t.completed + t.failed);
  EXPECT_EQ(fleet.traffic_inflight(), 0u);
  expect_traj(measure(fleet),
              Trajectory{"1", "0.14583333333333334", "0.95855015916845154",
                         37942, 41357},
              "traffic/crash+recover");
}

}  // namespace
