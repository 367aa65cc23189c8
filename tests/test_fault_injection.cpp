// Fault plane and chaos verbs (docs/FAULTS.md): rule matching and windows,
// per-rule RNG stream independence, payload corruption, the decode-boundary
// containment of corrupted frames, node stalls, crash-recovery, and the
// determinism of whole trajectories with faults active.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "engine/engine_transport.hpp"
#include "engine/event_cluster.hpp"
#include "engine/event_engine.hpp"
#include "fault/fault_plane.hpp"
#include "net/messages.hpp"
#include "net/runtime.hpp"
#include "shape/grid_torus.hpp"
#include "shape/ring_shape.hpp"
#include "space/point.hpp"
#include "traffic/workload.hpp"

namespace {

using namespace std::chrono_literals;
using poly::engine::EngineHub;
using poly::engine::EventCluster;
using poly::engine::EventClusterConfig;
using poly::engine::EventEngine;
using poly::engine::SimTime;
using poly::fault::Direction;
using poly::fault::FaultPlane;
using poly::fault::FrameFate;

constexpr SimTime kNever = SimTime::max();

// ---- rule matching ----------------------------------------------------------

TEST(FaultPlane, PartitionSeversCrossTrafficOnly) {
  FaultPlane plane(7);
  plane.add_partition({0, 1}, SimTime::zero(), kNever);

  EXPECT_FALSE(plane.fate(0, 1, 64, SimTime{1ms}).blackholed);  // inside
  EXPECT_FALSE(plane.fate(3, 2, 64, SimTime{1ms}).blackholed);  // outside
  EXPECT_TRUE(plane.fate(0, 2, 64, SimTime{1ms}).blackholed);   // out of set
  EXPECT_TRUE(plane.fate(2, 1, 64, SimTime{1ms}).blackholed);   // into set
  EXPECT_EQ(plane.counters().frames_blackholed, 2u);
}

TEST(FaultPlane, BlackholeIsDirected) {
  FaultPlane plane(7);
  plane.add_blackhole(4, 9, SimTime::zero(), kNever);
  EXPECT_TRUE(plane.fate(4, 9, 64, SimTime{1ms}).blackholed);
  EXPECT_FALSE(plane.fate(9, 4, 64, SimTime{1ms}).blackholed);
}

TEST(FaultPlane, WindowsAreHalfOpen) {
  FaultPlane plane(7);
  plane.add_partition({0}, SimTime{10ms}, SimTime{20ms});
  EXPECT_FALSE(plane.fate(0, 1, 64, SimTime{9ms}).blackholed);
  EXPECT_TRUE(plane.fate(0, 1, 64, SimTime{10ms}).blackholed);
  EXPECT_TRUE(plane.fate(0, 1, 64, SimTime{20ms} - SimTime{1}).blackholed);
  EXPECT_FALSE(plane.fate(0, 1, 64, SimTime{20ms}).blackholed);
}

TEST(FaultPlane, HealRebindsTheWindow) {
  FaultPlane plane(7);
  const auto id = plane.add_partition({0}, SimTime::zero(), kNever);
  EXPECT_TRUE(plane.fate(0, 1, 64, SimTime{30ms}).blackholed);
  plane.heal(id, SimTime{25ms});
  EXPECT_FALSE(plane.fate(0, 1, 64, SimTime{30ms}).blackholed);
  EXPECT_TRUE(plane.fate(0, 1, 64, SimTime{24ms}).blackholed);
}

TEST(FaultPlane, RulesMatchNodeIdsAcrossEndpointRebirth) {
  // A recovered node keeps its node id under a fresh endpoint; the rule
  // must keep matching through the remap.
  FaultPlane plane(7);
  plane.map_endpoint(/*endpoint=*/5, /*node=*/0);
  plane.add_partition({0}, SimTime::zero(), kNever);
  EXPECT_TRUE(plane.fate(5, 1, 64, SimTime{1ms}).blackholed);
  plane.map_endpoint(/*endpoint=*/9, /*node=*/0);  // recovery: new endpoint
  EXPECT_TRUE(plane.fate(9, 1, 64, SimTime{1ms}).blackholed);
}

TEST(FaultPlane, DuplicateAndReorderFates) {
  FaultPlane plane(7);
  plane.add_duplicate(1.0, SimTime::zero(), kNever);
  plane.add_reorder(1.0, SimTime{3ms}, SimTime::zero(), kNever);
  EXPECT_TRUE(plane.may_jitter());
  const FrameFate fate = plane.fate(0, 1, 64, SimTime{1ms});
  EXPECT_EQ(fate.copies, 2u);
  EXPECT_GT(fate.reorder_latency, SimTime::zero());
  EXPECT_LE(fate.reorder_latency, SimTime{3ms});
  EXPECT_EQ(plane.counters().frames_duplicated, 1u);
  EXPECT_EQ(plane.counters().frames_reordered, 1u);
}

TEST(FaultPlane, DegradeJitterEngagesFifoClamp) {
  FaultPlane plane(7);
  EXPECT_FALSE(plane.may_jitter());
  plane.add_degrade({0}, Direction::kBoth, 0.0, SimTime{2ms},
                    SimTime::zero(), kNever);
  EXPECT_TRUE(plane.may_jitter());
  const FrameFate fate = plane.fate(0, 1, 64, SimTime{1ms});
  EXPECT_FALSE(fate.blackholed);
  EXPECT_GE(fate.extra_latency, SimTime::zero());
  EXPECT_LE(fate.extra_latency, SimTime{2ms});
}

// ---- RNG stream discipline --------------------------------------------------

TEST(FaultPlane, SameSeedReplaysIdenticalFates) {
  auto run = [](std::uint64_t seed) {
    FaultPlane plane(seed);
    plane.add_degrade({0, 1}, Direction::kBoth, 0.5, SimTime{1ms},
                      SimTime::zero(), kNever);
    std::vector<bool> holes;
    for (int i = 0; i < 64; ++i)
      holes.push_back(plane.fate(0, 2, 64, SimTime{1ms}).blackholed);
    return holes;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(FaultPlane, LaterRulesDoNotPerturbEarlierStreams) {
  // Per-rule streams are keyed (seed, rule id): the degrade rule draws the
  // same sequence whether or not another rule is added after it.
  auto run = [](bool extra_rule) {
    FaultPlane plane(42);
    plane.add_degrade({0}, Direction::kBoth, 0.5, SimTime{1ms},
                      SimTime::zero(), kNever);
    if (extra_rule) plane.add_duplicate(1.0, SimTime::zero(), kNever);
    std::vector<bool> holes;
    for (int i = 0; i < 64; ++i)
      holes.push_back(plane.fate(0, 1, 64, SimTime{1ms}).blackholed);
    return holes;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(FaultPlane, CorruptPayloadAlwaysChangesBytes) {
  FaultPlane plane(7);
  for (int i = 0; i < 32; ++i) {
    std::vector<std::uint8_t> payload(16, 0xab);
    const auto before = payload;
    plane.corrupt_payload(payload);
    EXPECT_EQ(payload.size(), before.size());
    EXPECT_NE(payload, before);
  }
}

// ---- decode-boundary containment (AsyncNode under the events engine) --------

TEST(CorruptionHardening, MalformedFramesAreCountedNotFatal) {
  // Hand-crafted garbage straight into a live protocol node: every
  // malformed frame must die at the decode boundary — counted, dropped,
  // no exception escaping into the engine loop.
  EventEngine engine(11);
  EngineHub hub(engine);
  poly::shape::RingShape shape(8, 1.0);
  auto points = shape.generate();

  auto ep = hub.make_endpoint(0);
  auto attacker = hub.make_endpoint(1);
  poly::net::AsyncNode victim(0, shape.space_ptr(), std::move(ep),
                              points.at(0), {}, /*seed=*/5);
  victim.set_manual_drive([&] { return engine.clock(); });
  victim.start();

  // A valid frame, then mutations of it: truncated, type-mangled, and a
  // flipped length prefix.  The valid frame must be handled (rejects stay
  // at the mutation count), the rest must all be rejected.
  const auto valid = poly::net::encode_rps(
      poly::net::Header{poly::net::MsgType::kRpsShuffleResp, 1}, {{2, 3}});
  std::size_t expect_rejects = 0;

  ASSERT_TRUE(attacker->send(0, std::vector<std::uint8_t>(valid)));

  auto truncated = valid;
  truncated.resize(valid.size() / 2);
  ASSERT_TRUE(attacker->send(0, std::move(truncated)));
  ++expect_rejects;

  auto mangled = valid;
  mangled[0] = 0xff;  // unknown message type
  ASSERT_TRUE(attacker->send(0, std::move(mangled)));
  ++expect_rejects;

  ASSERT_TRUE(attacker->send(0, {0xff, 0x00, 0x01}));  // pure garbage
  ++expect_rejects;

  ASSERT_TRUE(
      attacker->send(0, std::vector<std::uint8_t>{}));  // empty
  ++expect_rejects;

  EXPECT_NO_THROW(engine.run());
  EXPECT_EQ(victim.frames_rejected(), expect_rejects);
  victim.stop();
}

TEST(CorruptionHardening, IdsPastTheFleetAreContactFailures) {
  // A corrupted frame that still decodes plants raw node ids, possibly far
  // beyond the fleet.  Sending to such an id must fail like a send to a
  // crashed peer (no out-of-range routing-table index), and a node that
  // gossiped them in must purge them on first contact.
  EventEngine engine(13);
  EngineHub hub(engine);
  poly::shape::RingShape shape(8, 1.0);
  const auto points = shape.generate();
  poly::net::AsyncNode victim(0, shape.space_ptr(), hub.make_endpoint(0),
                              points.at(0), {}, /*seed=*/5);
  victim.set_manual_drive([&] { return engine.clock(); });
  victim.start();
  auto attacker = hub.make_endpoint(1);
  attacker->set_handler([](poly::net::Message&) {});

  const std::vector<poly::net::LiveNodeId> bogus{2, 1000, 1ull << 40,
                                                 ~0ull};
  for (const poly::net::LiveNodeId id : bogus)
    EXPECT_FALSE(attacker->send(id, {1})) << id;
  EXPECT_EQ(hub.frames_sent(), 0u);

  // Gossip every bogus id into both views, positioned right next to the
  // victim so T-Man ranks them first.
  std::vector<poly::net::WirePeer> peers;
  std::vector<poly::net::WireDescriptor> descriptors;
  for (const poly::net::LiveNodeId id : bogus) {
    peers.push_back({id, 40, points.at(0).pos, 1});
    descriptors.push_back({id, points.at(0).pos, 1});
  }
  ASSERT_TRUE(attacker->send(
      0, poly::net::encode_rps(
             poly::net::Header{poly::net::MsgType::kRpsShuffleResp, 1},
             peers)));
  ASSERT_TRUE(attacker->send(
      0, poly::net::encode_tman(
             poly::net::Header{poly::net::MsgType::kTmanResp, 1},
             descriptors)));
  engine.run();
  auto bogus_in_view = [&] {
    std::size_t n = 0;
    victim.for_each_view_member(
        [](void* ctx, poly::net::LiveNodeId id, const poly::space::Point&,
           std::uint64_t) { *static_cast<std::size_t*>(ctx) += id >= 2; },
        &n);
    return n;
  };
  ASSERT_EQ(bogus_in_view(), bogus.size());
  EXPECT_EQ(victim.rps_view_size(), bogus.size());

  // Ticks contact them (T-Man target, RPS oldest, backups, migration):
  // each send fails and purges the id.  Fewer ticks than tman_ttl, so
  // aging cannot be what clears the view.
  for (int t = 0; t < 30; ++t) {
    EXPECT_NO_THROW(victim.drive_tick());
    engine.run();
  }
  EXPECT_EQ(bogus_in_view(), 0u);
  EXPECT_EQ(victim.rps_view_size(), 0u);
  EXPECT_EQ(victim.backup_target_count(), 0u);
  EXPECT_EQ(victim.frames_rejected(), 0u);
  victim.stop();
}

TEST(CorruptionHardening, FleetSurvivesTotalCorruption) {
  // Every in-flight frame corrupted: the fleet must keep running (rejects
  // bounded by corruptions; frames that still decode are absorbed).
  poly::shape::RingShape shape(16, 1.0);
  EventCluster fleet(shape.space_ptr(), shape.generate(),
                     EventClusterConfig{}, 3);
  fleet.run_rounds(5);
  fleet.corrupt_frames(1.0, /*heal_rounds=*/0);
  EXPECT_NO_THROW(fleet.run_rounds(10));
  EXPECT_GT(fleet.fault_counters().frames_corrupted, 0u);
  EXPECT_GT(fleet.frames_rejected(), 0u);
  EXPECT_LE(fleet.frames_rejected(),
            fleet.fault_counters().frames_corrupted);
  EXPECT_EQ(fleet.alive_count(), 16u);
}

TEST(CorruptionHardening, ServingFleetSurvivesCorruptedViewIds) {
  // A corrupted frame that still decodes can plant a node id beyond the
  // fleet in a T-Man view; the traffic plane's alive filter must reject
  // it instead of indexing past the fleet.
  poly::shape::GridTorusShape shape(40, 40);
  EventCluster fleet(shape.space_ptr(), shape.generate(),
                     EventClusterConfig{}, /*seed=*/1);
  poly::traffic::TrafficConfig tcfg;
  tcfg.rate_per_round = 160;
  fleet.start_traffic(tcfg);
  fleet.corrupt_frames(0.002, /*heal_rounds=*/0);
  fleet.run_rounds(20);
  EXPECT_EQ(fleet.crash_random(fleet.size() / 2), fleet.size() / 2);
  fleet.run_rounds(30);

  const poly::traffic::TrafficPlane* plane = fleet.traffic_plane();
  ASSERT_NE(plane, nullptr);
  const auto& t = plane->totals();
  EXPECT_GE(t.launched, 50u * 160u);
  EXPECT_EQ(t.launched, t.completed + t.failed + plane->in_flight());
  EXPECT_GT(t.completed, 0u);
  EXPECT_GT(fleet.fault_counters().frames_corrupted, 0u);
}

// ---- stalls -----------------------------------------------------------------

TEST(EventClusterFaults, StallFreezesExactlyTheStalledTicks) {
  poly::shape::RingShape shape(16, 1.0);
  EventCluster fleet(shape.space_ptr(), shape.generate(),
                     EventClusterConfig{}, 3);
  fleet.run_rounds(3);
  const std::size_t n =
      fleet.stall_region([](const poly::space::Point&) { return true; }, 4);
  EXPECT_EQ(n, 16u);
  fleet.run_rounds(8);
  // Every alive node misses exactly 4 ticks: 16 * 4 frozen node-ticks.
  EXPECT_EQ(fleet.fault_counters().stall_rounds, 16u * 4u);
  EXPECT_EQ(fleet.alive_count(), 16u);  // stalled, never dead
}

// ---- crash-recovery ---------------------------------------------------------

TEST(EventClusterFaults, RecoverRejoinsWithCountersAndAliveness) {
  poly::shape::RingShape shape(16, 1.0);
  EventCluster fleet(shape.space_ptr(), shape.generate(),
                     EventClusterConfig{}, 3);
  fleet.run_rounds(10);
  const std::size_t crashed = fleet.crash_random(6);
  EXPECT_EQ(crashed, 6u);
  EXPECT_EQ(fleet.alive_count(), 10u);
  fleet.run_rounds(10);

  EXPECT_EQ(fleet.recover_all(), 6u);
  EXPECT_EQ(fleet.fault_counters().recoveries, 6u);
  EXPECT_EQ(fleet.alive_count(), 16u);
  EXPECT_EQ(fleet.recover_all(), 0u);  // idempotent: nobody left to rejoin

  // The rejoined nodes (stale views and all) must settle back in.
  fleet.run_rounds(30);
  EXPECT_EQ(fleet.alive_count(), 16u);
  EXPECT_GT(fleet.reliability(), 0.9);
}

// ---- whole-trajectory determinism with faults active ------------------------

TEST(EventClusterFaults, ChaosTrajectoryReplaysBitForBit) {
  poly::shape::RingShape shape(16, 1.0);
  auto run_once = [&](std::uint64_t seed) {
    EventCluster fleet(shape.space_ptr(), shape.generate(),
                       EventClusterConfig{}, seed);
    fleet.run_rounds(5);
    fleet.partition_region(
        [](const poly::space::Point& p) { return p.x() < 0.0; },
        /*heal_rounds=*/6);
    fleet.corrupt_frames(0.1, /*heal_rounds=*/8);
    fleet.duplicate_frames(0.2, /*heal_rounds=*/8);
    fleet.run_rounds(10);
    fleet.crash_random(4);
    fleet.run_rounds(5);
    fleet.recover_all();
    fleet.run_rounds(10);
    return std::tuple{fleet.homogeneity(), fleet.reliability(),
                      fleet.fault_counters().frames_blackholed,
                      fleet.fault_counters().frames_corrupted,
                      fleet.fault_counters().frames_duplicated,
                      fleet.frames_rejected()};
  };
  EXPECT_EQ(run_once(99), run_once(99));
}

TEST(EventClusterFaults, EmptyPlaneLeavesTrajectoryUntouched) {
  // The plane is always installed; with no rules it must make zero draws —
  // a clean run rejects nothing and counts nothing.
  poly::shape::RingShape shape(16, 1.0);
  EventCluster fleet(shape.space_ptr(), shape.generate(),
                     EventClusterConfig{}, 3);
  fleet.run_rounds(20);
  EXPECT_EQ(fleet.frames_rejected(), 0u);
  EXPECT_EQ(fleet.fault_counters().frames_blackholed, 0u);
  EXPECT_EQ(fleet.fault_counters().frames_corrupted, 0u);
}

}  // namespace
