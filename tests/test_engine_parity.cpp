// Tests for the discrete-event kernel and the sync-driver port: event
// ordering and cancellation, per-node RNG streams, the engine transport's
// delivery semantics, and the headline parity property — for a fixed seed,
// the lock-step scenario driver and its degenerate event-engine schedule
// produce bit-identical homogeneity / proximity metrics.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/engine_transport.hpp"
#include "engine/event_cluster.hpp"
#include "engine/event_engine.hpp"
#include "engine/sync_driver.hpp"
#include "scenario/simulation.hpp"
#include "shape/grid_torus.hpp"
#include "shape/ring_shape.hpp"

namespace {

using namespace std::chrono_literals;
using poly::engine::EngineHub;
using poly::engine::EventCluster;
using poly::engine::EventClusterConfig;
using poly::engine::EventEngine;
using poly::engine::SimTime;
using poly::engine::SyncDriver;
using poly::engine::UniformLatency;
using poly::engine::ZeroLatency;

// ---- kernel -----------------------------------------------------------------

TEST(EventEngine, ExecutesInTimestampOrder) {
  EventEngine engine(1);
  std::vector<int> order;
  engine.schedule_at(SimTime{30}, [&] { order.push_back(3); });
  engine.schedule_at(SimTime{10}, [&] { order.push_back(1); });
  engine.schedule_at(SimTime{20}, [&] { order.push_back(2); });
  EXPECT_EQ(engine.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), SimTime{30});
}

TEST(EventEngine, SimultaneousEventsAreFifo) {
  EventEngine engine(1);
  std::vector<int> order;
  for (int i = 0; i < 16; ++i)
    engine.schedule_at(SimTime{5}, [&, i] { order.push_back(i); });
  engine.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventEngine, HandlersScheduleFurtherEvents) {
  EventEngine engine(1);
  std::vector<SimTime> fired;
  engine.schedule_at(SimTime{10}, [&] {
    fired.push_back(engine.now());
    engine.schedule_after(SimTime{5}, [&] { fired.push_back(engine.now()); });
  });
  engine.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], SimTime{10});
  EXPECT_EQ(fired[1], SimTime{15});
}

TEST(EventEngine, PastSchedulingClampsToNow) {
  EventEngine engine(1);
  engine.schedule_at(SimTime{100}, [] {});
  engine.run();
  bool ran = false;
  engine.schedule_at(SimTime{10}, [&] {
    ran = true;
    EXPECT_EQ(engine.now(), SimTime{100});
  });
  engine.run();
  EXPECT_TRUE(ran);
}

TEST(EventEngine, CancelSkipsEvent) {
  EventEngine engine(1);
  int fired = 0;
  const auto id = engine.schedule_at(SimTime{10}, [&] { ++fired; });
  engine.schedule_at(SimTime{20}, [&] { ++fired; });
  engine.cancel(id);
  EXPECT_EQ(engine.run(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(EventEngine, RunUntilStopsAtBoundary) {
  EventEngine engine(1);
  std::vector<int> fired;
  engine.schedule_at(SimTime{10}, [&] { fired.push_back(1); });
  engine.schedule_at(SimTime{20}, [&] { fired.push_back(2); });
  engine.schedule_at(SimTime{21}, [&] { fired.push_back(3); });
  EXPECT_EQ(engine.run_until(SimTime{20}), 2u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(engine.now(), SimTime{20});  // advanced exactly to the boundary
  engine.run();
  EXPECT_EQ(fired.size(), 3u);
}

TEST(EventEngine, RunUntilSkipsCancelledHead) {
  EventEngine engine(1);
  int fired = 0;
  const auto id = engine.schedule_at(SimTime{10}, [&] { ++fired; });
  engine.schedule_at(SimTime{50}, [&] { ++fired; });
  engine.cancel(id);
  // A naive loop would pop the cancelled head and then run the t=50 event
  // even though the window ends at 20.
  EXPECT_EQ(engine.run_until(SimTime{20}), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(engine.now(), SimTime{20});
}

TEST(EventEngine, SplitRngStreamsAreSeedDeterministic) {
  EventEngine a(42);
  EventEngine b(42);
  EventEngine c(43);
  auto ra1 = a.split_rng();
  auto ra2 = a.split_rng();
  auto rb1 = b.split_rng();
  EXPECT_EQ(ra1.next_u64(), rb1.next_u64());  // same seed, same stream
  auto rc1 = c.split_rng();
  EXPECT_NE(ra2.next_u64(), rc1.next_u64());  // different seed
}

TEST(EventEngine, VirtualClockMapsToSteadyTimePoints) {
  EventEngine engine(1);
  const auto t0 = engine.clock();
  engine.schedule_at(SimTime{std::chrono::milliseconds(250)}, [] {});
  engine.run();
  EXPECT_EQ(engine.clock() - t0, 250ms);
}

// ---- engine transport -------------------------------------------------------

TEST(EngineTransport, DeliversWithLatency) {
  EventEngine engine(1);
  EngineHub hub(engine,
                std::make_unique<poly::engine::FixedLatency>(SimTime{3ms}));
  auto a = hub.make_endpoint(0);
  auto b = hub.make_endpoint(1);
  std::vector<std::string> got;
  b->set_handler([&](poly::net::Message m) {
    EXPECT_EQ(engine.now(), SimTime{3ms});
    got.emplace_back(m.payload.begin(), m.payload.end());
  });
  ASSERT_TRUE(a->send(1, {'h', 'i'}));
  engine.run();
  EXPECT_EQ(got, std::vector<std::string>{"hi"});
}

TEST(EngineTransport, SendToUnknownOrShutdownFails) {
  EventEngine engine(1);
  EngineHub hub(engine);
  auto a = hub.make_endpoint(0);
  EXPECT_FALSE(a->send(99, {1}));  // never registered, beyond the table
  EXPECT_THROW(hub.make_endpoint(0), std::invalid_argument);  // 0 is live
  auto b = hub.make_endpoint(1);
  b->shutdown();
  EXPECT_FALSE(a->send(1, {1}));
  EXPECT_EQ(hub.frames_sent(), 0u);  // contact failures are not sends
}

TEST(EngineTransport, InFlightFrameToCrashedEndpointIsDiscarded) {
  EventEngine engine(1);
  EngineHub hub(engine,
                std::make_unique<poly::engine::FixedLatency>(SimTime{5ms}));
  auto a = hub.make_endpoint(0);
  auto b = hub.make_endpoint(1);
  int delivered = 0;
  b->set_handler([&](poly::net::Message) { ++delivered; });
  ASSERT_TRUE(a->send(1, {1}));  // accepted while b is alive
  b->shutdown();                   // crashes before delivery
  engine.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(hub.frames_delivered(), 0u);
}

TEST(EngineTransport, JitteredLatencyPreservesPerPairFifo) {
  EventEngine engine(7);
  EngineHub hub(engine, std::make_unique<UniformLatency>(SimTime{1ms},
                                                         SimTime{50ms}));
  auto a = hub.make_endpoint(0);
  auto b = hub.make_endpoint(1);
  std::vector<std::uint8_t> got;
  b->set_handler(
      [&](poly::net::Message m) { got.push_back(m.payload.at(0)); });
  for (std::uint8_t i = 0; i < 50; ++i) ASSERT_TRUE(a->send(1, {i}));
  engine.run();
  ASSERT_EQ(got.size(), 50u);
  for (std::uint8_t i = 0; i < 50; ++i) EXPECT_EQ(got[i], i);
}

/// Checks that `got` (payloads {sender, seq}) holds exactly seqs
/// 0..sent[s]-1 of every sender s, each sender's in sequence order.
void ExpectPerSenderFifo(const std::vector<std::vector<std::uint8_t>>& got,
                         const std::vector<std::size_t>& sent) {
  std::vector<std::size_t> next(sent.size(), 0);
  for (const auto& p : got) {
    ASSERT_LT(p.at(0), sent.size());
    EXPECT_EQ(p.at(1), next[p[0]]) << "sender " << int{p[0]};
    ++next[p[0]];
  }
  EXPECT_EQ(next, sent);
}

TEST(EngineTransport, InterleavedSendersKeepPerPairFifo) {
  // Several senders share one destination's clamp list; time advances
  // between bursts so entries expire and are pruned while others are
  // still in flight.
  EventEngine engine(11);
  EngineHub hub(engine, std::make_unique<UniformLatency>(SimTime{1ms},
                                                         SimTime{50ms}));
  auto d = hub.make_endpoint(3);
  std::vector<std::unique_ptr<poly::engine::EngineTransport>> senders;
  for (int i = 0; i < 6; ++i)
    senders.push_back(hub.make_endpoint(10 + i));
  std::vector<std::vector<std::uint8_t>> got;
  d->set_handler([&](poly::net::Message& m) { got.push_back(m.payload); });
  std::vector<std::size_t> sent(6, 0);
  for (int step = 0; step < 40; ++step) {
    for (std::uint8_t s = 0; s < 6; ++s) {
      if ((step + s) % 3 == 0) continue;  // staggered gaps per sender
      const auto seq = static_cast<std::uint8_t>(sent[s]++);
      ASSERT_TRUE(senders[s]->send(3, {s, seq}));
    }
    engine.run_until(engine.now() + SimTime{3ms});
  }
  engine.run();
  ExpectPerSenderFifo(got, sent);
}

/// Hands out a fixed script of latencies, so a test can place a clamp
/// entry exactly where it wants it.
class ScriptedLatency final : public poly::engine::LinkModel {
 public:
  explicit ScriptedLatency(std::vector<SimTime> script)
      : script_(std::move(script)) {}
  SimTime latency(std::size_t, poly::util::Rng&) override {
    return script_.at(next_++);
  }
  bool may_reorder() const noexcept override { return true; }

 private:
  std::vector<SimTime> script_;
  std::size_t next_ = 0;
};

TEST(EngineTransport, SenderResumingAfterItsClampExpiredKeepsFifo) {
  // a's frame 0 is due at 10 ms.  At 9 ms c's send prunes d's list: a's
  // entry is still in flight and must survive it, so a's frame 1 (drawn
  // 0.5 ms) is clamped behind frame 0.  At 20 ms a's entry has expired:
  // c's send drops it, and a's frame 2 then arrives on its own drawn time.
  EventEngine engine(1);
  EngineHub hub(engine, std::make_unique<ScriptedLatency>(std::vector<SimTime>{
                            10ms, 5ms, 500us, 5ms, 1ms}));
  auto a = hub.make_endpoint(0);
  auto c = hub.make_endpoint(2);
  auto d = hub.make_endpoint(3);
  std::vector<std::vector<std::uint8_t>> got;
  std::vector<SimTime> a_times;
  d->set_handler([&](poly::net::Message& m) {
    got.push_back(m.payload);
    if (m.payload[0] == 0) a_times.push_back(engine.now());
  });
  ASSERT_TRUE(a->send(3, {0, 0}));  // due 10 ms
  engine.run_until(SimTime{9ms});
  ASSERT_TRUE(c->send(3, {1, 0}));  // due 14 ms
  ASSERT_TRUE(a->send(3, {0, 1}));  // drawn 9.5 ms, clamped to 10 ms
  engine.run_until(SimTime{20ms});
  ASSERT_TRUE(c->send(3, {1, 1}));  // due 25 ms
  ASSERT_TRUE(a->send(3, {0, 2}));  // due 21 ms
  engine.run();
  ExpectPerSenderFifo(got, {3, 2});
  EXPECT_EQ(a_times, (std::vector<SimTime>{10ms, 10ms, 21ms}));
}

TEST(EngineTransport, ReregisteredDestinationGetsOnlyItsOwnFramesInOrder) {
  EventEngine engine(9);
  EngineHub hub(engine, std::make_unique<UniformLatency>(SimTime{1ms},
                                                         SimTime{50ms}));
  auto a = hub.make_endpoint(0);
  auto b = hub.make_endpoint(1);
  int old_delivered = 0;
  b->set_handler([&](poly::net::Message&) { ++old_delivered; });
  for (std::uint8_t i = 0; i < 20; ++i) ASSERT_TRUE(a->send(1, {0, i}));
  engine.run_until(SimTime{10ms});
  const int before_crash = old_delivered;
  b->shutdown();  // frames still in flight to the old b
  b = hub.make_endpoint(1);
  std::vector<std::vector<std::uint8_t>> got;
  b->set_handler([&](poly::net::Message& m) { got.push_back(m.payload); });
  for (std::uint8_t i = 0; i < 20; ++i) ASSERT_TRUE(a->send(1, {0, i}));
  engine.run();
  EXPECT_EQ(old_delivered, before_crash);
  ExpectPerSenderFifo(got, {20});
  EXPECT_EQ(hub.frames_delivered(),
            static_cast<std::uint64_t>(before_crash) + 20u);
}

TEST(EngineTransport, ClampFootprintStaysBoundedByFramesInFlight) {
  // 64 endpoints each send one frame per millisecond to a random peer
  // (one random offset per step, so every destination gets one frame a
  // step) over 1-3 ms jittered links: at most three frames are ever in
  // flight to a destination, while the pairs that have talked keep
  // growing toward all 64 x 63.  The hub's footprint after ten times the
  // warm-up must not exceed the warm-up figure.  The handler takes each
  // payload, so the buffer pool (sized by the in-flight high-water) stays
  // empty and the figure is the endpoint tables plus clamp and batching
  // state.
  constexpr std::size_t kEndpoints = 64;
  EventEngine engine(3);
  EngineHub hub(engine, std::make_unique<UniformLatency>(SimTime{1ms},
                                                         SimTime{3ms}));
  std::vector<std::unique_ptr<poly::engine::EngineTransport>> eps;
  for (std::size_t i = 0; i < kEndpoints; ++i) {
    eps.push_back(hub.make_endpoint(i));
    eps.back()->set_handler([](poly::net::Message& m) {
      std::vector<std::uint8_t> taken = std::move(m.payload);
    });
  }
  poly::util::Rng rng(17);
  auto run_steps = [&](int steps) {
    for (int t = 0; t < steps; ++t) {
      const std::size_t offset = 1 + rng.index(kEndpoints - 1);
      for (std::size_t i = 0; i < kEndpoints; ++i)
        ASSERT_TRUE(eps[i]->send((i + offset) % kEndpoints, {1}));
      engine.run_until(engine.now() + SimTime{1ms});
    }
  };
  run_steps(20);
  const std::size_t warm = hub.approx_bytes();
  run_steps(200);
  engine.run();
  EXPECT_LE(hub.approx_bytes(), warm);
  EXPECT_EQ(hub.frames_delivered(), 220u * kEndpoints);
}

TEST(EngineTransport, SameInstantFramesCoalesceAndKeepSendOrder) {
  // Several senders hit one destination at the same instant: the first
  // frame's head event drains the followers, in global send order.
  EventEngine engine(1);
  EngineHub hub(engine,
                std::make_unique<poly::engine::FixedLatency>(SimTime{2ms}));
  auto d = hub.make_endpoint(3);
  std::vector<std::unique_ptr<poly::engine::EngineTransport>> senders;
  for (int i = 0; i < 6; ++i)
    senders.push_back(hub.make_endpoint(10 + i));
  std::vector<std::uint8_t> got;
  d->set_handler([&](poly::net::Message m) {
    EXPECT_EQ(engine.now(), SimTime{2ms});  // one instant for all six
    got.push_back(m.payload.at(0));
  });
  for (std::uint8_t i = 0; i < 6; ++i)
    ASSERT_TRUE(senders[i]->send(3, {i}));
  engine.run();
  ASSERT_EQ(got.size(), 6u);
  for (std::uint8_t i = 0; i < 6; ++i) EXPECT_EQ(got[i], i);
  EXPECT_EQ(hub.frames_delivered(), 6u);
}

TEST(EngineTransport, BatchWindowRoundsDeliveryUpToBoundary) {
  EventEngine engine(1);
  // 2.5 ms latency, 1 ms batch window: delivery rounds up to the next
  // window boundary (3 ms), not the raw latency instant.
  EngineHub hub(engine,
                std::make_unique<poly::engine::FixedLatency>(
                    SimTime{std::chrono::microseconds(2500)}),
                /*batch_window=*/SimTime{1ms});
  auto a = hub.make_endpoint(0);
  auto b = hub.make_endpoint(1);
  int delivered = 0;
  b->set_handler([&](poly::net::Message) {
    ++delivered;
    EXPECT_EQ(engine.now(), SimTime{3ms});  // 2.5 ms rounded up to 3 ms
  });
  ASSERT_TRUE(a->send(1, {1}));
  engine.run();
  EXPECT_EQ(delivered, 1);
}

TEST(EngineTransport, ManyOpenInstantsOverflowTheInlineMarkers) {
  // More concurrent open instants per destination than the inline marker
  // capacity (3): later instants take the overflow path, and every frame
  // still arrives exactly once, in timestamp order, with followers on an
  // overflowed instant drained by its head.
  EventEngine engine(1);
  EngineHub hub(engine,
                std::make_unique<poly::engine::FixedLatency>(SimTime{20ms}));
  auto d = hub.make_endpoint(3);
  auto s = hub.make_endpoint(4);
  auto s2 = hub.make_endpoint(5);
  std::vector<std::uint8_t> got;
  d->set_handler(
      [&](poly::net::Message m) { got.push_back(m.payload.at(0)); });
  // Open six distinct instants (sends staggered 1 ms apart), the last one
  // with a follower from a second sender.
  for (std::uint8_t i = 0; i < 6; ++i) {
    engine.schedule_at(SimTime{1ms} * i, [&, i] {
      ASSERT_TRUE(s->send(3, {i}));
      if (i == 5) ASSERT_TRUE(s2->send(3, {std::uint8_t{100}}));
    });
  }
  engine.run();
  ASSERT_EQ(got.size(), 7u);
  for (std::uint8_t i = 0; i < 6; ++i) EXPECT_EQ(got[i], i);
  EXPECT_EQ(got[6], 100);  // follower right after its head
  EXPECT_EQ(hub.frames_delivered(), 7u);
}

TEST(EngineTransport, DropModelLosesFramesSilently) {
  EventEngine engine(3);
  EngineHub hub(engine, std::make_unique<UniformLatency>(
                            SimTime{1ms}, SimTime{1ms}, /*drop_rate=*/0.5));
  auto a = hub.make_endpoint(0);
  auto b = hub.make_endpoint(1);
  int delivered = 0;
  b->set_handler([&](poly::net::Message) { ++delivered; });
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(a->send(1, {1}));
  engine.run();
  EXPECT_EQ(hub.frames_dropped() + hub.frames_delivered(), 200u);
  EXPECT_GT(hub.frames_dropped(), 50u);
  EXPECT_GT(delivered, 50);
}

// ---- sync-driver parity -----------------------------------------------------

/// Runs the paper's three phases on a Simulation, with rounds executed
/// either directly or through a SyncDriver on an event engine.
struct Metrics {
  double homogeneity;
  double proximity;
  double reliability;
  double points_per_node;
};

template <typename RunRounds>
Metrics run_scenario(poly::scenario::Simulation& sim, RunRounds&& rounds) {
  rounds(10);
  sim.crash_failure_half();
  rounds(10);
  sim.reinject(sim.network().num_total() - sim.network().num_alive());
  rounds(10);
  return Metrics{sim.homogeneity(), sim.proximity(), sim.reliability(),
                 sim.avg_points_per_node()};
}

TEST(SyncDriverParity, IdenticalMetricsForSameSeed) {
  poly::shape::GridTorusShape shape(16, 8);
  poly::scenario::SimulationConfig config;
  config.seed = 5;

  poly::scenario::Simulation direct(shape, config);
  const Metrics a = run_scenario(direct,
                                 [&](std::size_t n) { direct.run_rounds(n); });

  poly::scenario::Simulation engined(shape, config);
  EventEngine engine(5);
  SyncDriver driver(engined, engine);
  const Metrics b = run_scenario(
      engined, [&](std::size_t n) { driver.run_rounds(n); });

  // Bit-identical, not approximately equal: the engine schedule replays the
  // exact same call sequence.
  EXPECT_EQ(a.homogeneity, b.homogeneity);
  EXPECT_EQ(a.proximity, b.proximity);
  EXPECT_EQ(a.reliability, b.reliability);
  EXPECT_EQ(a.points_per_node, b.points_per_node);
  EXPECT_EQ(driver.rounds_run(), 30u);
}

TEST(SyncDriverParity, ZeroPeriodDegenerateScheduleStillMatches) {
  poly::shape::GridTorusShape shape(10, 10);
  poly::scenario::SimulationConfig config;
  config.seed = 11;

  poly::scenario::Simulation direct(shape, config);
  direct.run_rounds(15);

  poly::scenario::Simulation engined(shape, config);
  EventEngine engine(11);
  SyncDriver driver(engined, engine, SimTime::zero());
  driver.run_rounds(15);

  EXPECT_EQ(engine.now(), SimTime::zero());  // all rounds at one timestamp
  EXPECT_EQ(direct.homogeneity(), engined.homogeneity());
  EXPECT_EQ(direct.proximity(), engined.proximity());
}

TEST(SyncDriverParity, BareSubstrateBaselineAlsoMatches) {
  poly::shape::GridTorusShape shape(10, 10);
  poly::scenario::SimulationConfig config;
  config.seed = 23;
  config.polystyrene = false;

  poly::scenario::Simulation direct(shape, config);
  const Metrics a = run_scenario(direct,
                                 [&](std::size_t n) { direct.run_rounds(n); });

  poly::scenario::Simulation engined(shape, config);
  EventEngine engine(23);
  SyncDriver driver(engined, engine);
  const Metrics b = run_scenario(
      engined, [&](std::size_t n) { driver.run_rounds(n); });

  EXPECT_EQ(a.homogeneity, b.homogeneity);
  EXPECT_EQ(a.proximity, b.proximity);
}

// ---- event-cluster determinism ----------------------------------------------

TEST(EventClusterDeterminism, SameSeedReplaysBitForBit) {
  poly::shape::RingShape shape(16, 1.0);
  auto run_once = [&](std::uint64_t seed) {
    EventCluster fleet(shape.space_ptr(), shape.generate(),
                       EventClusterConfig{}, seed);
    fleet.run_rounds(30);
    fleet.crash_region(
        [&](const poly::space::Point& p) { return shape.in_failure_half(p); });
    fleet.run_rounds(40);
    return std::pair<double, double>{fleet.homogeneity(),
                                     fleet.reliability()};
  };
  const auto a = run_once(99);
  const auto b = run_once(99);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
