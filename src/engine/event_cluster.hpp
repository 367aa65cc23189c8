// Engine-driven fleet: the live AsyncNode protocol at simulation scale.
//
// EventCluster is LiveCluster's deterministic twin.  It runs the *same*
// protocol code — AsyncNode's on_tick / on_message handlers, the same wire
// codecs — but over the discrete-event kernel instead of threads and
// sockets: each node's tick is a self-rescheduling engine event, messages
// travel through an EngineHub with a pluggable latency/drop model, and
// "now" is the engine's virtual clock.  That removes the two scalability
// walls of the threaded runtime (one thread per node, wall-clock ticks):
// 100k-node churn and morph scenarios run in one process, reproducibly —
// the same seed replays the same execution, bit for bit.
//
// Typical scenario:
//
//   EventCluster fleet(shape.space_ptr(), shape.generate(), {}, seed);
//   fleet.run_rounds(40);                              // converge
//   fleet.crash_region([&](auto& p) { return shape.in_failure_half(p); });
//   fleet.run_rounds(40);                              // recover
//   assert(fleet.reliability() > 0.9);
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "engine/engine_transport.hpp"
#include "engine/event_engine.hpp"
#include "fault/fault_plane.hpp"
#include "net/fleet_metrics.hpp"
#include "net/runtime.hpp"
#include "space/metric_space.hpp"
#include "space/point.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "util/slab.hpp"

namespace poly::traffic {
class TrafficPlane;
struct TrafficConfig;
}  // namespace poly::traffic

namespace poly::engine {

/// Fleet configuration: protocol tunables + link model parameters.
struct EventClusterConfig {
  /// Per-node protocol tunables; `node.tick` is the *virtual* tick period.
  net::AsyncConfig node{};
  /// Link latency, uniform in [latency_min, latency_max].  The default is a
  /// fixed 2 ms — no jitter, so per-pair FIFO needs no clamp state.
  SimTime latency_min{std::chrono::milliseconds(2)};
  SimTime latency_max{std::chrono::milliseconds(2)};
  /// Per-frame loss rate (degraded-network scenarios; 0 = reliable links).
  double drop_rate = 0.0;
  /// Same-destination delivery batching window (see EngineHub): deliveries
  /// due within one window coalesce into a single engine event, keeping
  /// the destination node's state hot while its frames drain.  Delivery
  /// times round *up* to window boundaries (a monotone map, so per-pair
  /// FIFO is preserved) — the observed latency stretches by at most one
  /// window.  The default is one timer-wheel tick (~65.5 us, ~3% of the
  /// default 2 ms link latency); zero restores exact per-frame times.
  SimTime delivery_batch_window{EventEngine::tick_duration()};
};

/// The fleet's state-memory audit, from exact byte counters (arena and
/// slab) plus capacity sums for the heap-backed parts.  Deterministic for
/// a given (points, config, seed) trajectory.
struct MemoryBreakdown {
  std::size_t arena_used = 0;      ///< view storage handed out (exact)
  std::size_t arena_reserved = 0;  ///< arena chunk footprint (exact)
  std::size_t node_objects = 0;    ///< AsyncNode slab chunks (exact)
  std::size_t state_heap = 0;      ///< guest sets + ghost PointSets
  std::size_t hub_bytes = 0;       ///< EngineHub tables, pools, batches
  std::size_t total() const noexcept {
    return arena_reserved + node_objects + state_heap + hub_bytes;
  }
};

/// One node per data point, over an EngineHub, ticked by engine events.
class EventCluster {
 public:
  EventCluster(std::shared_ptr<const space::MetricSpace> space,
               const std::vector<space::DataPoint>& points,
               EventClusterConfig config, std::uint64_t seed);
  ~EventCluster();

  EventCluster(const EventCluster&) = delete;
  EventCluster& operator=(const EventCluster&) = delete;

  // ---- execution ---------------------------------------------------------

  /// Advances virtual time by `dur`, executing every due event.
  void run_for(SimTime dur);

  /// Advances by `n` virtual tick periods (each node ticks ~n times).
  void run_rounds(std::size_t n);

  EventEngine& engine() noexcept { return engine_; }
  const EngineHub& hub() const noexcept { return *hub_; }

  // ---- membership & churn -----------------------------------------------

  std::size_t size() const noexcept { return nodes_.size(); }
  net::AsyncNode& node(std::size_t i) { return nodes_[i]; }
  bool crashed(std::size_t i) const noexcept { return crashed_[i]; }
  std::size_t alive_count() const;

  /// Crash-stops every node whose *original* data point satisfies pred.
  std::size_t crash_region(
      const std::function<bool(const space::Point&)>& pred);

  /// Crash-stops `count` alive nodes chosen uniformly (uncorrelated churn).
  std::size_t crash_random(std::size_t count);

  /// Crash-stops node `idx`; returns false when out of range or already
  /// crashed (scenario programs crash explicit id lists).
  bool crash_node(std::size_t idx);

  /// Current advertised position of every alive node, in id order
  /// (snapshot density maps).
  std::vector<space::Point> alive_positions() const;

  /// Injects a fresh node (no data point) at `pos`, bootstrapped from a
  /// random sample of the alive nodes; returns its index.
  std::size_t inject(const space::Point& pos);

  // ---- recovery -----------------------------------------------------------
  // Crash-recovery (docs/FAULTS.md): a crashed node rejoins under a fresh
  // hub endpoint routing its old node id, keeping its pre-crash (stale)
  // views — the protocol must absorb the ghost of its former self.

  /// Rejoins crashed node `idx`; false when out of range or not crashed.
  bool recover_node(std::size_t idx);
  /// Rejoins every crashed node, in id order; returns the count.
  std::size_t recover_all();
  /// Rejoins `count` crashed nodes chosen uniformly; returns the count.
  std::size_t recover_random(std::size_t count);

  // ---- fault plane --------------------------------------------------------
  // Scheduled network chaos, applied per frame by the hub (docs/FAULTS.md).
  // `heal_rounds` bounds a fault's life in tick periods from now; 0 means
  // it never heals.  Region predicates test *original* data-point
  // positions, like crash_region.

  /// Partitions the nodes satisfying `pred` from the rest (both
  /// directions); returns the partitioned-side size.
  std::size_t partition_region(
      const std::function<bool(const space::Point&)>& pred,
      std::size_t heal_rounds);

  /// Gray links: traffic of the nodes satisfying `pred` (filtered by
  /// `dir`, relative to that set) suffers `extra_drop` loss and up to
  /// `jitter` extra latency; returns the degraded-set size.
  std::size_t degrade_region(
      const std::function<bool(const space::Point&)>& pred,
      fault::Direction dir, double extra_drop, SimTime jitter,
      std::size_t heal_rounds);

  /// Corrupts each in-flight frame's payload with probability `p`.
  void corrupt_frames(double p, std::size_t heal_rounds);
  /// Duplicates each in-flight frame with probability `p`.
  void duplicate_frames(double p, std::size_t heal_rounds);
  /// Reorders (delays by up to `jitter`, past the FIFO clamp) each
  /// in-flight frame with probability `p`.
  void reorder_frames(double p, SimTime jitter, std::size_t heal_rounds);

  // ---- stalls -------------------------------------------------------------
  // GC-pause model: a stalled node's *timers* freeze for `rounds` tick
  // periods — its ticks are skipped (each skip counts one stall_round) —
  // while its message handlers keep running and peers keep sending, so
  // its views age in place.  Distinct from a crash: peers see a slow
  // node, never a contact failure.

  /// Stalls every alive node satisfying `pred`; returns the count.
  std::size_t stall_region(const std::function<bool(const space::Point&)>& pred,
                           std::size_t rounds);
  /// Stalls `count` alive nodes chosen uniformly; returns the count.
  std::size_t stall_random(std::size_t count, std::size_t rounds);

  /// Cumulative fault counters (plane frame faults + stalls/recoveries).
  const fault::FaultCounters& fault_counters() const noexcept {
    return plane_.counters();
  }
  /// The plane itself (tests compose rules the cluster API doesn't).
  fault::FaultPlane& fault_plane() noexcept { return plane_; }

  /// Fleet-total frames dropped at the decode boundary (util::CodecError),
  /// summed over every node that ever lived.  Zero on clean links.
  std::uint64_t frames_rejected() const;

  // ---- traffic plane ------------------------------------------------------
  // Open-loop get/put workload routed over the live views (src/traffic/,
  // docs/TRAFFIC.md).  The plane is created lazily on the first
  // start_traffic and seeded from the cluster seed without consuming an
  // engine split — a fleet that never serves traffic draws the exact
  // pre-traffic trajectory, and one that does keeps its protocol
  // trajectory bit-identical (the plane only reads view snapshots).

  /// Starts (or retunes) the request workload.
  void start_traffic(const traffic::TrafficConfig& cfg);
  /// Stops injecting; in-flight requests drain as rounds run.
  void stop_traffic();
  /// In-flight request count (0 when traffic was never started).
  std::size_t traffic_inflight() const;
  /// The plane itself, or nullptr before the first start_traffic.
  const traffic::TrafficPlane* traffic_plane() const noexcept {
    return traffic_.get();
  }
  traffic::TrafficPlane* traffic_plane() noexcept { return traffic_.get(); }

  // ---- read surface for the traffic plane --------------------------------

  const EventClusterConfig& config() const noexcept { return cfg_; }
  const space::MetricSpace& metric_space() const noexcept { return *space_; }
  /// Original data points plus injected sentinels — the key population
  /// requests target (crashed nodes' keys stay targetable: the overlay is
  /// supposed to absorb them).
  const std::vector<space::DataPoint>& points() const noexcept {
    return points_;
  }
  /// Alive node ids, in swap-remove pool order (deterministic for a given
  /// trajectory; *not* id-sorted).
  const std::vector<std::uint32_t>& alive_ids() const noexcept {
    return alive_pool_;
  }
  /// One virtual tick period — the "round" every per-round rate is
  /// quoted against.
  SimTime round_period() const;

  // ---- metrics (fleet-level §IV-A) ---------------------------------------

  double homogeneity() const;
  double reliability() const;
  /// Geometric proximity (SpatialIndex k-NN over alive positions).
  double proximity(std::size_t k = 4) const;

  // ---- memory audit ------------------------------------------------------

  /// Itemized fleet memory (see MemoryBreakdown).  O(n): sums the per-node
  /// heap-backed state under each node's lock.
  MemoryBreakdown memory_breakdown() const;
  /// memory_breakdown().total() / size() — the bench/CI gating figure.
  std::size_t mem_bytes_per_node() const;

 private:
  std::size_t add_node(std::optional<space::DataPoint> initial);
  void bootstrap_node(std::size_t idx);
  void schedule_tick(std::size_t idx, SimTime delay);
  /// Swap-removes node `idx` from the alive-id pool (no-op if absent).
  void pool_remove(std::size_t idx);
  std::vector<net::FleetNodeState> alive_states() const;
  /// Node ids whose original data point satisfies `pred` (crashed
  /// included: membership is geometric, and a member may recover).
  std::vector<std::uint32_t> region_ids(
      const std::function<bool(const space::Point&)>& pred) const;
  /// `heal_rounds` tick periods from now; 0 → never (SimTime::max()).
  SimTime heal_at(std::size_t heal_rounds);

  std::shared_ptr<const space::MetricSpace> space_;
  EventClusterConfig cfg_;
  std::uint64_t seed_;  ///< cluster seed (traffic-plane derivation)
  EventEngine engine_;
  std::unique_ptr<EngineHub> hub_;
  util::Rng rng_;  // cluster-level draws: bootstrap samples, churn, jitter
  /// The fault plane, installed on the hub at construction.  Seeded from
  /// the cluster seed *without* consuming an engine split, so a fleet
  /// that never adds a rule draws the exact pre-fault-plane trajectory.
  fault::FaultPlane plane_;
  std::vector<space::DataPoint> points_;  // originals + injected sentinels
  /// Every node's view storage is carved from this arena (4 MB chunks:
  /// ~2,000 nodes per chunk at the default config's 2,064 B/node), and all
  /// nodes share one scratch — the engine drives them from one thread.
  /// Declared before nodes_ so the nodes (whose views point into the
  /// arena) are destroyed first.
  util::Arena arena_{std::size_t{4} << 20};
  net::AsyncScratch scratch_;
  /// Nodes live in a chunked slab indexed by node id: the per-delivery
  /// random-node walk lands in packed storage instead of chasing one heap
  /// pointer per node.
  util::ObjectSlab<net::AsyncNode> nodes_;
  std::vector<bool> crashed_;
  /// Per-node stall deadline: a tick firing before stall_until_[i] is
  /// skipped (and counted) instead of driven.  Zero = not stalled.
  std::vector<SimTime> stall_until_;
  /// The shared alive-id pool: every alive node id, in swap-remove order.
  /// bootstrap_node samples seed ids straight from it (O(seeds) per node;
  /// the old per-node rebuild of an all-alive candidate vector made fleet
  /// bootstrap O(n²)), and crash_random draws victims from it without an
  /// O(n) alive scan.  pool_pos_[id] is id's slot (kNotInPool if crashed).
  std::vector<std::uint32_t> alive_pool_;
  std::vector<std::uint32_t> pool_pos_;
  static constexpr std::uint32_t kNotInPool = 0xffffffffu;
  // Bootstrap/churn scratch: reused across calls, no steady allocation.
  std::vector<std::size_t> sample_scratch_;
  std::vector<net::LiveNodeId> seed_scratch_;
  /// Lazily-created request workload (nullptr until start_traffic).
  std::unique_ptr<traffic::TrafficPlane> traffic_;
};

}  // namespace poly::engine
