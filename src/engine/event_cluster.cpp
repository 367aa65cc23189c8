#include "engine/event_cluster.hpp"

#include <algorithm>
#include <utility>

#include "traffic/workload.hpp"

namespace poly::engine {

namespace {

SimTime tick_period(const EventClusterConfig& cfg) {
  const auto t = std::chrono::duration_cast<SimTime>(cfg.node.tick);
  return t > SimTime::zero() ? t : std::chrono::milliseconds(1);
}

}  // namespace

EventCluster::EventCluster(std::shared_ptr<const space::MetricSpace> space,
                           const std::vector<space::DataPoint>& points,
                           EventClusterConfig config, std::uint64_t seed)
    : space_(std::move(space)),
      cfg_(config),
      seed_(seed),
      engine_(seed),
      hub_(std::make_unique<EngineHub>(
          engine_,
          std::make_unique<UniformLatency>(cfg_.latency_min, cfg_.latency_max,
                                           cfg_.drop_rate),
          cfg_.delivery_batch_window)),
      rng_(engine_.split_rng()),
      // Keyed off the cluster seed directly (not an engine split): the
      // plane exists whether or not faults are used, and consuming a
      // split here would shift every per-node stream and break the
      // pre-fault-plane trajectory pins.
      plane_(seed ^ 0x8ad5e4f1a3c927b1ull) {
  hub_->set_fault_plane(&plane_);
  scratch_.bind(arena_, cfg_.node);
  points_.reserve(points.size());
  for (const auto& dp : points) {
    points_.push_back(dp);
    add_node(dp);
  }
  // Bootstrap after all endpoints exist, so contact samples span the fleet.
  for (std::size_t i = 0; i < nodes_.size(); ++i) bootstrap_node(i);
  const SimTime period = tick_period(cfg_);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].start();
    // Random phase offset: nodes tick desynchronized, as live fleets do.
    schedule_tick(i, SimTime{rng_.uniform_i64(0, period.count() - 1)});
  }
}

EventCluster::~EventCluster() = default;

std::size_t EventCluster::add_node(std::optional<space::DataPoint> initial) {
  const std::size_t idx = nodes_.size();
  // The hub routes node id `idx` to this endpoint.  The fault plane
  // matches node ids, not endpoint ids (a recovered node keeps its id
  // under a fresh endpoint): register the mapping for every endpoint ever
  // made.  make_endpoint draws no randomness, so hoisting it out of the
  // emplace leaves the per-node seed sequence unchanged.
  auto ep = hub_->make_endpoint(static_cast<net::LiveNodeId>(idx));
  plane_.map_endpoint(ep->endpoint_id(), static_cast<std::uint32_t>(idx));
  net::AsyncNode& node = nodes_.emplace_back(
      static_cast<net::LiveNodeId>(idx), space_, std::move(ep),
      std::move(initial), cfg_.node, engine_.split_rng().next_u64(), &arena_,
      &scratch_);
  node.set_manual_drive([this] { return engine_.clock(); });
  crashed_.push_back(false);
  stall_until_.push_back(SimTime::zero());
  pool_pos_.push_back(static_cast<std::uint32_t>(alive_pool_.size()));
  alive_pool_.push_back(static_cast<std::uint32_t>(idx));
  return idx;
}

void EventCluster::pool_remove(std::size_t idx) {
  const std::uint32_t pos = pool_pos_[idx];
  if (pos == kNotInPool) return;
  const std::uint32_t last = alive_pool_.back();
  alive_pool_[pos] = last;
  pool_pos_[last] = pos;
  alive_pool_.pop_back();
  pool_pos_[idx] = kNotInPool;
}

void EventCluster::bootstrap_node(std::size_t idx) {
  // Seeds come straight from the shared alive-id pool: the node's own slot
  // is swapped to the back so the sample runs over the other alive ids,
  // then sample_indices_into draws `rps_view` distinct slots — O(seeds)
  // per node, against the O(n) per-node candidate-vector rebuild (O(n²)
  // across a fleet bootstrap) this replaces.
  const std::uint32_t self = pool_pos_[idx];
  const std::uint32_t back = static_cast<std::uint32_t>(alive_pool_.size() - 1);
  if (self != back) {
    std::swap(alive_pool_[self], alive_pool_[back]);
    pool_pos_[alive_pool_[self]] = self;
    pool_pos_[alive_pool_[back]] = back;
  }
  const std::size_t others = alive_pool_.size() - 1;
  rng_.sample_indices_into(others, std::min(cfg_.node.rps_view, others),
                           sample_scratch_);
  seed_scratch_.clear();
  for (std::size_t slot : sample_scratch_)
    seed_scratch_.push_back(static_cast<net::LiveNodeId>(alive_pool_[slot]));
  nodes_[idx].bootstrap(seed_scratch_);
}

void EventCluster::schedule_tick(std::size_t idx, SimTime delay) {
  engine_.schedule_after(delay, [this, idx] {
    if (crashed_[idx]) return;  // stop rescheduling after a crash
    if (engine_.now() < stall_until_[idx]) {
      // Stalled (GC-pause model, docs/FAULTS.md): the tick is skipped but
      // the timer chain survives — message handlers keep running and the
      // node resumes on its old phase when the pause ends.
      ++plane_.counters().stall_rounds;
      schedule_tick(idx, tick_period(cfg_));
      return;
    }
    nodes_[idx].drive_tick();
    schedule_tick(idx, tick_period(cfg_));
  });
}

void EventCluster::run_for(SimTime dur) {
  engine_.run_until(engine_.now() + dur);
}

void EventCluster::run_rounds(std::size_t n) {
  run_for(tick_period(cfg_) * static_cast<std::int64_t>(n));
}

std::size_t EventCluster::alive_count() const {
  return alive_pool_.size();
}

std::size_t EventCluster::crash_region(
    const std::function<bool(const space::Point&)>& pred) {
  std::size_t crashed = 0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (!crashed_[i] && pred(points_[i].pos)) {
      nodes_[i].crash();
      crashed_[i] = true;
      pool_remove(i);
      ++crashed;
    }
  }
  return crashed;
}

std::size_t EventCluster::crash_random(std::size_t count) {
  // Victims are drawn from the alive-id pool directly (no alive scan).
  // Slots resolve to node ids *before* any crash: each pool_remove
  // swap-removes and would invalidate later slot draws.
  rng_.sample_indices_into(alive_pool_.size(),
                           std::min(count, alive_pool_.size()),
                           sample_scratch_);
  for (std::size_t& slot : sample_scratch_) slot = alive_pool_[slot];
  std::size_t crashed = 0;
  for (std::size_t i : sample_scratch_) {
    nodes_[i].crash();
    crashed_[i] = true;
    pool_remove(i);
    ++crashed;
  }
  return crashed;
}

bool EventCluster::crash_node(std::size_t idx) {
  if (idx >= nodes_.size() || crashed_[idx]) return false;
  nodes_[idx].crash();
  crashed_[idx] = true;
  pool_remove(idx);
  return true;
}

std::vector<space::Point> EventCluster::alive_positions() const {
  std::vector<space::Point> out;
  out.reserve(alive_pool_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (!crashed_[i]) out.push_back(nodes_[i].position());
  return out;
}

std::size_t EventCluster::inject(const space::Point& pos) {
  const std::size_t idx = add_node(std::nullopt);
  points_.push_back({space::kInvalidPointId, pos});
  bootstrap_node(idx);
  nodes_[idx].start();
  schedule_tick(idx, tick_period(cfg_) / 2);
  return idx;
}

bool EventCluster::recover_node(std::size_t idx) {
  if (idx >= nodes_.size() || !crashed_[idx]) return false;
  // The old endpoint died with the crash and is never reused (frames in
  // flight to it are discarded); the hub now routes the node's id — the
  // one its stale view entries on peers still hold — to a fresh endpoint.
  auto ep = hub_->make_endpoint(static_cast<net::LiveNodeId>(idx));
  plane_.map_endpoint(ep->endpoint_id(), static_cast<std::uint32_t>(idx));
  nodes_[idx].recover(std::move(ep));
  crashed_[idx] = false;
  stall_until_[idx] = SimTime::zero();
  pool_pos_[idx] = static_cast<std::uint32_t>(alive_pool_.size());
  alive_pool_.push_back(static_cast<std::uint32_t>(idx));
  ++plane_.counters().recoveries;
  nodes_[idx].start();
  // Fresh random phase, like any starting node.
  schedule_tick(idx,
                SimTime{rng_.uniform_i64(0, tick_period(cfg_).count() - 1)});
  return true;
}

std::size_t EventCluster::recover_all() {
  std::size_t n = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (crashed_[i] && recover_node(i)) ++n;
  return n;
}

std::size_t EventCluster::recover_random(std::size_t count) {
  // Candidates in id order (deterministic), then a uniform sample.
  std::vector<std::uint32_t> crashed_ids;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (crashed_[i]) crashed_ids.push_back(static_cast<std::uint32_t>(i));
  rng_.sample_indices_into(crashed_ids.size(),
                           std::min(count, crashed_ids.size()),
                           sample_scratch_);
  std::size_t n = 0;
  for (std::size_t slot : sample_scratch_)
    if (recover_node(crashed_ids[slot])) ++n;
  return n;
}

std::vector<std::uint32_t> EventCluster::region_ids(
    const std::function<bool(const space::Point&)>& pred) const {
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < points_.size(); ++i)
    if (pred(points_[i].pos)) ids.push_back(static_cast<std::uint32_t>(i));
  return ids;
}

SimTime EventCluster::heal_at(std::size_t heal_rounds) {
  if (heal_rounds == 0) return SimTime::max();
  return engine_.now() +
         tick_period(cfg_) * static_cast<std::int64_t>(heal_rounds);
}

std::size_t EventCluster::partition_region(
    const std::function<bool(const space::Point&)>& pred,
    std::size_t heal_rounds) {
  const std::vector<std::uint32_t> side = region_ids(pred);
  plane_.add_partition(side, engine_.now(), heal_at(heal_rounds));
  return side.size();
}

std::size_t EventCluster::degrade_region(
    const std::function<bool(const space::Point&)>& pred, fault::Direction dir,
    double extra_drop, SimTime jitter, std::size_t heal_rounds) {
  const std::vector<std::uint32_t> members = region_ids(pred);
  plane_.add_degrade(members, dir, extra_drop, jitter, engine_.now(),
                     heal_at(heal_rounds));
  return members.size();
}

void EventCluster::corrupt_frames(double p, std::size_t heal_rounds) {
  plane_.add_corrupt(p, engine_.now(), heal_at(heal_rounds));
}

void EventCluster::duplicate_frames(double p, std::size_t heal_rounds) {
  plane_.add_duplicate(p, engine_.now(), heal_at(heal_rounds));
}

void EventCluster::reorder_frames(double p, SimTime jitter,
                                  std::size_t heal_rounds) {
  plane_.add_reorder(p, jitter, engine_.now(), heal_at(heal_rounds));
}

std::size_t EventCluster::stall_region(
    const std::function<bool(const space::Point&)>& pred, std::size_t rounds) {
  const SimTime until =
      engine_.now() + tick_period(cfg_) * static_cast<std::int64_t>(rounds);
  std::size_t n = 0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (!crashed_[i] && pred(points_[i].pos)) {
      stall_until_[i] = until;
      ++n;
    }
  }
  return n;
}

std::size_t EventCluster::stall_random(std::size_t count, std::size_t rounds) {
  const SimTime until =
      engine_.now() + tick_period(cfg_) * static_cast<std::int64_t>(rounds);
  rng_.sample_indices_into(alive_pool_.size(),
                           std::min(count, alive_pool_.size()),
                           sample_scratch_);
  for (std::size_t slot : sample_scratch_)
    stall_until_[alive_pool_[slot]] = until;
  return sample_scratch_.size();
}

SimTime EventCluster::round_period() const {
  return tick_period(cfg_);
}

void EventCluster::start_traffic(const traffic::TrafficConfig& cfg) {
  if (!traffic_) {
    // Like the fault plane: keyed off the cluster seed directly, never an
    // engine split, so starting traffic cannot shift the per-node streams
    // and the protocol trajectory pins survive.
    traffic_ = std::make_unique<traffic::TrafficPlane>(
        *this, seed_ ^ 0x3f6c2a91e8d75b04ull);
  }
  traffic_->start(cfg);
}

void EventCluster::stop_traffic() {
  if (traffic_) traffic_->stop();
}

std::size_t EventCluster::traffic_inflight() const {
  return traffic_ ? traffic_->in_flight() : 0;
}

std::uint64_t EventCluster::frames_rejected() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    total += nodes_[i].frames_rejected();
  return total;
}

std::vector<net::FleetNodeState> EventCluster::alive_states() const {
  std::vector<net::FleetNodeState> alive;
  alive.reserve(alive_pool_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (!crashed_[i])
      alive.push_back(net::FleetNodeState{nodes_[i].position(),
                                          nodes_[i].guests()});
  return alive;
}

double EventCluster::homogeneity() const {
  return net::fleet_homogeneity(*space_, points_, alive_states());
}

double EventCluster::reliability() const {
  return net::fleet_reliability(points_, alive_states());
}

double EventCluster::proximity(std::size_t k) const {
  return net::fleet_proximity(*space_, alive_states(), k);
}

MemoryBreakdown EventCluster::memory_breakdown() const {
  MemoryBreakdown m;
  m.arena_used = arena_.bytes_used();
  m.arena_reserved = arena_.bytes_reserved();
  m.node_objects = nodes_.reserved_bytes();
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    m.state_heap += nodes_[i].state_heap_bytes();
  m.hub_bytes = hub_->approx_bytes();
  return m;
}

std::size_t EventCluster::mem_bytes_per_node() const {
  return nodes_.empty() ? 0 : memory_breakdown().total() / nodes_.size();
}

}  // namespace poly::engine
