#include "traffic/workload.hpp"

#include <limits>

#include "engine/event_cluster.hpp"

namespace poly::traffic {

TrafficPlane::TrafficPlane(engine::EventCluster& fleet, std::uint64_t seed)
    : fleet_(fleet),
      arrivals_rng_(util::Rng(seed).split()),
      placement_rng_(util::Rng(seed ^ 0x6b79b0496d5e12c3ull).split()),
      latency_rng_(util::Rng(seed ^ 0xd24e7a18c5f3860bull).split()) {}

void TrafficPlane::start(const TrafficConfig& cfg) {
  cfg_ = cfg;
  active_ = cfg_.rate_per_round > 0;
  if (active_ && !armed_) {
    armed_ = true;
    inject_round();  // this round's arrivals, then self-rescheduling
  }
}

void TrafficPlane::stop() {
  active_ = false;  // the pending inject_round event un-arms itself
}

TrafficCounters TrafficPlane::take_interval() {
  TrafficCounters out = interval_;
  interval_.clear();
  return out;
}

void TrafficPlane::inject_round() {
  if (!active_) {
    armed_ = false;
    return;
  }
  const auto period = fleet_.round_period();
  for (std::size_t i = 0; i < cfg_.rate_per_round; ++i) {
    const std::chrono::nanoseconds offset{
        arrivals_rng_.uniform_i64(0, period.count() - 1)};
    const std::uint32_t slot = launch(offset);
    if (slot != RequestTable::kInvalidSlot)
      fleet_.engine().schedule_after(offset, [this, slot] { step(slot); });
  }
  fleet_.engine().schedule_after(period, [this] { inject_round(); });
}

std::uint32_t TrafficPlane::launch(std::chrono::nanoseconds offset) {
  ++totals_.launched;
  ++interval_.launched;
  const auto& alive = fleet_.alive_ids();
  const auto& points = fleet_.points();
  if (alive.empty() || points.empty()) {
    // Nobody to ask: the request fails at arrival (still launched —
    // open-loop workloads count offered, not accepted, load).
    ++totals_.failed;
    ++interval_.failed;
    return RequestTable::kInvalidSlot;
  }
  const auto origin = alive[placement_rng_.index(alive.size())];
  const space::Point target = points[placement_rng_.index(points.size())].pos;
  RequestKind kind = RequestKind::kGet;
  switch (cfg_.mix) {
    case Mix::kGet:
      break;
    case Mix::kPut:
      kind = RequestKind::kPut;
      break;
    case Mix::kMixed:
      kind = placement_rng_.bernoulli(0.5) ? RequestKind::kPut
                                           : RequestKind::kGet;
      break;
  }
  const std::uint32_t slot = table_.acquire();
  Request& r = table_.at(slot);
  r.node = origin;
  r.hops = 0;
  r.detours = 0;
  r.start = fleet_.engine().now() + offset;  // latency clock: arrival
  r.target = target;
  r.closest = std::numeric_limits<double>::infinity();
  r.kind = kind;
  return slot;
}

void TrafficPlane::step(std::uint32_t slot) {
  Request& r = table_.at(slot);
  if (fleet_.crashed(r.node)) {
    // The serving node died with the request in flight (the crash landed
    // inside this hop's latency window).
    finish(slot, false);
    return;
  }
  net::AsyncNode& node = fleet_.node(r.node);
  const double here =
      fleet_.metric_space().distance(node.position(), r.target);
  if (here <= cfg_.success_radius) {
    finish(slot, true);  // standing at a node responsible for the key
    return;
  }
  if (here < r.closest) {
    r.closest = here;
    r.detours = 0;  // real progress re-arms the wander budget
  } else if (++r.detours > cfg_.detour_budget) {
    // Too long without actual progress: stale advertised positions have
    // been leading the request in circles.  Terminate (see workload.hpp).
    finish(slot, false);
    return;
  }
  const net::AsyncNode::ViewHop hop = node.closest_view_member(
      r.target,
      [](void* ctx, net::LiveNodeId id) {
        // Dead neighbours answer nothing: the sender's timeout-and-try-
        // next-candidate collapsed to an instantaneous filter.  A view
        // entry planted by a corrupted frame can name no node at all.
        const auto* fleet = static_cast<const engine::EventCluster*>(ctx);
        return id < fleet->size() && !fleet->crashed(id);
      },
      &fleet_);
  if (!hop.found || ++r.hops > cfg_.max_hops) {
    finish(slot, false);
    return;
  }
  r.node = static_cast<std::uint32_t>(hop.id);
  fleet_.engine().schedule_after(hop_latency(), [this, slot] { step(slot); });
}

void TrafficPlane::finish(std::uint32_t slot, bool ok) {
  const Request& r = table_.at(slot);
  if (ok) {
    ++totals_.completed;
    ++interval_.completed;
    totals_.hops_total += r.hops;
    interval_.hops_total += r.hops;
    const auto elapsed = fleet_.engine().now() - r.start;
    const std::uint64_t ns =
        elapsed.count() > 0 ? static_cast<std::uint64_t>(elapsed.count()) : 0;
    totals_.latency.record(ns);
    interval_.latency.record(ns);
  } else {
    ++totals_.failed;
    ++interval_.failed;
  }
  table_.release(slot);
}

std::chrono::nanoseconds TrafficPlane::hop_latency() {
  const engine::EventClusterConfig& c = fleet_.config();
  if (c.latency_max <= c.latency_min) return c.latency_min;
  return std::chrono::nanoseconds{latency_rng_.uniform_i64(
      c.latency_min.count(), c.latency_max.count())};
}

}  // namespace poly::traffic
