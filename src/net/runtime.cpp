#include "net/runtime.hpp"

#include <algorithm>
#include <cmath>

#include "net/fleet_metrics.hpp"
#include "util/topk.hpp"
#include "net/inproc_transport.hpp"
#include "net/tcp_transport.hpp"
#include "space/medoid.hpp"
#include "util/log.hpp"

namespace poly::net {

namespace {

void to_point_set_into(const std::vector<WirePoint>& wire,
                       core::PointSet& out) {
  out.clear();
  out.reserve(wire.size());
  for (const auto& p : wire) out.push_back({p.id, p.pos});
  core::normalize(out);
}

core::PointSet to_point_set(const std::vector<WirePoint>& wire) {
  core::PointSet out;
  to_point_set_into(wire, out);
  return out;
}

void to_wire_into(const core::PointSet& set, std::vector<WirePoint>& out) {
  out.resize(set.size());
  for (std::size_t i = 0; i < set.size(); ++i)
    out[i] = WirePoint{set[i].id, set[i].pos};
}

/// First index with the strictly greatest age.
std::size_t oldest_index(const PeerList& view) {
  std::size_t oldest = 0;
  for (std::size_t i = 1; i < view.size(); ++i)
    if (view[i].age > view[oldest].age) oldest = i;
  return oldest;
}

}  // namespace

// ---- AsyncScratch -----------------------------------------------------------

void AsyncScratch::bind(util::Arena& arena, const AsyncConfig& cfg) {
  const std::uint32_t phys = tman_phys_cap(cfg);
  tman_cand.bind(arena, phys);
  rank_tmp.bind(arena, phys);
  backup_targets.bind(arena, static_cast<std::uint32_t>(cfg.replication));
  mig_candidates.bind(arena, static_cast<std::uint32_t>(cfg.psi + 1));
}

// ---- AsyncNode --------------------------------------------------------------

AsyncNode::AsyncNode(LiveNodeId id,
                     std::shared_ptr<const space::MetricSpace> space,
                     std::unique_ptr<Transport> transport,
                     std::optional<space::DataPoint> initial,
                     AsyncConfig config, std::uint64_t seed,
                     util::Arena* arena, AsyncScratch* scratch)
    : id_(id),
      space_(std::move(space)),
      transport_(std::move(transport)),
      cfg_(config),
      rng_(seed),
      own_arena_(arena == nullptr
                     ? std::make_unique<util::Arena>(std::size_t{4} << 10)
                     : nullptr),
      arena_(arena != nullptr ? arena : own_arena_.get()),
      scratch_(scratch) {
  if (scratch_ == nullptr) {
    own_scratch_ = std::make_unique<AsyncScratch>();
    own_scratch_->bind(*arena_, cfg_);
    scratch_ = own_scratch_.get();
  }
  rps_view_.bind(*arena_, static_cast<std::uint32_t>(cfg_.rps_view));
  tman_view_.bind(*arena_, tman_phys_cap(cfg_));
  backups_.bind(*arena_, static_cast<std::uint32_t>(cfg_.replication));
  ghosts_.bind(*arena_, static_cast<std::uint32_t>(cfg_.replication + 2));
  if (initial) {
    guests_.push_back(*initial);
    pos_ = initial->pos;
  }
  transport_->set_handler([this](Message& msg) { on_message(msg); });
}

AsyncNode::~AsyncNode() {
  stop();
  transport_->shutdown();
}

void AsyncNode::bootstrap(const std::vector<LiveNodeId>& seeds) {
  util::MutexLock lk(state_mu_);
  for (const LiveNodeId s : seeds) {
    if (s == id_) continue;
    if (rps_view_.size() < cfg_.rps_view)
      rps_view_.push_back(PeerHot{s, 0, {}, 0});
  }
}

void AsyncNode::set_manual_drive(ClockFn clock) {
  util::MutexLock lk(stop_mu_);
  manual_ = true;
  clock_ = std::move(clock);
}

void AsyncNode::drive_tick() {
  {
    util::MutexLock lk(stop_mu_);
    if (!started_ || crashed_) return;
  }
  on_tick();
}

void AsyncNode::start() {
  util::MutexLock lk(stop_mu_);
  if (started_ || crashed_) return;
  started_ = true;
  stop_requested_ = false;
  if (!manual_) ticker_ = std::thread([this] { tick_loop(); });
}

void AsyncNode::stop() {
  {
    util::MutexLock lk(stop_mu_);
    if (!started_) return;
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (ticker_.joinable()) ticker_.join();
  util::MutexLock lk(stop_mu_);
  started_ = false;
}

void AsyncNode::crash() {
  {
    util::MutexLock lk(stop_mu_);
    crashed_ = true;
  }
  // Kill the transport first: peers immediately see contact failures, and
  // no further handler invocations can touch our state.
  transport_->shutdown();
  stop();
}

void AsyncNode::recover(std::unique_ptr<Transport> transport) {
  {
    util::MutexLock lk(stop_mu_);
    if (!crashed_) return;
    crashed_ = false;
    stop_requested_ = false;
  }
  util::MutexLock lk(state_mu_);
  transport_ = std::move(transport);
  transport_->set_handler([this](Message& msg) { on_message(msg); });
  // Any half-open migration handshake died with the old endpoint; the
  // partner timed out during the outage and kept its guests.
  migrating_ = false;
}

std::uint64_t AsyncNode::frames_rejected() const {
  util::MutexLock lk(state_mu_);
  return frames_rejected_;
}

bool AsyncNode::running() const {
  util::MutexLock lk(stop_mu_);
  return started_ && !crashed_;
}

void AsyncNode::tick_loop() {
  for (;;) {
    {
      util::MutexLock lk(stop_mu_);
      if (stop_cv_.wait_for(stop_mu_, cfg_.tick, [this]() REQUIRES(stop_mu_) {
            return stop_requested_;
          }))
        return;
    }
    // Tick outside stop_mu_: on_tick takes state_mu_, and stop() must be
    // able to set stop_requested_ while a tick is in flight.
    on_tick();
  }
}

void AsyncNode::on_tick() {
  util::MutexLock lk(state_mu_);
  step_rps();
  step_tman();
  step_recovery();
  step_backup();
  step_migration();
}

Header AsyncNode::header(MsgType type) const {
  return Header{type, id_};
}

const std::vector<WirePoint>& AsyncNode::wire_guests() const {
  to_wire_into(guests_, scratch_->wire_guests);
  return scratch_->wire_guests;
}

bool AsyncNode::send_to(LiveNodeId peer, std::vector<std::uint8_t> frame) {
  if (transport_->send(peer, std::move(frame))) return true;
  peer_unreachable(peer);
  return false;
}

void AsyncNode::peer_unreachable(LiveNodeId peer) {
  rps_view_.erase_if([peer](const PeerHot& e) { return e.id == peer; });
  tman_view_.erase_if([peer](const DescriptorHot& e) { return e.id == peer; });
  backups_.erase_if([peer](const PeerHot& b) { return b.id == peer; });
  if (migrating_ && migrate_partner_ == peer) {
    migrating_ = false;  // exchange aborted; our guests were never released
  }
}

// ---- message dispatch --------------------------------------------------------

void AsyncNode::on_message(Message& msg) {
  // One lock for decode + dispatch: the scratch buffers are shared state,
  // and the handlers run under the same acquisition (they do not lock).
  util::MutexLock lk(state_mu_);
  try {
    util::ByteReader r(msg.payload);
    const Header h = decode_header(r);
    switch (h.type) {
      case MsgType::kRpsShuffleReq:
        decode_peers_into(r, scratch_->in_peers);
        handle_rps(h, scratch_->in_peers, /*is_req=*/true);
        break;
      case MsgType::kRpsShuffleResp:
        decode_peers_into(r, scratch_->in_peers);
        handle_rps(h, scratch_->in_peers, /*is_req=*/false);
        break;
      case MsgType::kTmanReq:
        decode_descriptors_into(r, scratch_->in_descriptors);
        handle_tman(h, scratch_->in_descriptors, /*is_req=*/true);
        break;
      case MsgType::kTmanResp:
        decode_descriptors_into(r, scratch_->in_descriptors);
        handle_tman(h, scratch_->in_descriptors, /*is_req=*/false);
        break;
      case MsgType::kBackupPush:
        decode_points_into(r, scratch_->in_points);
        handle_backup_push(h, scratch_->in_points);
        break;
      case MsgType::kMigrateReq: {
        const space::Point pos = decode_point(r);
        decode_points_into(r, scratch_->in_points);
        handle_migrate_req(h, pos, scratch_->in_points);
        break;
      }
      case MsgType::kMigrateResp: {
        const bool accepted = r.u8() != 0;
        decode_points_into(r, scratch_->in_points);
        handle_migrate_resp(h, accepted, scratch_->in_points);
        break;
      }
    }
  } catch (const util::CodecError& e) {
    // The decode boundary is the trust boundary: anything malformed —
    // truncated, corrupted, out-of-range — lands here, is counted, and is
    // dropped before it can touch protocol state (the scratch it decoded
    // into is overwritten by the next frame).
    ++frames_rejected_;
    // Under sustained corruption (the fault plane's `corrupt` verb) this
    // fires thousands of times — log the first few, the counter has the
    // rest.
    if (frames_rejected_ <= 3)
      util::log_warn(std::string("AsyncNode: dropping malformed frame: ") +
                     e.what());
  }
}

// ---- RPS --------------------------------------------------------------------

void AsyncNode::step_rps() {
  if (rps_view_.empty()) return;
  for (auto& e : rps_view_) ++e.age;
  const std::size_t oldest = oldest_index(rps_view_);
  const LiveNodeId target = rps_view_[oldest].id;
  rps_view_.erase(oldest);  // swap semantics, as in Cyclon

  auto& out = scratch_->out_peers;
  out.clear();
  out.push_back(WirePeer{id_, 0, pos_, pos_version_});
  rng_.sample_indices_into(rps_view_.size(),
                           std::min(cfg_.rps_shuffle - 1, rps_view_.size()),
                           scratch_->samples);
  for (std::size_t i : scratch_->samples) {
    const PeerHot& e = rps_view_[i];
    out.push_back({e.id, e.age, e.pos, e.version});
  }

  util::ByteWriter w = frame_writer();
  encode_rps(w, header(MsgType::kRpsShuffleReq), out);
  send_to(target, w.take());
}

void AsyncNode::handle_rps(const Header& h, const std::vector<WirePeer>& peers,
                           bool is_req) {
  if (is_req) {
    // Reply with a random sample of our view before merging.
    auto& out = scratch_->out_peers;
    out.clear();
    rng_.sample_indices_into(rps_view_.size(),
                             std::min(cfg_.rps_shuffle, rps_view_.size()),
                             scratch_->samples);
    for (std::size_t i : scratch_->samples) {
      const PeerHot& e = rps_view_[i];
      out.push_back({e.id, e.age, e.pos, e.version});
    }
    util::ByteWriter w = frame_writer();
    encode_rps(w, header(MsgType::kRpsShuffleResp), out);
    send_to(h.sender, w.take());
  }
  // Merge: drop self/duplicates, cap by replacing the oldest entries.
  // The view never exceeds cfg_.rps_view, whatever the frame carried.
  for (const auto& p : peers) {
    if (p.id == id_) continue;
    const std::size_t i = find_id(rps_view_, p.id);
    if (i < rps_view_.size()) {
      PeerHot& e = rps_view_[i];
      if (p.age < e.age) e.age = p.age;  // keep the fresher view
      if (p.version > e.version) {
        e.pos = p.pos;
        e.version = p.version;
      }
      continue;
    }
    if (rps_view_.size() < cfg_.rps_view) {
      rps_view_.push_back(PeerHot{p.id, p.age, p.pos, p.version});
    } else {
      const std::size_t oldest = oldest_index(rps_view_);
      if (rps_view_[oldest].age > p.age)
        rps_view_[oldest] = PeerHot{p.id, p.age, p.pos, p.version};
    }
  }
}

// ---- T-Man -------------------------------------------------------------------

void AsyncNode::rank_closest(DescriptorList& entries,
                             const space::Point& origin, std::size_t keep) {
  // Keys are computed once per entry; the (key, id) comparator makes the
  // order strictly total, so the partial selection is element-for-element
  // identical to a full sort + truncate.  The gather copies entries
  // through rank_tmp and back — view storage never trades blocks with the
  // scratch.
  auto& keys = scratch_->rank_keys.keys;
  keys.clear();
  keys.reserve(entries.size());
  for (std::uint32_t i = 0; i < entries.size(); ++i)
    keys.emplace_back(space_->distance2(origin, entries[i].pos), i);
  util::keep_smallest_sorted(
      keys, std::min(keep, keys.size()),
      [&](const std::pair<double, std::uint32_t>& a,
          const std::pair<double, std::uint32_t>& b) {
        if (a.first != b.first) return a.first < b.first;
        return entries[a.second].id < entries[b.second].id;
      });
  auto& tmp = scratch_->rank_tmp;
  tmp.clear();
  for (const auto& [key, idx] : keys) tmp.push_back(entries[idx]);
  entries.assign(tmp);
}

void AsyncNode::step_tman() {
  // Age the view and evict the unheard-of.  First-hand contact resets an
  // entry's age (handle_tman); anything past the TTL is a member we have
  // no recent evidence for — crashed, or moved far enough that gossip no
  // longer circulates its descriptors here, in which case its advertised
  // position is a lie that would rank as "nearby" forever.  erase_if is
  // order-preserving, so an already-ranked view stays ranked.
  if (cfg_.tman_ttl > 0 && !tman_view_.empty()) {
    const auto ttl = static_cast<std::uint32_t>(cfg_.tman_ttl);
    bool expired = false;
    for (std::size_t i = 0; i < tman_view_.size(); ++i) {
      DescriptorHot& e = tman_view_[i];
      if (e.age <= ttl) ++e.age;  // saturating: no wraparound
      expired = expired || e.age > ttl;
    }
    if (expired)
      tman_view_.erase_if(
          [ttl](const DescriptorHot& e) { return e.age > ttl; });
  }
  const std::uint32_t fwd_horizon = tman_forward_age(cfg_);
  // Random-candidate injection — the role the RPS layer plays in the
  // T-Man paper: every tick, offer the view the random sample's known
  // descriptors.  Almost all are far away and rejected by the cheap
  // pre-filter without dirtying the ranked view; the rare nearby one is
  // how two neighbourhoods whose mutual links all aged out rediscover
  // each other (routing across such a seam otherwise dead-ends forever:
  // both sides gossip strictly away from it).  Injected entries count
  // as second-hand, exactly as if a gossip partner had forwarded them.
  {
    const std::size_t phys = tman_phys_cap(cfg_);
    for (std::size_t i = 0; i < rps_view_.size(); ++i) {
      const PeerHot& p = rps_view_[i];
      if (p.version == 0 || p.id == id_) continue;
      const std::size_t j = find_id(tman_view_, p.id);
      if (j < tman_view_.size()) {
        DescriptorHot& e = tman_view_[j];
        if (p.version > e.version) {
          e.pos = p.pos;
          e.version = p.version;
          tman_ranked_ = false;
        }
        e.age = std::min(e.age, fwd_horizon);
        continue;
      }
      if (tman_ranked_ && tman_view_.size() >= cfg_.tman_view) {
        // A candidate no closer than the worst ranked entry cannot
        // enter a full view — reject without touching the rank.
        const DescriptorHot& worst = tman_view_.back();
        if (space_->distance2(pos_, p.pos) >=
            space_->distance2(pos_, worst.pos))
          continue;
      }
      if (tman_view_.size() >= phys)
        rank_closest(tman_view_, pos_, cfg_.tman_view);
      tman_view_.push_back(
          DescriptorHot{p.id, p.version, p.pos, fwd_horizon});
      tman_ranked_ = false;
    }
  }
  if (tman_view_.empty()) {
    // Cold start (no peer has a known position yet): seed the topology
    // view with placeholder descriptors so there is someone to contact.
    for (const PeerHot& p : rps_view_)
      tman_view_.push_back(DescriptorHot{p.id, 0, pos_});
    if (tman_view_.empty()) return;
    tman_ranked_ = false;
  }
  // Rank by distance to our position, pick among the ψ closest.  Skipped
  // when the view is already ranked for the current position (no merge and
  // no reprojection since the last rank): re-sorting a sorted view is the
  // identity, so the skip is bit-identical and saves the dominant ranking
  // cost in converged fleets.
  if (!tman_ranked_) {
    rank_closest(tman_view_, pos_, tman_view_.size());
    tman_ranked_ = true;
  }
  const std::size_t horizon = std::min(cfg_.psi, tman_view_.size());
  const std::size_t tidx = rng_.index(horizon);
  const DescriptorHot target = tman_view_[tidx];

  auto& out = scratch_->out_descriptors;
  out.clear();
  out.push_back(WireDescriptor{id_, pos_, pos_version_});
  // Entries closest to the target, capped at tman_msg.  The take loop
  // below skips at most one entry (the target itself), so a ranked prefix
  // of tman_msg is always enough.
  auto& cand = scratch_->tman_cand;
  cand.assign(tman_view_);
  rank_closest(cand, target.pos, cfg_.tman_msg);
  for (const DescriptorHot& c : cand) {
    if (out.size() >= cfg_.tman_msg) break;
    if (c.id == target.id) continue;
    // Version-0 entries are bootstrap placeholders carrying our *own*
    // position as a stand-in for the member's.  Forwarding such a guess
    // would plant "node X is here" lies in third-party views, where they
    // rank as nearby and never heal (gossip only refreshes entries that
    // really are near their holder).  Placeholders stay local.
    if (c.version == 0) continue;
    // Forward only first-hand-fresh entries (see tman_forward_age):
    // second-hand copies arrive exactly at the horizon and are never
    // re-forwarded, so rumors about dead or moved members cannot
    // circulate past their last direct confirmation.
    if (cfg_.tman_ttl > 0 && c.age >= fwd_horizon) continue;
    out.push_back({c.id, c.pos, c.version});
  }
  util::ByteWriter w = frame_writer();
  encode_tman(w, header(MsgType::kTmanReq), out);
  send_to(target.id, w.take());
}

void AsyncNode::handle_tman(const Header& h,
                            const std::vector<WireDescriptor>& descriptors,
                            bool is_req) {
  if (is_req) {
    // Symmetric reply: our descriptor + entries closest to the sender.
    const space::Point sender_pos =
        descriptors.empty() ? pos_ : descriptors.front().pos;
    auto& out = scratch_->out_descriptors;
    out.clear();
    out.push_back(WireDescriptor{id_, pos_, pos_version_});
    auto& cand = scratch_->tman_cand;
    cand.assign(tman_view_);
    rank_closest(cand, sender_pos, cfg_.tman_msg);
    const std::uint32_t fwd_horizon = tman_forward_age(cfg_);
    for (const DescriptorHot& c : cand) {
      if (out.size() >= cfg_.tman_msg) break;
      if (c.id == h.sender) continue;
      // Never forward bootstrap placeholders or second-hand entries
      // past the forwarding horizon (see step_tman).
      if (c.version == 0) continue;
      if (cfg_.tman_ttl > 0 && c.age >= fwd_horizon) continue;
      out.push_back({c.id, c.pos, c.version});
    }
    util::ByteWriter w = frame_writer();
    encode_tman(w, header(MsgType::kTmanResp), out);
    send_to(h.sender, w.take());
  }
  // Merge: dedup by id keeping the freshest version, rank, truncate.  The
  // view's physical cap is tman_view + tman_msg; an in-spec frame (at
  // most tman_msg descriptors into a ranked view of at most tman_view)
  // can never reach it, so the mid-merge rank-truncate below fires only
  // on oversized/hostile frames.  When it does fire, correctness is
  // unchanged: top-k selection over a strict total order is associative
  // (top-k(top-k(A) ∪ B) == top-k(A ∪ B)), so truncating to the ranked
  // view cap mid-merge keeps exactly the entries the unbounded merge
  // would have kept.
  const std::size_t phys = tman_phys_cap(cfg_);
  const std::uint32_t fwd_horizon = tman_forward_age(cfg_);
  for (const auto& d : descriptors) {
    if (d.id == id_) continue;
    // First-hand contact (the member itself is talking to us) proves it
    // alive *now*: age 0.  A forwarded copy only proves someone heard
    // from it within the forwarding horizon, so it arrives that old and
    // can lower — never raise — the age we already track.
    const std::uint32_t arrival_age = d.id == h.sender ? 0 : fwd_horizon;
    const std::size_t i = find_id(tman_view_, d.id);
    if (i < tman_view_.size()) {
      DescriptorHot& e = tman_view_[i];
      if (d.version > e.version) {
        e = DescriptorHot{d.id, d.version, d.pos,
                          std::min(e.age, arrival_age)};
      } else {
        e.age = std::min(e.age, arrival_age);
      }
    } else {
      if (tman_view_.size() >= phys)
        rank_closest(tman_view_, pos_, cfg_.tman_view);
      tman_view_.push_back(
          DescriptorHot{d.id, d.version, d.pos, arrival_age});
    }
  }
  // Rank-and-truncate in one step: only the kept view-cap prefix is
  // ever ordered.
  rank_closest(tman_view_, pos_, cfg_.tman_view);
  tman_ranked_ = true;
}

// ---- Backup & recovery ----------------------------------------------------------

void AsyncNode::step_backup() {
  // Top up to K targets from the peer-sampling view.
  std::size_t attempts = 0;
  while (backups_.size() < cfg_.replication &&
         attempts++ < 4 * cfg_.replication && !rps_view_.empty()) {
    const std::size_t ci = rng_.index(rps_view_.size());
    const PeerHot& cand = rps_view_[ci];
    if (cand.id == id_) continue;
    if (find_id(backups_, cand.id) < backups_.size()) continue;
    backups_.push_back(PeerHot{cand.id, 0, cand.pos, cand.version});
  }
  // Push guests (full copy; doubles as the origin's heartbeat).  Iterate
  // over a scratch copy: send failures mutate backups_ via
  // peer_unreachable.
  auto& targets = scratch_->backup_targets;
  targets.assign(backups_);
  // Every target gets the identical frame: encode once into the scratch,
  // then byte-copy per target instead of re-encoding field by field.
  util::ByteWriter master(std::move(scratch_->frame));
  encode_backup_push(master, header(MsgType::kBackupPush), wire_guests());
  scratch_->frame = master.take();
  for (const PeerHot& t : targets) {
    util::ByteWriter w = frame_writer();
    w.bytes(scratch_->frame.data(), scratch_->frame.size());
    send_to(t.id, w.take());
  }
}

void AsyncNode::handle_backup_push(const Header& h,
                                   const std::vector<WirePoint>& guests) {
  GhostTable::Slot& slot = ghosts_.find_or_insert(h.sender);
  to_point_set_into(guests, slot.points);
  slot.last_push = clock_now();
}

void AsyncNode::step_recovery() {
  if (migrating_) return;  // guests frozen during an exchange
  const auto now = clock_now();
  bool changed = false;
  for (std::size_t i = 0; i < ghosts_.size();) {
    if (now - ghosts_[i].last_push > cfg_.origin_timeout) {
      guests_ = core::union_by_id(guests_, ghosts_[i].points);
      ghosts_.erase(i);  // ascending-id order, as with the old map
      changed = true;
    } else {
      ++i;
    }
  }
  if (changed) reproject();
}

// ---- Migration -------------------------------------------------------------------

void AsyncNode::step_migration() {
  if (migrating_) {
    if (--migrate_ticks_left_ <= 0) migrating_ = false;  // timed out
    return;
  }
  // Candidates: ψ closest topology neighbours (view is kept ranked) plus
  // one random peer from the sampling view (Algorithm 3).
  auto& candidates = scratch_->mig_candidates;
  candidates.clear();
  for (const DescriptorHot& d : tman_view_) {
    if (candidates.size() >= cfg_.psi) break;
    candidates.push_back(d.id);
  }
  if (!rps_view_.empty()) {
    const LiveNodeId rid = rps_view_[rng_.index(rps_view_.size())].id;
    if (rid != id_ &&
        std::find(candidates.begin(), candidates.end(), rid) ==
            candidates.end())
      candidates.push_back(rid);
  }
  if (candidates.empty() || guests_.empty()) return;

  const LiveNodeId q = candidates[rng_.index(candidates.size())];
  migrating_ = true;
  migrate_partner_ = q;
  migrate_ticks_left_ = 4;
  util::ByteWriter w = frame_writer();
  encode_migrate_req(w, header(MsgType::kMigrateReq), pos_, wire_guests());
  if (!send_to(q, w.take())) {
    migrating_ = false;
  }
}

void AsyncNode::handle_migrate_req(const Header& h,
                                   const space::Point& initiator_pos,
                                   const std::vector<WirePoint>& guests) {
  if (migrating_) {
    // Busy: our guests are frozen by our own outstanding exchange.
    util::ByteWriter w = frame_writer();
    encode_migrate_resp(w, header(MsgType::kMigrateResp),
                        /*accepted=*/false, {});
    send_to(h.sender, w.take());
    return;
  }
  // Pool and split: we keep for_q, the initiator gets for_p back.
  const core::PointSet pool =
      core::union_by_id(to_point_set(guests), guests_);
  core::SplitConfig split_cfg;
  split_cfg.medoid_exact_threshold = cfg_.medoid_exact_threshold;
  auto result = core::split(cfg_.split_kind, pool, initiator_pos, pos_,
                            *space_, rng_, split_cfg);
  guests_ = std::move(result.for_q);
  reproject();
  to_wire_into(result.for_p, scratch_->out_points);
  util::ByteWriter w = frame_writer();
  encode_migrate_resp(w, header(MsgType::kMigrateResp),
                      /*accepted=*/true, scratch_->out_points);
  send_to(h.sender, w.take());
}

void AsyncNode::handle_migrate_resp(const Header& h, bool accepted,
                                    const std::vector<WirePoint>& guests) {
  if (!migrating_ || h.sender != migrate_partner_) return;  // stale reply
  migrating_ = false;
  if (!accepted) return;  // partner was busy; keep our guests
  guests_ = to_point_set(guests);
  reproject();
}

void AsyncNode::reproject() {
  if (guests_.empty()) return;
  // Threshold-routed: exact medoid at steady-state guest-set sizes, the
  // sampled/grid-assisted variant on oversized post-catastrophe pools.
  const space::Point m =
      space::medoid(guests_, *space_, rng_, cfg_.medoid_exact_threshold);
  if (m == pos_) return;
  pos_ = m;
  ++pos_version_;
  tman_ranked_ = false;  // the view's ranking criterion just moved
}

// ---- inspection --------------------------------------------------------------------

space::Point AsyncNode::position() const {
  util::MutexLock lk(state_mu_);
  return pos_;
}

AsyncNode::ViewHop AsyncNode::closest_view_member(
    const space::Point& target, bool (*accept)(void* ctx, LiveNodeId id),
    void* ctx) const {
  util::MutexLock lk(state_mu_);
  ViewHop best;
  for (const DescriptorHot& d : tman_view_) {
    if (accept != nullptr && !accept(ctx, d.id)) continue;
    const double dist = space_->distance(d.pos, target);
    if (!best.found || dist < best.distance ||
        (dist == best.distance && d.id < best.id)) {
      best.id = d.id;
      best.distance = dist;
      best.found = true;
    }
  }
  return best;
}

void AsyncNode::for_each_view_member(
    void (*fn)(void* ctx, LiveNodeId id, const space::Point& advertised,
               std::uint64_t version),
    void* ctx) const {
  util::MutexLock lk(state_mu_);
  for (const DescriptorHot& d : tman_view_) fn(ctx, d.id, d.pos, d.version);
}

core::PointSet AsyncNode::guests() const {
  util::MutexLock lk(state_mu_);
  return guests_;
}

std::size_t AsyncNode::ghost_point_count() const {
  util::MutexLock lk(state_mu_);
  std::size_t n = 0;
  for (std::size_t i = 0; i < ghosts_.size(); ++i)
    n += ghosts_[i].points.size();
  return n;
}

std::size_t AsyncNode::tman_view_size() const {
  util::MutexLock lk(state_mu_);
  return tman_view_.size();
}

std::size_t AsyncNode::rps_view_size() const {
  util::MutexLock lk(state_mu_);
  return rps_view_.size();
}

std::size_t AsyncNode::backup_target_count() const {
  util::MutexLock lk(state_mu_);
  return backups_.size();
}

std::size_t AsyncNode::state_heap_bytes() const {
  util::MutexLock lk(state_mu_);
  return guests_.capacity() * sizeof(space::DataPoint) + ghosts_.heap_bytes();
}

// ---- LiveCluster ---------------------------------------------------------------------

LiveCluster::LiveCluster(std::shared_ptr<const space::MetricSpace> space,
                         const std::vector<space::DataPoint>& points,
                         AsyncConfig config, std::uint64_t seed, bool use_tcp)
    : space_(std::move(space)),
      points_(points),
      cfg_(config),
      seed_(seed),
      use_tcp_(use_tcp),
      directory_(std::make_shared<AddressDirectory>()) {
  if (!use_tcp_) hub_ = InProcHub::create();
  util::Rng rng(seed);

  for (std::size_t i = 0; i < points_.size(); ++i) {
    nodes_.push_back(std::make_unique<AsyncNode>(
        static_cast<LiveNodeId>(i), space_, make_transport(i), points_[i],
        cfg_, rng.split().next_u64()));
    crashed_.push_back(false);
  }
  // Bootstrap: every node learns a random sample of contacts.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    std::vector<LiveNodeId> seeds;
    for (std::size_t j :
         rng.sample_indices(nodes_.size(),
                            std::min(cfg_.rps_view, nodes_.size())))
      if (j != i) seeds.push_back(static_cast<LiveNodeId>(j));
    nodes_[i]->bootstrap(seeds);
  }
}

std::unique_ptr<Transport> LiveCluster::make_transport(std::size_t idx) {
  const auto id = static_cast<LiveNodeId>(idx);
  if (use_tcp_) {
    auto tcp = std::make_unique<TcpTransport>(directory_);
    directory_->set(id, tcp->address());
    return tcp;
  }
  const Address addr = "node-" + std::to_string(idx);
  directory_->set(id, addr);
  return hub_->make_endpoint(addr, directory_);
}

LiveCluster::~LiveCluster() { stop(); }

void LiveCluster::start() {
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (!crashed_[i]) nodes_[i]->start();
}

void LiveCluster::stop() {
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (!crashed_[i]) nodes_[i]->stop();
}

std::size_t LiveCluster::crash_region(
    const std::function<bool(const space::Point&)>& pred) {
  std::size_t crashed = 0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (!crashed_[i] && pred(points_[i].pos)) {
      nodes_[i]->crash();
      crashed_[i] = true;
      ++crashed;
    }
  }
  return crashed;
}

bool LiveCluster::crash_node(std::size_t idx) {
  if (idx >= nodes_.size() || crashed_[idx]) return false;
  nodes_[idx]->crash();
  crashed_[idx] = true;
  return true;
}

std::vector<space::Point> LiveCluster::alive_positions() const {
  std::vector<space::Point> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (!crashed_[i]) out.push_back(nodes_[i]->position());
  return out;
}

std::size_t LiveCluster::inject(const space::Point& pos) {
  util::Rng rng(seed_ ^ (0x9e37u + nodes_.size()));
  const auto idx = nodes_.size();
  auto node = std::make_unique<AsyncNode>(
      static_cast<LiveNodeId>(idx), space_, make_transport(idx),
      std::nullopt, cfg_, rng.next_u64());
  // A fresh node starts at its assigned position until migration hands it
  // guests; seed it from the alive population.
  std::vector<LiveNodeId> seeds;
  for (std::size_t j = 0; j < nodes_.size() && seeds.size() < cfg_.rps_view;
       ++j)
    if (!crashed_[j]) seeds.push_back(static_cast<LiveNodeId>(j));
  node->bootstrap(seeds);
  node->start();
  nodes_.push_back(std::move(node));
  crashed_.push_back(false);
  points_.push_back({space::kInvalidPointId, pos});
  return idx;
}

std::vector<FleetNodeState> LiveCluster::alive_states() const {
  std::vector<FleetNodeState> alive;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (!crashed_[i])
      alive.push_back(FleetNodeState{nodes_[i]->position(),
                                     nodes_[i]->guests()});
  return alive;
}

double LiveCluster::homogeneity() const {
  return fleet_homogeneity(*space_, points_, alive_states());
}

double LiveCluster::reliability() const {
  return fleet_reliability(points_, alive_states());
}

double LiveCluster::proximity(std::size_t k) const {
  return fleet_proximity(*space_, alive_states(), k);
}

std::size_t LiveCluster::alive_count() const {
  std::size_t n = 0;
  for (bool c : crashed_) n += c ? 0 : 1;
  return n;
}

}  // namespace poly::net
