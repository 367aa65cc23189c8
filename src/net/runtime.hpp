// The live Polystyrene runtime: the full protocol stack (RPS + T-Man +
// Polystyrene) running on real threads and real transports, without the
// round-based simulator.
//
// The paper's system model (§III-A) assumes message-passing nodes over
// reliable channels with a possibly-imperfect failure detector.  AsyncNode
// realizes that model: each node owns a Transport endpoint and a ticker
// thread; every tick it performs one asynchronous "round" — an RPS shuffle,
// a T-Man exchange, backup pushes, a recovery check, and one migration
// attempt.  Failure detection combines two signals: send failures (contact
// refused ⇒ peer gone) and backup-push staleness (an origin that has not
// pushed within the timeout is considered dead and its ghosts reactivate).
//
// Pairwise migration atomicity (the Algorithm 3 requirement) is enforced
// with a busy flag: a node engaged in an exchange rejects incoming
// migration requests, and an initiator freezes its guest set until the
// response (or a tick timeout) arrives.  With reliable channels and
// crash-stop nodes the only anomaly a lost exchange can produce is a
// duplicated data point — exactly what migration's union-by-id dedup
// removes anyway.
//
// Memory layout (see docs/ARCHITECTURE.md, "Per-node memory layout"): a
// node's protocol state — RPS/T-Man views, backup targets, ghost table —
// lives in util::Arena storage with caps derived from AsyncConfig (see
// net/view_storage.hpp).  Peers are node ids throughout; the transport
// routes them.  The call-scoped working buffers live in an AsyncScratch
// that single-threaded drivers (the engine fleets) share across every
// node, so the steady state holds zero per-node heap vectors.
#pragma once

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/point_set.hpp"
#include "core/split.hpp"
#include "net/messages.hpp"
#include "net/transport.hpp"
#include "net/view_storage.hpp"
#include "space/medoid.hpp"
#include "space/metric_space.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"
#include "util/topk.hpp"

namespace poly::net {

struct FleetNodeState;  // net/fleet_metrics.hpp

/// Tunables of the live runtime (scaled-down defaults suit tests and the
/// live_async example; semantics mirror the simulator's configs).
struct AsyncConfig {
  std::chrono::milliseconds tick{25};          ///< one "round" per tick
  std::size_t rps_view = 8;
  std::size_t rps_shuffle = 4;
  std::size_t tman_view = 16;
  std::size_t tman_msg = 8;
  std::size_t psi = 3;
  std::size_t replication = 2;                 ///< K
  core::SplitKind split_kind = core::SplitKind::kAdvanced;
  /// Guest sets up to this size reproject through the exact O(n²) medoid;
  /// larger ones (post-catastrophe pools) use the sampled /
  /// SpatialIndex-assisted variant.  Mirrors SplitConfig's threshold.
  std::size_t medoid_exact_threshold = space::kMedoidExactThreshold;
  /// An origin that has not pushed a backup within this window is presumed
  /// dead (heartbeat timeout of the §III-A failure detector).
  std::chrono::milliseconds origin_timeout{400};
  /// T-Man view entries unrefreshed for this many ticks are evicted.
  /// Bounds view staleness: without it, a member that crashed — or moved
  /// far away while its old descriptor still advertises a nearby
  /// position — occupies a view slot forever, because T-Man gossip only
  /// circulates a member's fresh descriptors near its *current*
  /// vicinity.  0 disables aging (and the forwarding horizon with it).
  std::size_t tman_ttl = 48;
};

/// Physical capacity of the T-Man view storage: the ranked view plus one
/// merge's worth of headroom.  handle_tman rank-truncates mid-merge at
/// this bound, so in-spec gossip (<= tman_msg descriptors per frame)
/// never hits it and oversized frames cannot grow the view past it.
inline std::uint32_t tman_phys_cap(const AsyncConfig& cfg) {
  const std::size_t phys = cfg.tman_view + cfg.tman_msg;
  return static_cast<std::uint32_t>(
      phys > cfg.tman_view + 1 ? phys : cfg.tman_view + 1);
}

/// Forwarding horizon of the T-Man descriptor-age mechanism: only
/// entries younger than this are forwarded to third parties, and a
/// forwarded copy arrives exactly this old — so second-hand information
/// is never re-forwarded and a rumor dies one hop from its last
/// first-hand confirmation.  A member that crashes (or whose descriptor
/// goes stale) vanishes from every view within tman_ttl ticks.
inline std::uint32_t tman_forward_age(const AsyncConfig& cfg) {
  return static_cast<std::uint32_t>(cfg.tman_ttl / 2);
}

/// Call-scoped working buffers: decoded incoming lists, outgoing staging,
/// rank/sample/frame scratch.  Nothing in here survives a protocol call,
/// so a single instance can serve every node driven from one thread — the
/// engine fleets share one per cluster (the per-node vectors this
/// replaces dominated fleet memory).  Threaded fleets (LiveCluster) give
/// each node a private one: a node's scratch use is guarded by its
/// state_mu_, which cannot order accesses across nodes.
///
/// Must be bound to the same Arena as the views of the nodes that use it
/// (rank staging copies view entries through rank_tmp/tman_cand).
///
/// Externally synchronized: AsyncScratch itself carries no lock and no
/// single-thread checker on purpose.  Which mutex covers it depends on the
/// owner — a live node's scratch is covered by that node's state_mu_
/// (both the ticker and the transport pump touch it, always under the
/// lock), while an engine fleet's shared scratch is covered by the
/// fleet's single-driver discipline.  Do not add a SingleThreadChecker
/// here: the live two-thread case is legal.
struct AsyncScratch {
  std::vector<WirePeer> in_peers, out_peers;
  std::vector<WireDescriptor> in_descriptors, out_descriptors;
  std::vector<WirePoint> in_points, out_points, wire_guests;
  std::vector<std::size_t> samples;      // rng sample staging
  std::vector<std::uint8_t> frame;       // one-encode backup frame
  util::KeepClosestScratch rank_keys;    // (distance, index) rank staging
  DescriptorList tman_cand, rank_tmp;    // buffer-build + rank gather
  PeerList backup_targets;               // step_backup staging
  util::ArenaVec<LiveNodeId> mig_candidates;

  void bind(util::Arena& arena, const AsyncConfig& cfg);
};

/// One live node.
class AsyncNode {
 public:
  /// `initial` is the node's original data point (nullopt for fresh nodes
  /// joining after a catastrophe, as in the paper's Phase 3).
  ///
  /// `arena`/`scratch` place the node's view storage and working buffers:
  /// fleet owners pass a shared arena (and, when every node runs on one
  /// thread, a shared scratch bound to that arena); by default the node
  /// owns a private arena and scratch.  A non-null `scratch` must be
  /// bound to `arena`.
  AsyncNode(LiveNodeId id, std::shared_ptr<const space::MetricSpace> space,
            std::unique_ptr<Transport> transport,
            std::optional<space::DataPoint> initial, AsyncConfig config,
            std::uint64_t seed, util::Arena* arena = nullptr,
            AsyncScratch* scratch = nullptr);
  ~AsyncNode();

  AsyncNode(const AsyncNode&) = delete;
  AsyncNode& operator=(const AsyncNode&) = delete;

  /// Introduces bootstrap contacts by node id (call before start()).
  void bootstrap(const std::vector<LiveNodeId>& seeds);

  // ---- engine drive -----------------------------------------------------

  /// Source of "now" for timeout bookkeeping (virtual clocks in engine
  /// runs; defaults to steady_clock).
  using ClockFn = std::function<std::chrono::steady_clock::time_point()>;

  /// Switches the node to engine-driven (manual) mode: start()/stop() no
  /// longer manage a ticker thread, time is read from `clock`, and the
  /// owner advances the protocol by calling drive_tick().  The protocol
  /// logic — on_tick and the on_message handlers — is unchanged; only the
  /// thread and the clock are replaced.  Call before start().
  void set_manual_drive(ClockFn clock);

  /// Executes one protocol tick on the caller's thread.  Manual mode only;
  /// a no-op before start() and after stop()/crash().
  void drive_tick();

  /// Starts the node: spawns the ticker thread, or (manual mode) just arms
  /// drive_tick().  Idempotent.
  void start();

  /// Graceful stop: finishes the current tick, keeps state inspectable.
  void stop();

  /// Crash-stop: kills the transport and the ticker immediately; peers see
  /// contact failures and stale backups, exactly like a process kill.
  void crash();

  /// Rejoins a crashed node under a fresh transport that routes the same
  /// node id (peers keep addressing it by id; frames still in flight to
  /// the old life are discarded).  All protocol state survives as-is:
  /// the node restarts with its pre-crash — now stale — views, guests and
  /// backups, like a process restarted from a warm checkpoint.  Any
  /// half-open migration handshake is abandoned.  No-op unless crashed;
  /// the caller start()s the node afterwards.
  void recover(std::unique_ptr<Transport> transport);

  // ---- thread-safe inspection ------------------------------------------

  LiveNodeId id() const noexcept { return id_; }
  space::Point position() const;

  /// The T-Man view member closest to `target` (the greedy-routing
  /// neighbourhood query of src/traffic/).  Deterministic: linear scan in
  /// view order, strict-< improvement with lowest-id tie-break.  `found`
  /// is false when no entry qualifies.  An optional `accept(ctx, id)`
  /// filter skips entries (the traffic plane rejects crashed members —
  /// modelling a sender that times out on a dead neighbour and tries its
  /// next candidate; a plain function pointer keeps the hot path
  /// allocation-free).  The RPS view is not consulted: its positions are
  /// random-sample hearsay, not the ranked neighbourhood.
  struct ViewHop {
    LiveNodeId id = 0;
    double distance = 0.0;
    bool found = false;
  };
  ViewHop closest_view_member(const space::Point& target,
                              bool (*accept)(void* ctx, LiveNodeId id) = nullptr,
                              void* ctx = nullptr) const;
  /// Visits every T-Man view entry (id, advertised position, version)
  /// under the state lock — diagnostics and view-quality tests.
  void for_each_view_member(void (*fn)(void* ctx, LiveNodeId id,
                                       const space::Point& advertised,
                                       std::uint64_t version),
                            void* ctx) const;
  core::PointSet guests() const;
  std::size_t ghost_point_count() const;
  std::size_t tman_view_size() const;
  std::size_t rps_view_size() const;
  std::size_t backup_target_count() const;
  /// Heap bytes owned by this node's state outside the arena: the guest
  /// set plus the ghost tables' PointSets (the data plane; the control
  /// plane — views and targets — is all arena memory).
  std::size_t state_heap_bytes() const;
  /// Frames dropped at the decode boundary (util::CodecError): malformed,
  /// truncated or corrupted input that never reached a handler.  Zero on
  /// clean links.
  std::uint64_t frames_rejected() const;
  bool running() const;

 private:
  // Ticker.
  void tick_loop();
  void on_tick();

  // Message handling (transport pump thread).  on_message takes state_mu_
  // and decodes into the scratch buffers; the handle_* methods run with
  // the lock held and read the decoded scratch.
  void on_message(Message& msg) EXCLUDES(state_mu_);
  void handle_rps(const Header& h, const std::vector<WirePeer>& peers,
                  bool is_req) REQUIRES(state_mu_);
  void handle_tman(const Header& h,
                   const std::vector<WireDescriptor>& descriptors,
                   bool is_req) REQUIRES(state_mu_);
  void handle_backup_push(const Header& h,
                          const std::vector<WirePoint>& guests)
      REQUIRES(state_mu_);
  void handle_migrate_req(const Header& h, const space::Point& initiator_pos,
                          const std::vector<WirePoint>& guests)
      REQUIRES(state_mu_);
  void handle_migrate_resp(const Header& h, bool accepted,
                           const std::vector<WirePoint>& guests)
      REQUIRES(state_mu_);

  /// Reduces `entries` to the `keep` entries closest to `origin`, sorted
  /// ascending with id tie-breaks.  Ids are unique within a view, so the
  /// order is strictly total and the partial selection is element-for-
  /// element identical to a full sort + truncate.  Stages through the
  /// scratch (rank_keys + rank_tmp).
  void rank_closest(DescriptorList& entries, const space::Point& origin,
                    std::size_t keep) REQUIRES(state_mu_);

  // Protocol steps (called with state_mu_ held unless noted).
  void step_rps() REQUIRES(state_mu_);
  void step_tman() REQUIRES(state_mu_);
  void step_backup() REQUIRES(state_mu_);
  void step_recovery() REQUIRES(state_mu_);
  void step_migration() REQUIRES(state_mu_);
  void reproject() REQUIRES(state_mu_);

  /// Marks a peer dead after a contact failure: purges it from views and
  /// backups, and aborts a migration handshake with it.
  void peer_unreachable(LiveNodeId peer) REQUIRES(state_mu_);

  /// Sends a frame to node `peer`; on failure marks the peer unreachable.
  /// Caller must hold state_mu_.
  bool send_to(LiveNodeId peer, std::vector<std::uint8_t> frame)
      REQUIRES(state_mu_);

  /// A ByteWriter over a transport-pooled buffer (the frame-encode path).
  util::ByteWriter frame_writer() { return util::ByteWriter(transport_->acquire_buffer()); }

  Header header(MsgType type) const;
  const std::vector<WirePoint>& wire_guests() const REQUIRES(state_mu_);

  /// Current time per the injected clock (manual mode) or steady_clock.
  std::chrono::steady_clock::time_point clock_now() const {
    // DETLINT-ALLOW(nondet-source): live-mode fallback only — every
    // deterministic (engine) fleet injects a virtual clock via
    // set_manual_drive, so fixed-seed runs never reach the real clock
    return clock_ ? clock_() : std::chrono::steady_clock::now();
  }

  const LiveNodeId id_;
  std::shared_ptr<const space::MetricSpace> space_;
  std::unique_ptr<Transport> transport_;
  AsyncConfig cfg_;
  // Drive mode: written before start() (under stop_mu_), immutable once
  // the node runs — clock_now() reads clock_ lock-free on that contract.
  bool manual_ = false;
  ClockFn clock_;

  /// Guards all protocol state below (views, guests, ghosts, migration
  /// handshake, the scratch buffers) across the two threads that touch
  /// it: the ticker (on_tick) and the transport pump (on_message).
  mutable util::Mutex state_mu_;
  util::Rng rng_ GUARDED_BY(state_mu_);

  // Storage placement: the arena all view storage is carved from, and the
  // working buffers.  Shared-fleet nodes point at their cluster's; a
  // standalone node owns private ones (own_*).  The pointers are set at
  // construction; the pointed-to scratch is protocol state (see
  // AsyncScratch: externally synchronized — here by state_mu_).
  std::unique_ptr<util::Arena> own_arena_;
  std::unique_ptr<AsyncScratch> own_scratch_;
  util::Arena* arena_;
  AsyncScratch* scratch_ PT_GUARDED_BY(state_mu_);

  // RPS state: Cyclon view, cap cfg_.rps_view.
  PeerList rps_view_ GUARDED_BY(state_mu_);

  // T-Man state: ranked descriptor view, cap tman_phys_cap(cfg_).
  DescriptorList tman_view_ GUARDED_BY(state_mu_);
  /// True while tman_view_ is sorted by (distance to pos_, id) — set by
  /// the rank sites, cleared when pos_ moves or unranked entries appear.
  /// Lets step_tman skip the per-tick re-rank (a no-op on a sorted view).
  bool tman_ranked_ GUARDED_BY(state_mu_) = false;
  space::Point pos_ GUARDED_BY(state_mu_);
  std::uint64_t pos_version_ GUARDED_BY(state_mu_) = 1;

  // Polystyrene state.
  core::PointSet guests_ GUARDED_BY(state_mu_);
  /// Ghost sets keyed by origin id, ascending (the recovery merge order);
  /// see GhostTable for the slot-recycling erase.
  GhostTable ghosts_ GUARDED_BY(state_mu_);
  /// Backup targets, cap cfg_.replication (ages unused).
  PeerList backups_ GUARDED_BY(state_mu_);

  // Migration handshake.
  bool migrating_ GUARDED_BY(state_mu_) = false;
  LiveNodeId migrate_partner_ GUARDED_BY(state_mu_) = 0;
  int migrate_ticks_left_ GUARDED_BY(state_mu_) = 0;  // timeout countdown

  /// Frames rejected at the decode boundary (see the accessor).  Guarded
  /// by state_mu_ like the scratch it protects: the increment happens in
  /// on_message's CodecError catch.
  std::uint64_t frames_rejected_ GUARDED_BY(state_mu_) = 0;

  // Lifecycle.
  std::thread ticker_;
  util::CondVar stop_cv_;
  mutable util::Mutex stop_mu_;
  bool stop_requested_ GUARDED_BY(stop_mu_) = false;
  bool started_ GUARDED_BY(stop_mu_) = false;
  bool crashed_ GUARDED_BY(stop_mu_) = false;
};

/// Convenience: builds, bootstraps (full mesh of seeds) and starts a fleet
/// of in-process (or TCP) nodes.  The cluster owns the id → address
/// directory its transports route through, filled as nodes are created.
/// Used by tests and the live_async example.
class LiveCluster {
 public:
  /// One node per data point; all nodes know `fanout` random seeds.
  LiveCluster(std::shared_ptr<const space::MetricSpace> space,
              const std::vector<space::DataPoint>& points,
              AsyncConfig config, std::uint64_t seed, bool use_tcp = false);
  ~LiveCluster();

  void start();
  void stop();

  std::size_t size() const { return nodes_.size(); }
  AsyncNode& node(std::size_t i) { return *nodes_[i]; }

  /// Crash-stops every node whose *original* data point satisfies pred.
  std::size_t crash_region(
      const std::function<bool(const space::Point&)>& pred);

  /// Crash-stops node `idx`; returns false when out of range or already
  /// crashed (scenario programs crash explicit id lists).
  bool crash_node(std::size_t idx);

  /// Injects a fresh node (no data point) at `pos`, bootstrapped from the
  /// alive nodes; returns its index.
  std::size_t inject(const space::Point& pos);

  /// Current advertised position of every alive node, in id order
  /// (snapshot density maps).
  std::vector<space::Point> alive_positions() const;

  /// Mean distance from every original data point to the closest alive
  /// node hosting it (homogeneity over the live fleet; lost points fall
  /// back to the nearest alive node).
  double homogeneity() const;

  /// Fraction of original points hosted by at least one alive node.
  double reliability() const;

  /// Geometric proximity (SpatialIndex k-NN over alive node positions).
  double proximity(std::size_t k = 4) const;

  std::size_t alive_count() const;

 private:
  std::vector<FleetNodeState> alive_states() const;
  /// A transport for node `idx`, its address recorded in the directory.
  std::unique_ptr<Transport> make_transport(std::size_t idx);

  std::shared_ptr<const space::MetricSpace> space_;
  std::vector<space::DataPoint> points_;
  AsyncConfig cfg_;
  std::uint64_t seed_;
  bool use_tcp_;
  std::shared_ptr<class InProcHub> hub_;
  std::shared_ptr<AddressDirectory> directory_;
  std::vector<std::unique_ptr<AsyncNode>> nodes_;
  std::vector<bool> crashed_;
};

}  // namespace poly::net
