// Event-driven transport: net::Transport over the discrete-event kernel.
//
// EngineHub plays the role InProcHub plays for the threaded runtime — a
// registry of endpoints — except that delivery is an *event*: send()
// draws a latency (and possibly a drop) from the hub's LinkModel and
// schedules the receiver's handler at now + latency on the engine.  No
// threads, no mailboxes: handlers run inline in the engine loop, in
// deterministic timestamp order.
//
// The hub is built for the 100k-node steady state, where every protocol
// message passes through it:
//
//   * peers are node ids: one flat node-id → live-endpoint table routes
//     every send (an id beyond it, or whose endpoint died, is a contact
//     failure), so the per-send path does no hashing and no string work;
//   * each endpoint's hub-side state — transport pointer, FIFO-clamp
//     list, delivery-batching rendezvous — lives in type-segregated
//     contiguous slabs indexed by EndpointId, split by access pattern so
//     the per-send hot walk stays inside the two dense tables (transport
//     pointers, 8 B/endpoint; open-instant marks, 32 B/endpoint) and the
//     cold per-endpoint tables are only touched by the paths that need
//     them;
//   * per-pair FIFO clamps (jittered links only) keep, per destination,
//     just the senders with a frame in flight to it — bounded by the
//     frames in flight, not by every pair that ever talked;
//   * same-destination deliveries are batched: the first frame due at a
//     given (destination, instant) — optionally rounded up to a
//     `batch_window` boundary, see the constructor — schedules one
//     delivery event and travels inline in its closure (the PR-4 fast
//     path, unchanged); any further frames for that instant coalesce
//     into a per-destination Batch the head event drains right after its
//     own frame.  The receiver's state stays cache-hot while its frames
//     drain, the scheduler sees one event per instant instead of one per
//     frame (reply bursts make multi-frame instants common), and the
//     single-frame common case pays only an inline open-instant marker
//     check on the slot it already touches;
//   * payload vectors come from a hub pool: encode writes into a recycled
//     buffer, and after delivery (or a drop) the buffer returns to the
//     pool — zero steady-state allocation per message;
//   * the delivery closure (hub pointer + destination id + the pooled
//     vector) fits EventFn's inline storage, so scheduling doesn't
//     allocate.
//
// Semantics match the live transports where it matters to the protocol:
//   * send() returns false when the destination is not (or no longer)
//     registered — peers observe crashes as contact failures;
//   * a frame in flight to an endpoint that shuts down before delivery is
//     discarded silently (as a TCP segment to a dead process would be);
//   * per sender→receiver FIFO is preserved even under jittered latency
//     (delivery times are clamped monotone per pair).
//
// Lifetime: the hub must outlive the engine's pending delivery events (in
// practice: destroy the engine first, or simply stop running it).
// Endpoint ids are internal and never reused: a crashed node that
// re-registers gets a fresh endpoint, so frames still in flight to its
// old life are discarded, and its node id routes to the new one.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/event_engine.hpp"
#include "engine/link_model.hpp"
#include "fault/fault_plane.hpp"
#include "net/transport.hpp"
#include "util/thread_annotations.hpp"

namespace poly::engine {

/// Dense id of one endpoint registration in an EngineHub: internal to the
/// hub (and the fault plane's frame matching), never reused.
using EndpointId = std::uint32_t;
inline constexpr EndpointId kInvalidEndpointId = 0xffffffffu;

class EngineHub;

/// One endpoint of an EngineHub.  Single-threaded: use only from engine
/// event handlers or from the thread driving the engine.
class EngineTransport final : public net::Transport {
 public:
  ~EngineTransport() override;

  void set_handler(net::MessageHandler handler) override;
  bool send(net::LiveNodeId to, std::vector<std::uint8_t> payload) override;
  std::vector<std::uint8_t> acquire_buffer() override;
  void shutdown() override;

  /// This endpoint's registration id within its hub (the fault plane's
  /// frame-matching key; never reused).
  EndpointId endpoint_id() const noexcept { return id_; }

 private:
  friend class EngineHub;
  EngineTransport(EngineHub* hub, EndpointId id);

  void dispatch(net::Message& msg);

  EngineHub* hub_;
  EndpointId id_;
  net::MessageHandler handler_;
  bool stopped_ = false;
};

/// The endpoint registry + delivery scheduler.  One hub per emulated
/// network; endpoints must not outlive the hub.
class EngineHub {
 public:
  /// `link` defaults to ZeroLatency.
  ///
  /// `batch_window > 0` turns on windowed delivery batching: every
  /// delivery time is rounded *up* to the next multiple of the window, so
  /// frames for one destination due within a window share a single flush
  /// event.  The rounding is a monotone map of delivery times, so
  /// per-pair FIFO survives; the cost is up to one window of extra
  /// latency per frame.  With `batch_window == 0` (the default) delivery
  /// times are exact and only frames with *identical* due times coalesce
  /// (e.g. zero-latency hubs), which preserves the precise latency the
  /// link model drew.
  EngineHub(EventEngine& engine, std::unique_ptr<LinkModel> link = nullptr,
            SimTime batch_window = SimTime::zero());

  EngineHub(const EngineHub&) = delete;
  EngineHub& operator=(const EngineHub&) = delete;

  /// Creates an endpoint (the next dense EndpointId) and routes node
  /// `node` to it from now on.  Throws std::invalid_argument while `node`
  /// still has a live endpoint; a crashed node's id may re-register.
  std::unique_ptr<EngineTransport> make_endpoint(net::LiveNodeId node);

  EventEngine& engine() noexcept { return engine_; }

  /// Installs a fault plane (docs/FAULTS.md): send_from consults it once
  /// per frame, after the dead-destination check and the link model's own
  /// drop draw.  `plane` must outlive the hub's traffic; pass nullptr to
  /// detach.  An installed-but-ruleless plane makes zero RNG draws and
  /// leaves trajectories bit-identical to no plane at all.
  void set_fault_plane(fault::FaultPlane* plane) noexcept { plane_ = plane; }

  // Traffic counters (frames).
  std::uint64_t frames_sent() const noexcept { return sent_; }
  std::uint64_t frames_delivered() const noexcept { return delivered_; }
  std::uint64_t frames_dropped() const noexcept { return dropped_; }

  // Buffer pool (shared by endpoint encode paths and delivery events).
  //
  // Ownership rule: a buffer leaves the pool via acquire_buffer(), is
  // filled by the sender's encode path, and travels with the frame until
  // the hub is done with it — after the receiving handler returns (or the
  // frame is dropped / the receiver is gone), release_buffer() takes it
  // back.  A handler that moves the payload out of its Message keeps the
  // buffer; the hub then recycles nothing and the pool simply refills
  // from later traffic.  Buffers are plain vectors: releasing a buffer
  // the pool didn't hand out is fine, and the pool cap bounds retained
  // capacity to the scenario's in-flight high-water mark.
  std::vector<std::uint8_t> acquire_buffer();
  void release_buffer(std::vector<std::uint8_t> buf);

  /// Approximate heap bytes retained by the hub: the per-endpoint tables,
  /// the node routing table, batching state, FIFO clamps and both buffer
  /// pools (capacities, i.e. the retained footprint).  One line of the
  /// fleet memory audit (EventCluster::memory_breakdown).
  std::size_t approx_bytes() const;

 private:
  friend class EngineTransport;

  /// Pool cap: bounds retained capacity to the scenario's in-flight
  /// high-water mark (beyond it, buffers are simply freed).
  static constexpr std::size_t kPoolCap = 1u << 16;
  /// Cap on recycled per-batch frame vectors (same idea as kPoolCap).
  static constexpr std::size_t kFramePoolCap = 1u << 12;

  /// Inline open-instant markers per endpoint (overflow spills into the
  /// endpoint's batch list as frame-less entries).
  static constexpr std::uint32_t kOpenInline = 3;

  /// One follower frame parked in a destination batch.
  using PendingFrame = std::vector<std::uint8_t>;

  /// Follower frames for one destination due at one instant, drained by
  /// that instant's head delivery event in enqueue (= send) order.  An
  /// entry with empty `frames` is an overflow open-instant marker.
  struct Batch {
    SimTime at{};
    std::vector<PendingFrame> frames;
  };

  /// The delivery-batching rendezvous, one 32-byte record per endpoint:
  /// `at[0..inline_count)` marks the instants with a scheduled head
  /// delivery; bit i of `follower_bits` records that inline instant i has
  /// follower frames parked in batches_[id]; `overflow_count` counts
  /// additional marked instants parked in batches_[id] as frame-less
  /// entries (only under pathological latency spreads).  Send and
  /// deliver read exactly this record and transports_[id] on the
  /// single-frame common path — batches_[id] stays untouched unless a
  /// frame actually coalesces.
  struct OpenMarks {
    std::uint16_t inline_count = 0;
    std::uint16_t overflow_count = 0;
    std::uint32_t follower_bits = 0;
    SimTime at[kOpenInline]{};
  };

  /// Last scheduled (pre-rounding, pre-reorder) delivery from `from` to
  /// the list's destination; dropped once `last_at` has passed.
  struct ClampEntry {
    EndpointId from;
    SimTime last_at;
  };

  /// The scheduled head delivery: the instant's first frame, carried
  /// inline.  Fits EventFn's inline storage; the event's execution time
  /// identifies the instant to drain.
  struct Delivery {
    EngineHub* hub;
    EndpointId to;
    std::vector<std::uint8_t> payload;
    void operator()() { hub->deliver_head(to, std::move(payload)); }
  };

  /// The live endpoint routing `node`, or kInvalidEndpointId when `node`
  /// is beyond the table or never registered (a dead endpoint is returned
  /// as is; send_from sees it dead).
  EndpointId endpoint_of(net::LiveNodeId node) const noexcept {
    return node < by_node_.size() ? by_node_[node] : kInvalidEndpointId;
  }

  bool send_from(EndpointId from, EndpointId to,
                 std::vector<std::uint8_t> payload);
  /// Marks the (destination, instant) rendezvous and schedules or parks
  /// one frame — the tail of send_from, factored out so duplicated frames
  /// enqueue through the identical batching path.
  void enqueue_frame(EndpointId to, SimTime at,
                     std::vector<std::uint8_t> payload);
  /// Delivers the head frame, clears the instant's open marker, and
  /// drains any followers that coalesced at this instant.
  void deliver_head(EndpointId to, std::vector<std::uint8_t> payload);
  /// Delivers one frame to `to` (routing at delivery time: the receiver
  /// may be gone) and recycles the payload buffer.
  void deliver_one(EndpointId to, std::vector<std::uint8_t>& payload);
  void unregister(EndpointId id);

  EventEngine& engine_;
  std::unique_ptr<LinkModel> link_;
  util::Rng rng_;  // link randomness, split off the engine stream
  SimTime batch_window_;
  fault::FaultPlane* plane_ = nullptr;  // optional, not owned

  /// Per-endpoint state as type-segregated contiguous slabs, all indexed
  /// by EndpointId.  Splitting by access pattern (instead of one big
  /// per-endpoint record) keeps each path's working set dense: the
  /// per-send dead-endpoint check walks an 8-byte-stride table, the
  /// batching rendezvous a 32-byte-stride one, and the cold tables
  /// (follower batches, clamp lists) are only pulled in by the paths that
  /// need them.
  ///
  /// transports_[id] == nullptr marks a dead endpoint; clamps_[id] and
  /// batches_[id] hold the FIFO clamps of id's in-flight senders and id's
  /// follower frames per open instant (a handful of entries each, scanned
  /// linearly).  by_node_ is the node-id routing table: each node's latest
  /// endpoint (kInvalidEndpointId for ids never registered).
  std::vector<EngineTransport*> transports_;
  std::vector<OpenMarks> marks_;
  std::vector<std::vector<Batch>> batches_;
  std::vector<std::vector<ClampEntry>> clamps_;
  std::vector<EndpointId> by_node_;

  std::vector<std::vector<std::uint8_t>> pool_;
  std::vector<std::vector<PendingFrame>> frame_pool_;

  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;

  /// Single-threaded by contract, like the engine it schedules on: every
  /// send/registration must come from the thread driving the engine (or
  /// from its event handlers).  Debug-only tripwire, binds on first use.
  util::SingleThreadChecker thread_check_;
};

}  // namespace poly::engine
