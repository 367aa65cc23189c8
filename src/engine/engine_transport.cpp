#include "engine/engine_transport.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace poly::engine {

// ---- EngineTransport --------------------------------------------------------

EngineTransport::EngineTransport(EngineHub* hub, EndpointId id)
    : hub_(hub), id_(id) {}

EngineTransport::~EngineTransport() { shutdown(); }

void EngineTransport::set_handler(net::MessageHandler handler) {
  handler_ = std::move(handler);
}

bool EngineTransport::send(net::LiveNodeId to,
                           std::vector<std::uint8_t> payload) {
  if (stopped_) return false;
  return hub_->send_from(id_, hub_->endpoint_of(to), std::move(payload));
}

std::vector<std::uint8_t> EngineTransport::acquire_buffer() {
  return hub_->acquire_buffer();
}

void EngineTransport::shutdown() {
  if (stopped_) return;
  stopped_ = true;
  hub_->unregister(id_);
}

void EngineTransport::dispatch(net::Message& msg) {
  if (!stopped_ && handler_) handler_(msg);
}

// ---- EngineHub --------------------------------------------------------------

EngineHub::EngineHub(EventEngine& engine, std::unique_ptr<LinkModel> link,
                     SimTime batch_window)
    : engine_(engine),
      link_(link ? std::move(link) : std::make_unique<ZeroLatency>()),
      rng_(engine.split_rng()),
      batch_window_(batch_window) {
  // Seed the follower-frame pool: multi-frame instants are rare enough
  // that their circulation high-water creeps up for thousands of rounds —
  // a decaying allocation tail the steady-state zero-alloc guarantee
  // forbids.  A fixed, fleet-size-independent seed (~9 KB) covers the
  // concurrent open batches of the in-tree scenarios; if a scenario ever
  // exceeds it, the path degrades to the old lazy allocation.
  frame_pool_.reserve(kFramePoolCap);
  for (int i = 0; i < 32; ++i) {
    frame_pool_.emplace_back();
    frame_pool_.back().reserve(8);
  }
}

std::unique_ptr<EngineTransport> EngineHub::make_endpoint(
    net::LiveNodeId node) {
  thread_check_.check("EngineHub::make_endpoint");
  const EndpointId live = endpoint_of(node);
  if (live != kInvalidEndpointId && transports_[live] != nullptr)
    throw std::invalid_argument("EngineHub: node " + std::to_string(node) +
                                " already has a live endpoint");
  const auto id = static_cast<EndpointId>(transports_.size());
  auto ep = std::unique_ptr<EngineTransport>(new EngineTransport(this, id));
  transports_.push_back(ep.get());
  marks_.emplace_back();
  // Reserve the batching rendezvous up front: a destination's first
  // coalesced frame would otherwise allocate its batch list lazily — a
  // decaying-tail allocation the steady-state zero-alloc guarantee (and
  // its counting test) forbids.  Two entries cover concurrent open
  // instants on fixed links; jitter spreads frames over more, so
  // send_from widens the list (and sizes the clamp list) on a
  // destination's first jittered frame.
  batches_.emplace_back().reserve(2);
  clamps_.emplace_back();
  if (node >= by_node_.size())
    by_node_.resize(node + 1, kInvalidEndpointId);
  by_node_[node] = id;
  return ep;
}

std::vector<std::uint8_t> EngineHub::acquire_buffer() {
  if (pool_.empty()) return {};
  std::vector<std::uint8_t> buf = std::move(pool_.back());
  pool_.pop_back();
  return buf;
}

void EngineHub::release_buffer(std::vector<std::uint8_t> buf) {
  if (buf.capacity() == 0 || pool_.size() >= kPoolCap) return;
  buf.clear();
  pool_.push_back(std::move(buf));
}

std::size_t EngineHub::approx_bytes() const {
  std::size_t b = transports_.capacity() * sizeof(EngineTransport*) +
                  marks_.capacity() * sizeof(OpenMarks) +
                  batches_.capacity() * sizeof(std::vector<Batch>) +
                  clamps_.capacity() * sizeof(std::vector<ClampEntry>) +
                  by_node_.capacity() * sizeof(EndpointId) +
                  pool_.capacity() * sizeof(std::vector<std::uint8_t>) +
                  frame_pool_.capacity() * sizeof(std::vector<PendingFrame>);
  for (const auto& batch_list : batches_) {
    b += batch_list.capacity() * sizeof(Batch);
    for (const auto& batch : batch_list)
      b += batch.frames.capacity() * sizeof(PendingFrame);
  }
  for (const auto& clamp : clamps_)
    b += clamp.capacity() * sizeof(ClampEntry);
  for (const auto& buf : pool_) b += buf.capacity();
  for (const auto& frames : frame_pool_)
    b += frames.capacity() * sizeof(PendingFrame);
  return b;
}

void EngineHub::unregister(EndpointId id) {
  if (id >= transports_.size() || transports_[id] == nullptr) return;
  transports_[id] = nullptr;
  // A dead endpoint receives nothing more; entries naming it as a sender
  // in other lists expire on their own.  Open instants stay: their head
  // events fire, see the dead transport, and discard.
  clamps_[id] = {};
}

bool EngineHub::send_from(EndpointId from, EndpointId to,
                          std::vector<std::uint8_t> payload) {
  thread_check_.check("EngineHub::send_from");
  if (to >= transports_.size() || transports_[to] == nullptr) {
    release_buffer(std::move(payload));
    return false;  // contact failure
  }
  ++sent_;
  if (link_->drop(rng_)) {
    ++dropped_;
    release_buffer(std::move(payload));
    return true;  // accepted, lost in flight
  }
  // Fault plane (docs/FAULTS.md): one consultation per frame that passed
  // the dead-destination check and the link model's own drop draw.  With
  // no plane (or no rules) this is a single predictable branch and zero
  // RNG draws — trajectories are bit-identical to a plane-free hub.
  fault::FrameFate fate;
  if (plane_ != nullptr && plane_->active())
    fate = plane_->fate(from, to, payload.size(), engine_.now());
  if (fate.blackholed) {
    // Silent in-flight loss: the sender observes success, exactly like a
    // link-model drop — a partitioned peer looks slow/lossy, not dead.
    release_buffer(std::move(payload));
    return true;
  }
  SimTime at = engine_.now() + link_->latency(payload.size(), rng_) +
               fate.extra_latency;
  // Guard against a link model drawing a negative latency: the batching
  // rendezvous identifies an instant by the head event's execution time,
  // and schedule_at clamps past timestamps to now — a marker recorded
  // under a past `at` would never be found again (leaking its slot and
  // any parked followers).  Clamp here so marker and event always agree.
  if (at < engine_.now()) at = engine_.now();
  if (link_->may_reorder() ||
      (plane_ != nullptr && plane_->may_jitter())) {
    // Per-pair FIFO.  An entry at or before now cannot move a frame (at >=
    // now): drop those and `from`'s own, then append its new last delivery.
    std::vector<ClampEntry>& clamp = clamps_[to];
    if (clamp.capacity() == 0) {  // `to`'s first jittered frame
      clamp.reserve(8);
      batches_[to].reserve(4);  // see make_endpoint
    }
    std::erase_if(clamp, [&](const ClampEntry& e) {
      if (e.from == from && at < e.last_at) at = e.last_at;
      return e.from == from || e.last_at <= engine_.now();
    });
    clamp.push_back(ClampEntry{from, at});
  }
  // Reorder jitter lands *after* the FIFO clamp on purpose: breaking
  // per-pair ordering is the entire point of a reorder rule.  The clamp
  // entry above recorded the pre-jitter time, so later frames on the pair
  // are not dragged behind the straggler.
  at += fate.reorder_latency;
  // Round the delivery up to the batch window so frames for this
  // destination coalesce.  Monotone in `at`, so the per-pair FIFO the
  // clamp just established survives the rounding.
  if (batch_window_ > SimTime::zero()) {
    const std::int64_t w = batch_window_.count();
    at = SimTime{(at.count() + w - 1) / w * w};
  }
  if (fate.corrupt) plane_->corrupt_payload(payload);
  if (fate.copies > 1) {
    // Duplicates are byte-identical copies (corruption included) delivered
    // at the same instant; they coalesce as followers of the original.
    std::vector<std::vector<std::uint8_t>> dups;
    dups.reserve(fate.copies - 1);
    for (std::uint32_t c = 1; c < fate.copies; ++c) {
      std::vector<std::uint8_t> dup = acquire_buffer();
      dup.assign(payload.begin(), payload.end());
      dups.push_back(std::move(dup));
    }
    enqueue_frame(to, at, std::move(payload));
    for (auto& dup : dups) enqueue_frame(to, at, std::move(dup));
    return true;
  }
  enqueue_frame(to, at, std::move(payload));
  return true;
}

void EngineHub::enqueue_frame(EndpointId to, SimTime at,
                              std::vector<std::uint8_t> payload) {
  // Follower?  The marks record is the whole cost of batching on the
  // single-frame common path; the batch list is only consulted when the
  // instant is already marked (or an overflow marker can exist at all).
  OpenMarks& marks = marks_[to];
  std::uint32_t inline_slot = kOpenInline;
  for (std::uint16_t i = 0; i < marks.inline_count; ++i) {
    if (marks.at[i] == at) {
      inline_slot = i;
      break;
    }
  }
  // One scan serves both overflow-marker detection and follower
  // insertion; the common fresh-instant case (no inline hit, no overflow
  // markers) never touches the batch list.
  Batch* open_batch = nullptr;  // the instant's batch, when one exists
  if (inline_slot != kOpenInline || marks.overflow_count > 0) {
    for (Batch& b : batches_[to]) {
      if (b.at == at) {
        open_batch = &b;
        break;
      }
    }
  }
  if (inline_slot != kOpenInline || open_batch != nullptr) {
    // Follower: park the frame; the instant's head event drains it after
    // its own.
    if (inline_slot != kOpenInline)
      marks.follower_bits |= 1u << inline_slot;
    if (open_batch != nullptr) {
      // An overflow marker is a frame-less Batch: give it a recycled
      // frames vector before the first push, like batch creation below —
      // growing from capacity zero here would allocate on every
      // overflow-instant follower.
      if (open_batch->frames.capacity() == 0 && !frame_pool_.empty()) {
        open_batch->frames = std::move(frame_pool_.back());
        frame_pool_.pop_back();
      }
      open_batch->frames.push_back(std::move(payload));
      return;
    }
    Batch batch;
    batch.at = at;
    if (!frame_pool_.empty()) {
      batch.frames = std::move(frame_pool_.back());
      frame_pool_.pop_back();
    }
    batch.frames.push_back(std::move(payload));
    batches_[to].push_back(std::move(batch));
    return;
  }
  // Head of a fresh instant: mark it and carry the frame inline in the
  // delivery event (no batch structure touched until a follower shows up).
  if (marks.inline_count < kOpenInline) {
    marks.follower_bits &= ~(1u << marks.inline_count);
    marks.at[marks.inline_count++] = at;
  } else {
    ++marks.overflow_count;
    batches_[to].push_back(Batch{at, {}});  // overflow marker
  }
  engine_.schedule_at(at, Delivery{this, to, std::move(payload)});
}

void EngineHub::deliver_one(EndpointId to,
                            std::vector<std::uint8_t>& payload) {
  // Route at delivery time, per frame: the receiver may have crashed in
  // between (or mid-batch, from its own handler).
  EngineTransport* ep = transports_[to];
  if (ep != nullptr) {
    ++delivered_;
    net::Message msg{std::move(payload)};
    ep->dispatch(msg);
    payload = std::move(msg.payload);  // reclaim unless the handler kept it
  }
  release_buffer(std::move(payload));
}

void EngineHub::deliver_head(EndpointId to,
                             std::vector<std::uint8_t> payload) {
  deliver_one(to, payload);
  // The head executes exactly at its timestamp, which identifies the
  // instant: clear its open marker and drain any followers.  (Index the
  // tables fresh after dispatch — a handler may have grown them.)
  const SimTime at = engine_.now();
  OpenMarks& marks = marks_[to];
  bool was_inline = false;
  bool has_followers = false;
  for (std::uint16_t i = 0; i < marks.inline_count; ++i) {
    if (marks.at[i] == at) {
      was_inline = true;
      has_followers = (marks.follower_bits >> i) & 1u;
      // Swap-remove the marker, carrying the last slot's follower bit.
      const std::uint16_t last = --marks.inline_count;
      marks.at[i] = marks.at[last];
      const std::uint32_t last_bit = (marks.follower_bits >> last) & 1u;
      marks.follower_bits &= ~((1u << i) | (1u << last));
      marks.follower_bits |= last_bit << i;
      break;
    }
  }
  if (was_inline && !has_followers) return;  // single-frame instant
  std::vector<PendingFrame> frames;
  {
    std::vector<Batch>& batches = batches_[to];
    for (std::size_t i = 0; i < batches.size(); ++i) {
      if (batches[i].at == at) {
        frames = std::move(batches[i].frames);
        batches[i] = std::move(batches.back());
        batches.pop_back();
        break;
      }
    }
  }
  if (!was_inline) --marks.overflow_count;
  for (PendingFrame& f : frames) deliver_one(to, f);
  frames.clear();
  if (frames.capacity() > 0 && frame_pool_.size() < kFramePoolCap)
    frame_pool_.push_back(std::move(frames));
}

}  // namespace poly::engine
