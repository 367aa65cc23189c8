// Message transport abstraction for the live (non-simulated) runtime.
//
// The paper assumes "message-passing nodes that communicate over reliable
// channels (e.g. TCP)" (§III-A) but evaluates in a round-based simulator.
// This module supplies the real substrate: a node-addressed transport with
// reliable in-order delivery per sender-receiver pair.  Implementations:
//
//   * InProcTransport — thread-safe mailboxes inside one process; used by
//     the async runtime tests and the live_async example.
//   * TcpTransport    — length-prefixed frames over localhost TCP sockets.
//   * EngineTransport — deterministic virtual-time delivery over the
//     discrete-event kernel (engine/engine_transport.hpp).
//
// Delivery is callback-based: the transport invokes the registered handler
// on its own thread(s); handlers must be thread-safe.
//
// Addressing: peers are node ids end to end, as in the paper's protocol
// (§III).  Views, gossip and frame headers carry only ids, and `send`
// takes the destination's id.  Turning an id into something routable is
// the transport's business: the engine hub keeps a flat node-id → live
// endpoint table, and the live transports resolve ids through an
// AddressDirectory (id → "host:port" or registry key) that their cluster
// fills.  An id a transport cannot resolve — never registered, crashed,
// or beyond the table (a corrupted frame can plant any id) — is a contact
// failure: `send` returns false.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "util/thread_annotations.hpp"

namespace poly::net {

/// Logical node identity in the live runtime: what views hold, what the
/// wire carries, and what a Transport sends to.
using LiveNodeId = std::uint64_t;

/// Opaque endpoint address of a live transport.  For InProcTransport this
/// is a registry key; for TcpTransport a "host:port" string.
using Address = std::string;

/// A received datagram-style message (framing is the transport's job; the
/// sender's identity travels inside the payload's protocol header).
struct Message {
  std::vector<std::uint8_t> payload;
};

/// Handler invoked on message arrival (on a transport thread).  The
/// transport retains ownership of the message: handlers read it in place
/// and move from `payload` only if they need to keep the bytes.  This lets
/// pooling transports recycle the payload buffer after the handler
/// returns instead of allocating one per message.
using MessageHandler = std::function<void(Message&)>;

/// Abstract reliable point-to-point transport.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Registers the receive callback.  Must be called before messages are
  /// expected; replacing the handler is allowed between quiescent points.
  virtual void set_handler(MessageHandler handler) = 0;

  /// Sends `payload` to node `to`.  Returns false if the node is
  /// unreachable (unknown or out-of-range id, connection refused, peer
  /// closed).  Reliable transports never silently drop an accepted
  /// message.
  virtual bool send(LiveNodeId to, std::vector<std::uint8_t> payload) = 0;

  /// A payload buffer to encode the next frame into — recycled from the
  /// transport's pool when it keeps one (empty, but typically with the
  /// capacity of a previous same-sized frame).  Default: a fresh vector.
  virtual std::vector<std::uint8_t> acquire_buffer() { return {}; }

  /// Stops delivering messages and releases resources.  Idempotent.
  virtual void shutdown() = 0;
};

/// The live transports' node-id → address table.  A cluster fills it as
/// nodes are created; transports read it on every send that needs a
/// fresh route.  Thread-safe.
class AddressDirectory {
 public:
  /// Records `id`'s address (grows the table as needed).
  void set(LiveNodeId id, Address addr);

  /// `id`'s address; nullopt when `id` is beyond the table or was never
  /// set.
  std::optional<Address> find(LiveNodeId id) const;

 private:
  mutable util::Mutex mu_;
  std::vector<Address> addrs_ GUARDED_BY(mu_);
};

}  // namespace poly::net
