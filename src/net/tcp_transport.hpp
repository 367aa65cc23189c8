// TCP transport: length-prefixed frames over POSIX sockets.
//
// The paper's system model is "message-passing nodes that communicate over
// reliable channels (e.g. TCP)" (§III-A).  This transport provides exactly
// that: each endpoint listens on 127.0.0.1:<ephemeral-port>; a send names
// a node id, resolved to "host:port" through the endpoint's
// AddressDirectory when no connection to that node is cached; frames are
//
//     u32 payload_length | payload
//
// Send failures (connection refused / peer closed) return false, which the
// async runtime uses as its contact-failure signal — the same signal the
// simulator's failure detector abstracts.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/transport.hpp"
#include "util/thread_annotations.hpp"

namespace poly::net {

class TcpTransport final : public Transport {
 public:
  /// Binds to 127.0.0.1 on an ephemeral port and starts the accept loop;
  /// sends resolve node ids through `directory`.  Throws
  /// std::runtime_error if the socket cannot be created/bound.
  explicit TcpTransport(std::shared_ptr<const AddressDirectory> directory);
  ~TcpTransport() override;

  /// This endpoint's "127.0.0.1:port" (what a directory records for it).
  const Address& address() const noexcept { return address_; }
  void set_handler(MessageHandler handler) override;
  bool send(LiveNodeId to, std::vector<std::uint8_t> payload) override;
  void shutdown() override;

 private:
  void accept_loop();
  void read_loop(int fd);
  /// Returns a connected socket to node `to` (cached), or -1.
  int connection_to(LiveNodeId to);

  Address address_;
  std::shared_ptr<const AddressDirectory> directory_;
  int listen_fd_ = -1;
  std::thread accept_thread_;

  util::Mutex handler_mu_;
  MessageHandler handler_ GUARDED_BY(handler_mu_);

  /// Guards the outgoing-connection cache; also serializes frame writes
  /// (write_all under conn_mu_ keeps concurrent sends from interleaving
  /// one frame inside another).
  util::Mutex conn_mu_;
  std::unordered_map<LiveNodeId, int> outgoing_ GUARDED_BY(conn_mu_);

  struct Reader {
    int fd;
    std::thread thread;
  };
  util::Mutex readers_mu_;
  std::vector<Reader> readers_ GUARDED_BY(readers_mu_);

  std::atomic<bool> stopped_{false};
};

}  // namespace poly::net
