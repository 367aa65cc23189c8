// In-process transport: a registry of named endpoints with per-endpoint
// mailbox threads.  Reliable, in-order per sender-receiver pair, and
// supports abrupt endpoint "crashes" (for failure-injection tests) by
// closing the mailbox without draining it.  Sends name a node id, which
// the endpoint resolves to a registry name through its AddressDirectory.
#pragma once

#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>

#include "net/transport.hpp"
#include "util/thread_annotations.hpp"

namespace poly::net {

class InProcHub;

/// One endpoint of an InProcHub.
class InProcTransport final : public Transport {
 public:
  ~InProcTransport() override;

  const Address& address() const noexcept { return address_; }
  void set_handler(MessageHandler handler) override;
  bool send(LiveNodeId to, std::vector<std::uint8_t> payload) override;
  void shutdown() override;

 private:
  friend class InProcHub;
  InProcTransport(std::shared_ptr<InProcHub> hub, Address address,
                  std::shared_ptr<const AddressDirectory> directory);

  /// Enqueues an incoming message; returns false if shut down.
  bool deliver(Message msg);
  void pump();  // mailbox thread body

  std::shared_ptr<InProcHub> hub_;
  Address address_;
  std::shared_ptr<const AddressDirectory> directory_;

  /// Guards the mailbox across senders (deliver), the pump thread, and
  /// shutdown.
  util::Mutex mu_;
  util::CondVar cv_;
  std::deque<Message> inbox_ GUARDED_BY(mu_);
  MessageHandler handler_ GUARDED_BY(mu_);
  bool stopped_ GUARDED_BY(mu_) = false;
  std::thread pump_thread_;
};

/// The endpoint registry.  Create one hub per emulated network.
class InProcHub : public std::enable_shared_from_this<InProcHub> {
 public:
  static std::shared_ptr<InProcHub> create();

  /// Creates and registers an endpoint with a unique address; its sends
  /// resolve node ids through `directory`.
  std::unique_ptr<InProcTransport> make_endpoint(
      const Address& address,
      std::shared_ptr<const AddressDirectory> directory);

  /// True if the address is currently registered (alive).
  bool reachable(const Address& address);

 private:
  friend class InProcTransport;
  InProcHub() = default;

  bool route(const Address& to, Message msg);
  void unregister(const Address& address);

  util::Mutex mu_;
  std::unordered_map<Address, InProcTransport*> endpoints_ GUARDED_BY(mu_);
};

}  // namespace poly::net
