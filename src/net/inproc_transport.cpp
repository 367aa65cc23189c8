#include "net/inproc_transport.hpp"

#include <stdexcept>

namespace poly::net {

// ---- InProcHub -------------------------------------------------------------

std::shared_ptr<InProcHub> InProcHub::create() {
  return std::shared_ptr<InProcHub>(new InProcHub());
}

std::unique_ptr<InProcTransport> InProcHub::make_endpoint(
    const Address& address,
    std::shared_ptr<const AddressDirectory> directory) {
  std::unique_ptr<InProcTransport> ep(new InProcTransport(
      shared_from_this(), address, std::move(directory)));
  {
    util::MutexLock lk(mu_);
    if (!endpoints_.emplace(address, ep.get()).second)
      throw std::invalid_argument("InProcHub: duplicate address " + address);
  }
  return ep;
}

bool InProcHub::reachable(const Address& address) {
  util::MutexLock lk(mu_);
  return endpoints_.contains(address);
}

bool InProcHub::route(const Address& to, Message msg) {
  InProcTransport* target = nullptr;
  {
    util::MutexLock lk(mu_);
    auto it = endpoints_.find(to);
    if (it == endpoints_.end()) return false;
    target = it->second;
  }
  // Delivery outside the hub lock: the mailbox has its own mutex, and a
  // shutdown between lookup and deliver is handled by deliver() itself.
  return target->deliver(std::move(msg));
}

void InProcHub::unregister(const Address& address) {
  util::MutexLock lk(mu_);
  endpoints_.erase(address);
}

// ---- InProcTransport -------------------------------------------------------

InProcTransport::InProcTransport(
    std::shared_ptr<InProcHub> hub, Address address,
    std::shared_ptr<const AddressDirectory> directory)
    : hub_(std::move(hub)),
      address_(std::move(address)),
      directory_(std::move(directory)) {
  pump_thread_ = std::thread([this] { pump(); });
}

InProcTransport::~InProcTransport() { shutdown(); }

void InProcTransport::set_handler(MessageHandler handler) {
  util::MutexLock lk(mu_);
  handler_ = std::move(handler);
  cv_.notify_all();
}

bool InProcTransport::send(LiveNodeId to, std::vector<std::uint8_t> payload) {
  const std::optional<Address> addr = directory_->find(to);
  if (!addr) return false;  // unknown or out-of-range id
  if (*addr == address_) {
    // Loopback without going through the hub.
    return deliver(Message{std::move(payload)});
  }
  return hub_->route(*addr, Message{std::move(payload)});
}

bool InProcTransport::deliver(Message msg) {
  util::MutexLock lk(mu_);
  if (stopped_) return false;
  inbox_.push_back(std::move(msg));
  cv_.notify_all();
  return true;
}

void InProcTransport::pump() {
  for (;;) {
    Message msg;
    MessageHandler handler;
    {
      util::MutexLock lk(mu_);
      cv_.wait(mu_, [this]() REQUIRES(mu_) {
        return stopped_ || (!inbox_.empty() && handler_ != nullptr);
      });
      if (stopped_) return;
      msg = std::move(inbox_.front());
      inbox_.pop_front();
      handler = handler_;  // copy under lock; invoke outside it
    }
    handler(msg);  // transport keeps ownership; handlers move if needed
  }
}

void InProcTransport::shutdown() {
  {
    util::MutexLock lk(mu_);
    if (stopped_) return;
    stopped_ = true;
    inbox_.clear();  // crash semantics: undelivered messages are lost
    cv_.notify_all();
  }
  hub_->unregister(address_);
  if (pump_thread_.joinable()) pump_thread_.join();
}

}  // namespace poly::net
