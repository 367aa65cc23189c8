#include "net/transport.hpp"

namespace poly::net {

void AddressDirectory::set(LiveNodeId id, Address addr) {
  util::MutexLock lk(mu_);
  if (id >= addrs_.size()) addrs_.resize(id + 1);
  addrs_[id] = std::move(addr);
}

std::optional<Address> AddressDirectory::find(LiveNodeId id) const {
  util::MutexLock lk(mu_);
  if (id >= addrs_.size() || addrs_[id].empty()) return std::nullopt;
  return addrs_[id];
}

}  // namespace poly::net
