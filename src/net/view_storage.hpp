// Arena-backed per-node view storage for the live runtime.
//
// AsyncNode's protocol state is a handful of small bounded lists: the RPS
// view (<= rps_view entries), the ranked T-Man view (<= tman_view), the
// backup target list (<= K) and the ghost table (~K entries).  The views
// are plain util::ArenaVec arrays of trivially copyable entries — ids,
// ages, versions, positions (PeerHot 56 B, DescriptorHot 56 B).  Peers are
// node ids only: no transport name is stored beside an entry, since the
// transport routes ids itself (net/transport.hpp).
//
// The caps come from AsyncConfig, so the entire view footprint is known at
// node construction and carved from the cluster's arena in one pass —
// zero per-node heap vectors in the steady state, and the arena's byte
// counter *is* the fleet's state-memory audit.
//
// GhostTable is the one non-trivial container: ghost sets own heap-backed
// PointSets.  Slots live in arena memory sorted by origin id (the
// recovery merge order), and erase rotates the vacated slot to the spare
// region instead of destroying it, so a reinserted origin reuses the
// retired PointSet's capacity — backup churn stops allocating once the
// fleet's high-water mark is reached.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <new>

#include "core/point_set.hpp"
#include "net/messages.hpp"
#include "space/point.hpp"
#include "util/arena.hpp"

namespace poly::net {

/// An RPS view entry: what aging, sampling and merge compare, plus the
/// peer's last known topology descriptor (see WirePeer — `version == 0`
/// means the position is unknown).
struct PeerHot {
  LiveNodeId id = 0;
  std::uint32_t age = 0;
  space::Point pos;
  std::uint64_t version = 0;
};

/// A T-Man view entry: what ranking and merge compare.
///
/// `age` is purely local state (never on the wire): ticks since the
/// entry was last refreshed.  First-hand contact (the member itself
/// sent us a message) resets it to 0; a forwarded third-party copy can
/// only lower it to the forwarding horizon (tman_forward_age).  Entries
/// older than AsyncConfig::tman_ttl are evicted each tick — the view's
/// only defence against members that crashed or moved far away, whose
/// stale descriptors would otherwise rank as "nearby" forever.
struct DescriptorHot {
  LiveNodeId id = 0;
  std::uint64_t version = 0;
  space::Point pos;
  std::uint32_t age = 0;
};

static_assert(sizeof(PeerHot) == 56 && sizeof(DescriptorHot) == 56,
              "view entry layout drifted (update the arena-footprint test)");

using PeerList = util::ArenaVec<PeerHot>;
using DescriptorList = util::ArenaVec<DescriptorHot>;

/// Linear id lookup (views hold <= ~24 entries; a scan beats any index).
/// Returns v.size() when absent.
template <typename Entry>
std::size_t find_id(const util::ArenaVec<Entry>& v, LiveNodeId id) noexcept {
  for (std::size_t i = 0; i < v.size(); ++i)
    if (v[i].id == id) return i;
  return v.size();
}

/// Ghost sets keyed by origin id, slots in arena memory sorted ascending
/// by origin (the recovery merge order the old flat vector / std::map
/// kept).  Erase parks the vacated slot — PointSet capacity intact — in
/// the spare region past size(); the next insert rotates a spare back in,
/// so churn recycles instead of reallocating.
class GhostTable {
 public:
  struct Slot {
    LiveNodeId origin = 0;
    std::chrono::steady_clock::time_point last_push{};
    core::PointSet points;
  };

  GhostTable() = default;
  GhostTable(const GhostTable&) = delete;
  GhostTable& operator=(const GhostTable&) = delete;
  ~GhostTable() { destroy(); }

  void bind(util::Arena& arena, std::uint32_t initial_cap) {
    arena_ = &arena;
    grow(initial_cap > 0 ? initial_cap : 1);
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  Slot& operator[](std::size_t i) noexcept { return slots_[i]; }
  const Slot& operator[](std::size_t i) const noexcept { return slots_[i]; }

  /// The slot for `origin`, inserted in sorted position if absent.  The
  /// caller owns resetting points/last_push on a fresh slot (a
  /// recycled slot may carry a retired origin's stale fields).
  Slot& find_or_insert(LiveNodeId origin) {
    const std::size_t pos = lower_bound(origin);
    if (pos < size_ && slots_[pos].origin == origin) return slots_[pos];
    if (size_ == cap_) grow(cap_ * 2);
    // Rotate the first spare slot (index size_) into position: the spares
    // hold retired PointSets whose capacity the new origin inherits.
    std::rotate(slots_ + pos, slots_ + size_, slots_ + size_ + 1);
    ++size_;
    Slot& s = slots_[pos];
    s.origin = origin;
    return s;
  }

  /// Removes slot `i`, keeping sort order; the slot parks as a spare.
  void erase(std::size_t i) noexcept {
    std::rotate(slots_ + i, slots_ + i + 1, slots_ + size_);
    --size_;
  }

  /// Heap bytes retained by the slots' PointSets (spares included): the
  /// one part of ghost storage the arena counter cannot see, reported
  /// separately by the bytes/node audit.
  std::size_t heap_bytes() const noexcept {
    std::size_t b = 0;
    for (std::size_t i = 0; i < cap_; ++i)
      b += slots_[i].points.capacity() * sizeof(space::DataPoint);
    return b;
  }

 private:
  std::size_t lower_bound(LiveNodeId origin) const noexcept {
    std::size_t lo = 0, hi = size_;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (slots_[mid].origin < origin) lo = mid + 1; else hi = mid;
    }
    return lo;
  }

  void grow(std::uint32_t cap) {
    Slot* fresh = static_cast<Slot*>(
        arena_->allocate(sizeof(Slot) * cap, alignof(Slot)));
    for (std::uint32_t i = 0; i < cap; ++i) {
      if (i < cap_)
        ::new (static_cast<void*>(fresh + i)) Slot(std::move(slots_[i]));
      else
        ::new (static_cast<void*>(fresh + i)) Slot();
    }
    destroy();
    slots_ = fresh;
    cap_ = cap;
  }

  void destroy() noexcept {
    for (std::uint32_t i = cap_; i > 0; --i) slots_[i - 1].~Slot();
    slots_ = nullptr;  // memory stays in the arena
  }

  Slot* slots_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = 0;
  util::Arena* arena_ = nullptr;
};

}  // namespace poly::net
