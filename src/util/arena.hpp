// Chunked bump arena + arena-backed capped vector.
//
// The engine fleets keep per-node protocol state (peer views, ranked
// descriptor views, backup targets, ghost tables) in many small arrays.
// As individual std::vectors that is one heap block per array per node —
// at a million nodes, millions of scattered allocations, a pointer chase
// per touch, and an allocator-dependent footprint nobody can account for.
// Arena packs them instead: every per-node array is carved out of large
// shared chunks owned by the cluster, so neighbouring nodes' state is
// contiguous, construction is a pointer bump, teardown is bulk, and
// `bytes_used()` reports the fleet's exact state footprint for the
// bytes/node audit (bench/fig07a, micro_engine_hotpath's
// mem_bytes_per_node column).
//
// Grow-only by design, like ObjectSlab: nothing is ever freed back.  An
// ArenaVec that outgrows its block abandons it for a bigger one — callers
// with config-derived caps (the protocol views) bind enough up front and
// never grow in the steady state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace poly::util {

/// Bump allocator over large chunks.  Not copyable; frees the chunks (and
/// only the chunks — objects must be trivially destructible or destroyed
/// by their owner) on destruction.
class Arena {
 public:
  explicit Arena(std::size_t chunk_bytes = std::size_t{1} << 20)
      : chunk_bytes_(chunk_bytes > 64 ? chunk_bytes : 64) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    for (const Chunk& c : chunks_)
      ::operator delete(c.data, std::align_val_t{kAlign});
  }

  /// Bumps out `bytes` bytes aligned to `align` (<= kAlign).  Never
  /// returns nullptr; an over-chunk request gets a dedicated chunk.
  void* allocate(std::size_t bytes, std::size_t align) {
    std::size_t pad = (align - (cur_off_ & (align - 1))) & (align - 1);
    if (cur_ == nullptr || cur_off_ + pad + bytes > cur_size_) {
      const std::size_t want = bytes > chunk_bytes_ ? bytes : chunk_bytes_;
      cur_ = static_cast<unsigned char*>(
          ::operator new(want, std::align_val_t{kAlign}));
      chunks_.push_back(Chunk{cur_, want});
      reserved_ += want;
      cur_size_ = want;
      cur_off_ = 0;
      pad = 0;
    }
    void* p = cur_ + cur_off_ + pad;
    cur_off_ += pad + bytes;
    used_ += pad + bytes;
    return p;
  }

  /// Uninitialized storage for `n` objects of T.
  template <typename T>
  T* alloc_array(std::size_t n) {
    static_assert(alignof(T) <= kAlign, "over-aligned type in Arena");
    return static_cast<T*>(allocate(sizeof(T) * n, alignof(T)));
  }

  /// Bytes handed out (including alignment padding): the exact live-state
  /// footprint, modulo blocks abandoned by ArenaVec growth.
  std::size_t bytes_used() const noexcept { return used_; }
  /// Bytes held from the system (chunk footprint >= bytes_used).
  std::size_t bytes_reserved() const noexcept { return reserved_; }

  /// Every allocation is aligned for these types at minimum.
  static constexpr std::size_t kAlign = alignof(std::max_align_t);

 private:
  struct Chunk {
    unsigned char* data;
    std::size_t size;
  };
  std::vector<Chunk> chunks_;
  unsigned char* cur_ = nullptr;
  std::size_t cur_size_ = 0;
  std::size_t cur_off_ = 0;
  std::size_t chunk_bytes_;
  std::size_t used_ = 0;
  std::size_t reserved_ = 0;
};

/// A vector whose storage lives in an Arena.  Restricted to trivially
/// copyable elements (growth and erase are memcpy/memmove), 24 bytes of
/// member footprint, no destructor obligations.  bind() carves the
/// initial capacity; exceeding it grows geometrically from the arena and
/// abandons the old block — correct but wasteful, so bound callers size
/// their caps to make steady-state growth impossible (the arena-stability
/// test asserts exactly that).
///
/// Not copyable (two ArenaVecs must never alias one block): use assign()
/// or swap() explicitly.
template <typename T>
class ArenaVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "ArenaVec elements must be trivially copyable");

 public:
  ArenaVec() = default;
  ArenaVec(const ArenaVec&) = delete;
  ArenaVec& operator=(const ArenaVec&) = delete;

  /// Attaches to `arena` and reserves `initial_cap` elements.  Call once,
  /// before first use (typically from the owning object's constructor).
  void bind(Arena& arena, std::uint32_t initial_cap) {
    arena_ = &arena;
    cap_ = initial_cap;
    size_ = 0;
    data_ = initial_cap > 0 ? arena.alloc_array<T>(initial_cap) : nullptr;
  }

  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + size_; }
  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }
  T& front() noexcept { return data_[0]; }
  T& back() noexcept { return data_[size_ - 1]; }

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return cap_; }
  bool empty() const noexcept { return size_ == 0; }

  void clear() noexcept { size_ = 0; }
  void pop_back() noexcept { --size_; }

  void push_back(const T& v) {
    if (size_ == cap_) grow(size_ + 1);
    data_[size_++] = v;
  }

  /// Grows/shrinks to `n`; new elements are value-initialized.
  void resize(std::size_t n) {
    if (n > cap_) grow(static_cast<std::uint32_t>(n));
    for (std::size_t i = size_; i < n; ++i) data_[i] = T{};
    size_ = static_cast<std::uint32_t>(n);
  }

  /// Removes element `i`, shifting the tail left (preserves order).
  void erase(std::size_t i) noexcept {
    if (i + 1 < size_)
      std::memmove(data_ + i, data_ + i + 1, (size_ - i - 1) * sizeof(T));
    --size_;
  }

  /// Removes every element satisfying `pred` (order kept).
  template <typename Pred>
  void erase_if(Pred pred) noexcept {
    std::uint32_t out = 0;
    for (std::uint32_t i = 0; i < size_; ++i)
      if (!pred(data_[i])) data_[out++] = data_[i];
    size_ = out;
  }

  /// Copies `o`'s contents (sizes up if needed).  The staging idiom for
  /// scratch copies of bound views.
  void assign(const ArenaVec& o) {
    if (o.size_ > cap_) grow(o.size_);
    if (o.size_ > 0) std::memcpy(data_, o.data_, o.size_ * sizeof(T));
    size_ = o.size_;
  }

  void swap(ArenaVec& o) noexcept {
    std::swap(data_, o.data_);
    std::swap(size_, o.size_);
    std::swap(cap_, o.cap_);
    std::swap(arena_, o.arena_);
  }

 private:
  void grow(std::uint32_t need) {
    std::uint32_t cap = cap_ > 0 ? cap_ : 4;
    while (cap < need) cap *= 2;
    T* fresh = arena_->alloc_array<T>(cap);
    if (size_ > 0) std::memcpy(fresh, data_, size_ * sizeof(T));
    data_ = fresh;  // old block stays in the arena, unreachable
    cap_ = cap;
  }

  T* data_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = 0;
  Arena* arena_ = nullptr;
};

}  // namespace poly::util
