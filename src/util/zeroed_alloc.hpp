// calloc-backed allocator for arrays whose empty state is all-zero bytes.
//
// `ZeroedVector<T>(n)` (or `resize(n)` of an empty one) value-initialises
// nothing: the allocator hands out memory that is already zero. A new block
// comes from calloc, which writes no byte of a block that glibc maps fresh or
// carves from newly grown heap, so the kernel supplies those pages zeroed on
// first touch and construction faults none of them in.
//
// A freed block of at least kMinBytes stays with the freeing thread and goes
// to that thread's next allocation of the same size, re-zeroed with memset.
// A sweep worker builds one same-shaped network after another. Without this,
// glibc can trim the freed arrays off the heap between builds, and calloc
// then zeroes the regrown heap itself, faulting it in page by page
// (DESIGN.md "Memory layout"). A thread keeps at most kMaxBlocks blocks and
// kBudgetBytes bytes, dropping the oldest first; it frees them on exit, so a
// ZeroedVector must not be freed during thread exit (no static or
// thread_local ZeroedVectors).
//
// Only for arrays sized once from empty: a shrink followed by a regrow
// within capacity would expose stale bytes, because value-initialisation is
// a no-op. T must be a type whose value-initialised state is all-zero bytes.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

namespace swft {

namespace detail {

/// One thread's freed ZeroedAlloc blocks, oldest first.
class FreedBlocks {
 public:
  static constexpr std::size_t kMinBytes = std::size_t{64} << 10;
  static constexpr std::size_t kBudgetBytes = std::size_t{64} << 20;
  static constexpr std::size_t kMaxBlocks = 32;

  FreedBlocks() = default;
  FreedBlocks(const FreedBlocks&) = delete;
  FreedBlocks& operator=(const FreedBlocks&) = delete;
  ~FreedBlocks() {
    while (count_ > 0) std::free(removeAt(0).p);
  }

  /// The newest kept block of exactly `bytes`, zeroed; nullptr if none.
  [[nodiscard]] void* take(std::size_t bytes) noexcept {
    for (std::size_t i = count_; i-- > 0;) {
      if (blocks_[i].bytes == bytes) {
        void* p = removeAt(i).p;
        std::memset(p, 0, bytes);
        return p;
      }
    }
    return nullptr;
  }

  void keep(void* p, std::size_t bytes) noexcept {
    if (bytes > kBudgetBytes) {
      std::free(p);
      return;
    }
    while (count_ == kMaxBlocks || held_ + bytes > kBudgetBytes) {
      std::free(removeAt(0).p);
    }
    blocks_[count_++] = Block{p, bytes};
    held_ += bytes;
  }

 private:
  struct Block {
    void* p;
    std::size_t bytes;
  };

  Block removeAt(std::size_t i) noexcept {
    const Block b = blocks_[i];
    for (std::size_t j = i + 1; j < count_; ++j) blocks_[j - 1] = blocks_[j];
    --count_;
    held_ -= b.bytes;
    return b;
  }

  Block blocks_[kMaxBlocks];
  std::size_t count_ = 0;
  std::size_t held_ = 0;
};

inline thread_local FreedBlocks tFreedBlocks;

}  // namespace detail

template <typename T>
struct ZeroedAlloc {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                "ZeroedAlloc holds plain data only");
  using value_type = T;

  ZeroedAlloc() noexcept = default;
  template <typename U>
  ZeroedAlloc(const ZeroedAlloc<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    void* p = bytes >= detail::FreedBlocks::kMinBytes ? detail::tFreedBlocks.take(bytes)
                                                      : nullptr;
    if (p == nullptr) p = std::calloc(n, sizeof(T));
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes >= detail::FreedBlocks::kMinBytes) {
      detail::tFreedBlocks.keep(p, bytes);
    } else {
      std::free(p);
    }
  }

  /// Value-initialisation: the bytes are already zero. Construction from
  /// arguments falls back to allocator_traits' placement new.
  template <typename U>
  void construct(U*) noexcept {}

  friend bool operator==(const ZeroedAlloc&, const ZeroedAlloc&) noexcept { return true; }
};

template <typename T>
using ZeroedVector = std::vector<T, ZeroedAlloc<T>>;

}  // namespace swft
