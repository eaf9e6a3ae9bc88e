// Flow-control digits (flits) and the per-VC flit FIFO.
//
// Wormhole switching breaks each message into flits; only the header carries
// routing state, the data flits follow in a pipelined fashion (paper §2).
#pragma once

#include <cassert>
#include <cstdint>

namespace swft {

using MsgId = std::uint32_t;
inline constexpr MsgId kInvalidMsg = ~MsgId{0};

enum class FlitKind : std::uint8_t {
  Header = 1,      // first flit: carries the routing information
  Body = 0,        // middle flit
  Tail = 2,        // last flit: releases channel state as it passes
  HeaderTail = 3,  // single-flit message
};

struct Flit {
  MsgId msg = kInvalidMsg;
  FlitKind kind = FlitKind::Body;

  // The kind encoding is a bit pair: bit 0 = header, bit 1 = tail.
  [[nodiscard]] bool isHeader() const noexcept {
    return (static_cast<unsigned>(kind) & 1u) != 0;
  }
  [[nodiscard]] bool isTail() const noexcept {
    return (static_cast<unsigned>(kind) & 2u) != 0;
  }
};

/// RouterArena stores a flit as one 32-bit word, `msg << 2 | kind`, which
/// leaves 30 bits for the message id. MessagePool refuses to hand out a
/// larger id, so a packed slot can never alias another message.
inline constexpr MsgId kMaxMsgId = (MsgId{1} << 30) - 1;

[[nodiscard]] constexpr std::uint32_t packFlit(Flit f) noexcept {
  assert(f.msg <= kMaxMsgId);
  return (f.msg << 2) | static_cast<std::uint32_t>(f.kind);
}
[[nodiscard]] constexpr Flit unpackFlit(std::uint32_t word) noexcept {
  return Flit{word >> 2, static_cast<FlitKind>(word & 3u)};
}

/// Fixed-capacity ring buffer of flits with per-flit arrival stamps.
/// The stamp enforces the 1 cycle/hop timing: a flit that arrived in cycle t
/// is eligible to depart in cycle t+1 at the earliest.
class FlitFifo {
 public:
  static constexpr int kMaxDepth = 16;

  explicit FlitFifo(int capacity = 4) : capacity_(capacity) {
    assert(capacity >= 1 && capacity <= kMaxDepth);
  }

  [[nodiscard]] int capacity() const noexcept { return capacity_; }
  [[nodiscard]] int size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool full() const noexcept { return size_ == capacity_; }
  [[nodiscard]] int freeSlots() const noexcept { return capacity_ - size_; }

  void push(Flit f, std::uint64_t arrivalCycle) noexcept {
    assert(!full());
    const int idx = (head_ + size_) % kMaxDepth;
    flit_[idx] = f;
    arrival_[idx] = arrivalCycle;
    ++size_;
  }

  [[nodiscard]] const Flit& front() const noexcept {
    assert(!empty());
    return flit_[head_];
  }
  /// Peek `i` positions behind the front (0 = front). Test/debug walks.
  [[nodiscard]] const Flit& flitAt(int i) const noexcept {
    assert(i >= 0 && i < size_);
    return flit_[(head_ + i) % kMaxDepth];
  }
  [[nodiscard]] std::uint64_t frontArrival() const noexcept {
    assert(!empty());
    return arrival_[head_];
  }

  Flit pop() noexcept {
    assert(!empty());
    Flit f = flit_[head_];
    head_ = (head_ + 1) % kMaxDepth;
    --size_;
    return f;
  }

  void clear() noexcept { size_ = 0; }

 private:
  Flit flit_[kMaxDepth]{};
  std::uint64_t arrival_[kMaxDepth]{};
  int head_ = 0;
  int size_ = 0;
  int capacity_;
};

}  // namespace swft
