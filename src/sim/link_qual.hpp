// The link-candidate qualification pass and the round-robin pick of the
// sparse engine's batched link pass (engine.cpp).
//
// Since the arena keeps freshness, downstream credit and port membership as
// incrementally-maintained bitmaps (router_arena.hpp, DESIGN.md §8), the
// pass is pure word arithmetic over a router row of W = occWordsPerRouter()
// words (1..5: up to 17 ports x 16 VCs = 272 units) — no per-candidate
// loop, no credit callable:
//
//   ok          = fresh & downOk            (fresh ⊆ occ, downOk ⊆ routed,
//                                            so no extra live AND is needed)
//   okp[port]   = ok & portMembers[port]    (the per-port membership rows
//                                            are contiguous, W words each)
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>

namespace swft {

/// The port sweep over W-word rows: okp[p * W + w] = ok[w] & members[p * W
/// + w] for p in [0, ports). Returns the mask with bit p set iff port p has
/// a qualified candidate. Assigns every row — callers need no zeroing
/// prelude.
template <int W>
[[gnu::always_inline]] inline std::uint64_t qualifyPortRows(
    const std::uint64_t* ok, const std::uint64_t* members, std::uint64_t* okp,
    int ports) noexcept {
  std::uint64_t pm = 0;
  for (int p = 0; p < ports; ++p) {
    std::uint64_t any = 0;
    for (int w = 0; w < W; ++w) {
      const std::uint64_t q = ok[w] & members[p * W + w];
      okp[p * W + w] = q;
      any |= q;
    }
    pm |= static_cast<std::uint64_t>(any != 0) << p;
  }
  return pm;
}

/// The round-robin winner of one port: the first set bit of the W-word row
/// in circular order from unit `cur`, i.e. the unit u minimising
/// (u - cur) mod 64W — exactly the min-key winner of the dense reference's
/// scan, since no bit at or above the router's unit count is ever set.
/// Precondition: the row is nonzero and cur < 64W.
template <int W>
[[gnu::always_inline]] inline int pickRoundRobin(const std::uint64_t* row,
                                                 int cur) noexcept {
  if constexpr (W == 1) {
    // rotr moves bit u to (u - cur) mod 64.
    return (cur + std::countr_zero(std::rotr(row[0], cur))) & 63;
  } else {
    // Wrap scan: the cursor word from the cursor bit up, the words after it
    // circularly, then the cursor word's bits below the cursor — all that
    // is left of it once the first probe came up empty.
    const int cw = cur >> 6;
    const std::uint64_t head = row[cw] & (~0ULL << (cur & 63));
    if (head != 0) return cw * 64 + std::countr_zero(head);
    for (int k = 1; k < W; ++k) {
      const int w = cw + k < W ? cw + k : cw + k - W;
      if (row[w] != 0) return w * 64 + std::countr_zero(row[w]);
    }
    assert(row[cw] != 0);
    return cw * 64 + std::countr_zero(row[cw]);
  }
}

}  // namespace swft
