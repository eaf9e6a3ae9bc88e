// The link pass's word kernels (link_qual.hpp) at every router row width the
// arena can have, W = 1..5 words (up to 17 ports x 16 VCs = 272 units),
// against brute-force definitions: the round-robin pick against the dense
// reference's min-key scan, and the port sweep against a per-bit AND.
#include "src/sim/link_qual.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/util/rng.hpp"

namespace swft {
namespace {

/// The dense reference's winner: the set bit u of the row minimising the
/// round-robin key (u - cur) mod unitCount, or -1 for an empty row.
int bruteForcePick(const std::uint64_t* row, int unitCount, int cur) {
  int best = -1;
  int bestKey = unitCount;
  for (int u = 0; u < unitCount; ++u) {
    if (((row[u >> 6] >> (u & 63)) & 1u) == 0) continue;
    const int key = (u - cur + unitCount) % unitCount;
    if (key < bestKey) {
      bestKey = key;
      best = u;
    }
  }
  return best;
}

template <typename T>
class LinkQualWidth : public ::testing::Test {};

using Widths = ::testing::Types<std::integral_constant<int, 1>, std::integral_constant<int, 2>,
                                std::integral_constant<int, 3>, std::integral_constant<int, 4>,
                                std::integral_constant<int, 5>>;
TYPED_TEST_SUITE(LinkQualWidth, Widths);

/// Unit counts a W-word row can carry: the smallest and largest count that
/// needs W words, and one in between.
template <int W>
std::vector<int> unitCountsFor() {
  if (W == 1) return {5, 20, 63, 64};
  return {64 * (W - 1) + 1, 64 * (W - 1) + 6, 64 * W};
}

TYPED_TEST(LinkQualWidth, PickMatchesMinKeyScanOnRandomRows) {
  constexpr int W = TypeParam::value;
  Rng rng(0x5eed0000u + W);
  for (const int unitCount : unitCountsFor<W>()) {
    for (int trial = 0; trial < 4000; ++trial) {
      std::uint64_t row[W] = {};
      // Alternate sparse rows (one to three candidates, so the winner is
      // often far from the cursor and across a word boundary) with dense
      // random rows.
      if (trial % 2 == 0) {
        const int bits = 1 + static_cast<int>(rng.uniform(3));
        for (int b = 0; b < bits; ++b) {
          const int u = static_cast<int>(rng.uniform(static_cast<std::uint32_t>(unitCount)));
          row[u >> 6] |= 1ULL << (u & 63);
        }
      } else {
        for (int w = 0; w < W; ++w) row[w] = rng.next() & rng.next();
        if (unitCount % 64 != 0) row[W - 1] &= (1ULL << (unitCount % 64)) - 1;
        if (bruteForcePick(row, unitCount, 0) < 0) row[0] |= 1;
      }
      // Random cursors plus the word-boundary and top-of-range ones.
      const int special[] = {0, 63, 64, unitCount - 1};
      const int cur = trial % 8 < 4
                          ? special[trial % 4]
                          : static_cast<int>(rng.uniform(static_cast<std::uint32_t>(unitCount)));
      if (cur >= unitCount) continue;
      ASSERT_EQ(pickRoundRobin<W>(row, cur), bruteForcePick(row, unitCount, cur))
          << "W=" << W << " units=" << unitCount << " cur=" << cur << " trial " << trial;
    }
  }
}

TYPED_TEST(LinkQualWidth, PickWrapsAcrossWordsAndTheTopOfTheRow) {
  constexpr int W = TypeParam::value;
  const int top = 64 * W - 1;
  const auto pick = [](std::initializer_list<int> units, int cur) {
    std::uint64_t row[W] = {};
    for (const int u : units) row[u >> 6] |= 1ULL << (u & 63);
    return pickRoundRobin<W>(row, cur);
  };
  // Only candidate below the cursor: the scan wraps past the top of the row.
  EXPECT_EQ(pick({0}, top), 0);
  EXPECT_EQ(pick({5}, 6), 5);
  // The cursor itself wins when it is a candidate.
  EXPECT_EQ(pick({0, top}, top), top);
  EXPECT_EQ(pick({3, 7}, 3), 3);
  if (W >= 2) {
    // Forward across the first word boundary, and around from word 1 back
    // to word 0.
    EXPECT_EQ(pick({64}, 63), 64);
    EXPECT_EQ(pick({63}, 64), 63);
    EXPECT_EQ(pick({0, 63}, 64), 0);
    EXPECT_EQ(pick({10, 70}, 64), 70);
    EXPECT_EQ(pick({10, 70}, 71), 10);
  }
  if (W >= 3) {
    // Skip whole empty words in both directions of the wrap.
    EXPECT_EQ(pick({130}, 1), 130);
    EXPECT_EQ(pick({1}, 130), 1);
    EXPECT_EQ(pick({1, 129}, 130), 1);
    EXPECT_EQ(pick({1, 129}, 128), 129);
    EXPECT_EQ(pick({top - 1}, top), top - 1);
  }
}

TYPED_TEST(LinkQualWidth, PortSweepMatchesPerBitAnd) {
  constexpr int W = TypeParam::value;
  constexpr int kPorts = 17;
  Rng rng(0xa11ce000u + W);
  for (int trial = 0; trial < 500; ++trial) {
    const int ports = 1 + trial % kPorts;
    std::uint64_t ok[W];
    std::uint64_t members[kPorts * W];
    std::uint64_t okp[kPorts * W];
    for (int w = 0; w < W; ++w) ok[w] = rng.next();
    for (int i = 0; i < ports * W; ++i) {
      // Mostly disjoint-looking sparse rows, some empty.
      members[i] = rng.bernoulli(0.3) ? 0 : rng.next() & rng.next() & rng.next();
    }
    const std::uint64_t pm = qualifyPortRows<W>(ok, members, okp, ports);
    std::uint64_t expectPm = 0;
    for (int p = 0; p < ports; ++p) {
      bool any = false;
      for (int w = 0; w < W; ++w) {
        ASSERT_EQ(okp[p * W + w], ok[w] & members[p * W + w])
            << "W=" << W << " port " << p << " word " << w;
        any = any || okp[p * W + w] != 0;
      }
      if (any) expectPm |= 1ULL << p;
    }
    ASSERT_EQ(pm, expectPm) << "W=" << W << " trial " << trial;
  }
}

}  // namespace
}  // namespace swft
