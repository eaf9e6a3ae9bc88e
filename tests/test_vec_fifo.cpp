#include "src/util/vec_fifo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>

#include "src/util/rng.hpp"

namespace swft {
namespace {

TEST(VecFifo, OwnsNoHeapUntilTheFirstPush) {
  VecFifo<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), 0u);
  q.push_back(1);
  EXPECT_GT(q.capacity(), 0u);
}

TEST(VecFifo, OrderSurvivesTheCompactionBoundary) {
  VecFifo<int> q;
  for (int i = 0; i < 8; ++i) q.push_back(i);
  const std::size_t cap = q.capacity();
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(q.front(), i);
    q.pop_front();
  }
  // Pushing into the full buffer with most of it consumed slides the two
  // live elements down instead of growing.
  for (int i = 8; i < 8 + static_cast<int>(cap) - 2; ++i) q.push_back(i);
  EXPECT_EQ(q.capacity(), cap) << "compacted in place";
  for (int i = 6; i < 8 + static_cast<int>(cap) - 2; ++i) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.front(), i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(VecFifo, DrainKeepsCapacityAndRestartsAtTheFront) {
  VecFifo<int> q;
  for (int i = 0; i < 5; ++i) q.push_back(i);
  const std::size_t cap = q.capacity();
  for (int i = 0; i < 5; ++i) q.pop_front();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), cap);
  q.push_back(42);
  EXPECT_EQ(q.front(), 42);
  EXPECT_EQ(q.size(), 1u);
}

TEST(VecFifo, ClearEmptiesAndStaysUsable) {
  VecFifo<int> q;
  for (int i = 0; i < 5; ++i) q.push_back(i);
  q.pop_front();
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  q.push_back(7);
  q.push_back(8);
  EXPECT_EQ(q.front(), 7);
  q.pop_front();
  EXPECT_EQ(q.front(), 8);
}

TEST(VecFifo, InterleavedPushPopMatchesDeque) {
  Rng rng(2024);
  VecFifo<std::uint32_t> q;
  std::deque<std::uint32_t> ref;
  std::uint32_t next = 0;
  std::size_t peakCapacity = 0;
  std::size_t peakSize = 0;
  for (int step = 0; step < 200'000; ++step) {
    // Phases of net growth and net drain, so compaction, growth and full
    // drains all occur.
    const bool growing = (step / 5'000) % 2 == 0;
    const bool push = ref.empty() || rng.bernoulli(growing ? 0.6 : 0.4);
    if (push) {
      q.push_back(next);
      ref.push_back(next);
      ++next;
    } else {
      ASSERT_EQ(q.front(), ref.front()) << "step " << step;
      q.pop_front();
      ref.pop_front();
    }
    ASSERT_EQ(q.size(), ref.size()) << "step " << step;
    if (step % 10'000 == 0 && !ref.empty() && rng.bernoulli(0.3)) {
      q.clear();
      ref.clear();
    }
    peakCapacity = std::max(peakCapacity, q.capacity());
    peakSize = std::max(peakSize, q.size());
  }
  // Bounded memory: compaction keeps the buffer within a small factor of the
  // longest queue ever held.
  EXPECT_GT(peakSize, 100u);
  EXPECT_LE(peakCapacity, 4 * peakSize);
}

}  // namespace
}  // namespace swft
