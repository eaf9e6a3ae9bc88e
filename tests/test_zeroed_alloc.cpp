#include "src/util/zeroed_alloc.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

namespace swft {
namespace {

constexpr std::size_t kBig = detail::FreedBlocks::kMinBytes / sizeof(std::uint64_t) + 3;

bool allZero(const ZeroedVector<std::uint64_t>& v) {
  for (const std::uint64_t x : v) {
    if (x != 0) return false;
  }
  return true;
}

TEST(ZeroedAlloc, SmallAndLargeArraysStartZeroed) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{100}, kBig}) {
    ZeroedVector<std::uint64_t> v(n);
    EXPECT_EQ(v.size(), n);
    EXPECT_TRUE(allZero(v)) << n;
  }
  ZeroedVector<std::int16_t> grown;
  grown.resize(kBig);
  for (const std::int16_t x : grown) ASSERT_EQ(x, 0);
}

TEST(ZeroedAlloc, ReusedBlockIsZeroedAgain) {
  const std::uint64_t* first = nullptr;
  {
    ZeroedVector<std::uint64_t> v(kBig);
    first = v.data();
    for (std::uint64_t& x : v) x = ~std::uint64_t{0};
  }
  ZeroedVector<std::uint64_t> again(kBig);
  EXPECT_EQ(again.data(), first) << "a same-size block comes back to its thread";
  EXPECT_TRUE(allZero(again));
}

TEST(ZeroedAlloc, OtherSizesDoNotReuseTheBlock) {
  {
    ZeroedVector<std::uint64_t> v(kBig);
    for (std::uint64_t& x : v) x = 1;
  }
  ZeroedVector<std::uint64_t> other(kBig + 1);
  EXPECT_TRUE(allZero(other));
}

TEST(ZeroedAlloc, BlocksStayWithTheFreeingThread) {
  // A block freed by a worker thread is released when that thread exits; the
  // main thread's next allocation still starts zeroed.
  std::thread([] {
    ZeroedVector<std::uint64_t> v(kBig);
    for (std::uint64_t& x : v) x = 5;
  }).join();
  ZeroedVector<std::uint64_t> v(kBig);
  EXPECT_TRUE(allZero(v));
}

TEST(ZeroedAlloc, KeptBlocksStayWithinTheBudget) {
  // Free more blocks than the cache holds; every later allocation is zeroed
  // whether it reuses a kept block or takes a new one.
  constexpr std::size_t kCount = detail::FreedBlocks::kMaxBlocks + 8;
  {
    std::vector<ZeroedVector<std::uint64_t>> many;
    for (std::size_t i = 0; i < kCount; ++i) {
      many.emplace_back(kBig + i);
      for (std::uint64_t& x : many.back()) x = i + 1;
    }
  }
  for (std::size_t i = 0; i < kCount; ++i) {
    ZeroedVector<std::uint64_t> v(kBig + i);
    ASSERT_TRUE(allZero(v)) << i;
  }
}

}  // namespace
}  // namespace swft
