#include <gtest/gtest.h>

#include "src/router/flit.hpp"

namespace swft {
namespace {

TEST(Flit, KindPredicates) {
  Flit h{1, FlitKind::Header};
  Flit b{1, FlitKind::Body};
  Flit t{1, FlitKind::Tail};
  Flit ht{1, FlitKind::HeaderTail};
  EXPECT_TRUE(h.isHeader());
  EXPECT_FALSE(h.isTail());
  EXPECT_FALSE(b.isHeader());
  EXPECT_FALSE(b.isTail());
  EXPECT_FALSE(t.isHeader());
  EXPECT_TRUE(t.isTail());
  EXPECT_TRUE(ht.isHeader());
  EXPECT_TRUE(ht.isTail());
}

TEST(Flit, PackRoundTripsEveryKindUpToTheLargestId) {
  for (const MsgId msg : {MsgId{0}, MsgId{1}, kMaxMsgId - 1, kMaxMsgId}) {
    for (const FlitKind kind : {FlitKind::Header, FlitKind::Body, FlitKind::Tail,
                                FlitKind::HeaderTail}) {
      const Flit f = unpackFlit(packFlit(Flit{msg, kind}));
      EXPECT_EQ(f.msg, msg);
      EXPECT_EQ(f.kind, kind);
    }
  }
  EXPECT_EQ(kMaxMsgId, (MsgId{1} << 30) - 1);
  EXPECT_EQ(packFlit(Flit{kMaxMsgId, FlitKind::HeaderTail}), ~std::uint32_t{0});
}

TEST(FlitFifo, StartsEmptyWithRequestedCapacity) {
  FlitFifo f(4);
  EXPECT_TRUE(f.empty());
  EXPECT_FALSE(f.full());
  EXPECT_EQ(f.capacity(), 4);
  EXPECT_EQ(f.freeSlots(), 4);
}

TEST(FlitFifo, FifoOrderPreserved) {
  FlitFifo f(4);
  for (MsgId i = 0; i < 4; ++i) f.push(Flit{i, FlitKind::Body}, 10 + i);
  EXPECT_TRUE(f.full());
  for (MsgId i = 0; i < 4; ++i) {
    EXPECT_EQ(f.front().msg, i);
    EXPECT_EQ(f.frontArrival(), 10 + i);
    EXPECT_EQ(f.pop().msg, i);
  }
  EXPECT_TRUE(f.empty());
}

TEST(FlitFifo, WrapsAroundInternally) {
  FlitFifo f(3);
  // Push/pop repeatedly past the ring size to exercise index wrapping.
  MsgId next = 0, expect = 0;
  for (int round = 0; round < 20; ++round) {
    while (!f.full()) f.push(Flit{next++, FlitKind::Body}, 0);
    while (!f.empty()) EXPECT_EQ(f.pop().msg, expect++);
  }
  EXPECT_EQ(next, expect);
}

TEST(FlitFifo, PartialDrainInterleaved) {
  FlitFifo f(4);
  f.push(Flit{0, FlitKind::Header}, 1);
  f.push(Flit{0, FlitKind::Body}, 2);
  EXPECT_EQ(f.pop().msg, 0u);
  f.push(Flit{0, FlitKind::Tail}, 3);
  EXPECT_EQ(f.size(), 2);
  EXPECT_EQ(f.front().kind, FlitKind::Body);
  f.pop();
  EXPECT_TRUE(f.pop().isTail());
}

TEST(FlitFifo, ClearEmpties) {
  FlitFifo f(2);
  f.push(Flit{1, FlitKind::Header}, 0);
  f.clear();
  EXPECT_TRUE(f.empty());
}

TEST(FlitFifo, CapacityOneBehavesAsSlot) {
  FlitFifo f(1);
  f.push(Flit{9, FlitKind::HeaderTail}, 5);
  EXPECT_TRUE(f.full());
  EXPECT_EQ(f.pop().msg, 9u);
  EXPECT_TRUE(f.empty());
}

}  // namespace
}  // namespace swft
