#include "src/sim/router_arena.hpp"

#include <gtest/gtest.h>

namespace swft {
namespace {

// 4 nodes of a 2-D torus router: 5 input ports (4 network + injection), V=4.
RouterArena smallArena(int depth = 2) { return RouterArena(4, 5, 4, 4, depth); }

TEST(RouterArena, LayoutAndIndexing) {
  RouterArena a = smallArena();
  EXPECT_EQ(a.vcs(), 4);
  EXPECT_EQ(a.depth(), 2);
  EXPECT_EQ(a.unitsPerRouter(), 20);
  EXPECT_EQ(a.base(0), 0);
  EXPECT_EQ(a.base(3), 60);
  EXPECT_EQ(a.unitIndex(0, 0, 0), 0);
  EXPECT_EQ(a.unitIndex(1, 3, 2), 34);  // base 20 + port 3 * 4 + vc 2
}

TEST(RouterArena, FifoOrderAndArrivalStamps) {
  RouterArena a = smallArena(3);
  const int u = a.unitIndex(2, 1, 0);
  EXPECT_TRUE(a.empty(u));
  a.push(2, u, Flit{10, FlitKind::Header}, 100);
  a.push(2, u, Flit{10, FlitKind::Body}, 101);
  a.push(2, u, Flit{10, FlitKind::Tail}, 102);
  EXPECT_TRUE(a.full(u)) << "depth 3 reached";
  EXPECT_EQ(a.size(u), 3);
  EXPECT_EQ(a.frontArrival(u), 100u);
  EXPECT_EQ(a.flitAt(u, 2).kind, FlitKind::Tail);
  EXPECT_EQ(a.pop(2, u).kind, FlitKind::Header);
  EXPECT_EQ(a.frontArrival(u), 101u);
  // The freed slot is reusable immediately, and the front stamp follows the
  // ring head through pops and across the wrap (stride 4: the fifth push
  // lands in slot 0). A header queued behind a tail keeps its own stamp,
  // not the newest push's.
  a.push(2, u, Flit{11, FlitKind::Header}, 103);
  EXPECT_TRUE(a.full(u));
  EXPECT_EQ(a.pop(2, u).kind, FlitKind::Body);
  EXPECT_EQ(a.frontArrival(u), 102u);
  a.push(2, u, Flit{11, FlitKind::Tail}, 104);
  EXPECT_EQ(a.pop(2, u).kind, FlitKind::Tail);
  EXPECT_EQ(a.frontArrival(u), 103u) << "header behind a tail";
  EXPECT_EQ(a.pop(2, u).msg, 11u);
  EXPECT_EQ(a.frontArrival(u), 104u) << "stamp read across the ring wrap";
  EXPECT_EQ(a.pop(2, u).kind, FlitKind::Tail);
  EXPECT_TRUE(a.empty(u));
}

TEST(RouterArena, BuffersAreIndependent) {
  RouterArena a = smallArena(3);
  a.push(0, a.unitIndex(0, 0, 0), Flit{1, FlitKind::Header}, 0);
  a.push(0, a.unitIndex(0, 0, 1), Flit{2, FlitKind::Header}, 0);
  EXPECT_EQ(a.front(a.unitIndex(0, 0, 0)).msg, 1u);
  EXPECT_EQ(a.front(a.unitIndex(0, 0, 1)).msg, 2u);
  EXPECT_EQ(a.size(a.unitIndex(0, 1, 0)), 0);
  EXPECT_EQ(a.size(a.unitIndex(1, 0, 0)), 0) << "next router's units unaffected";
}

TEST(RouterArena, OccupancyWordsCountsAndActiveSet) {
  // 3-D router geometry, V=10: 70 units/router crosses occupancy word 0/1.
  RouterArena a(70, 7, 6, 10, 4);
  EXPECT_EQ(a.occWordsPerRouter(), 2);
  EXPECT_FALSE(a.anyOccupied(65));
  EXPECT_EQ(a.activeWords()[1], 0u);

  a.push(65, a.base(65) + 3, Flit{1, FlitKind::Header}, 0);
  a.push(65, a.base(65) + 69, Flit{2, FlitKind::Header}, 0);
  a.push(65, a.base(65) + 69, Flit{2, FlitKind::Body}, 1);
  EXPECT_TRUE(a.anyOccupied(65));
  EXPECT_EQ(a.occupiedUnits(65), 2);
  EXPECT_TRUE(a.occWords(65)[0] & (1ULL << 3));
  EXPECT_TRUE(a.occWords(65)[1] & (1ULL << 5));  // 69 = 64 + 5
  EXPECT_TRUE(a.activeWords()[1] & (1ULL << 1));  // node 65 = word 1, bit 1

  a.pop(65, a.base(65) + 3);
  EXPECT_FALSE(a.occWords(65)[0] & (1ULL << 3));
  EXPECT_EQ(a.occupiedUnits(65), 1);
  EXPECT_TRUE(a.anyOccupied(65)) << "unit 69 still holds two flits";
  a.pop(65, a.base(65) + 69);
  EXPECT_TRUE(a.anyOccupied(65)) << "pop of one flit of two keeps the bit";
  a.pop(65, a.base(65) + 69);
  EXPECT_FALSE(a.anyOccupied(65));
  EXPECT_EQ(a.activeWords()[1], 0u) << "active bit cleared with the last flit";
}

TEST(RouterArena, RouteAllocationLifecycle) {
  RouterArena a = smallArena();
  const int local = 2 * 4 + 3;  // port 2, vc 3
  const int g = a.unitIndex(1, 2, 3);
  const int du = a.unitIndex(2, 3, 1);  // downstream unit the route feeds
  EXPECT_FALSE(a.routed(g));
  a.allocateRoute(1, local, 3, 1, du);
  EXPECT_TRUE(a.routed(g));
  EXPECT_EQ(a.outPort(g), 3);
  EXPECT_EQ(a.outVc(g), 1);
  EXPECT_FALSE(a.routed(g + 1)) << "neighbouring unit unaffected";
  // The allocation registers the unit as a switch requester of port 3 only.
  EXPECT_TRUE(a.routedWords(1)[0] & (1ULL << local));
  EXPECT_TRUE(a.portMembers(1, 3)[0] & (1ULL << local));
  EXPECT_FALSE(a.portMembers(1, 2)[0] & (1ULL << local));
  EXPECT_FALSE(a.portMembers(2, 3)[0] & (1ULL << local)) << "other router";
  // The empty downstream has credit, so the unit qualifies on that axis.
  EXPECT_TRUE(a.downOkWords(1)[0] & (1ULL << local));
  a.releaseRoute(1, local);
  EXPECT_FALSE(a.routed(g));
  EXPECT_EQ(a.routedWords(1)[0], 0u);
  EXPECT_EQ(a.portMembers(1, 3)[0], 0u);
  EXPECT_EQ(a.downOkWords(1)[0], 0u);
  EXPECT_EQ(a.auditMasks(0), "");
}

TEST(RouterArena, CreditMaskTracksDepthCrossings) {
  RouterArena a = smallArena(2);  // depth 2
  const int du = a.unitIndex(2, 3, 1);
  EXPECT_TRUE(a.creditOkBit(du)) << "empty buffers are creditable";
  a.push(2, du, Flit{1, FlitKind::Header}, 0);
  EXPECT_TRUE(a.creditOkBit(du)) << "one slot of two still free";
  a.push(2, du, Flit{1, FlitKind::Body}, 0);
  EXPECT_FALSE(a.creditOkBit(du)) << "crossed into full";
  a.pop(2, du);
  EXPECT_TRUE(a.creditOkBit(du)) << "crossed back out of full";
  // The credit sink row past the real units is permanently creditable.
  for (int vc = 0; vc < a.vcs(); ++vc) {
    EXPECT_TRUE(a.creditOkBit(a.creditSinkBase() + vc));
  }
}

TEST(RouterArena, DepthCrossingFlipsFeederDownOkBit) {
  RouterArena a = smallArena(1);  // depth 1: every push/pop crosses
  const int local = 0 * 4 + 2;    // upstream unit: port 0, vc 2
  const int du = a.unitIndex(3, 1, 0);
  a.allocateRoute(0, local, 1, 0, du);
  EXPECT_TRUE(a.downOkWords(0)[0] & (1ULL << local));
  a.push(3, du, Flit{7, FlitKind::Header}, 0);
  EXPECT_FALSE(a.downOkWords(0)[0] & (1ULL << local))
      << "downstream full: flip reaches the feeder's row";
  a.pop(3, du);
  EXPECT_TRUE(a.downOkWords(0)[0] & (1ULL << local));
  a.releaseRoute(0, local);
  EXPECT_EQ(a.auditMasks(0), "");
}

TEST(RouterArena, FreshnessMaturesAtCycleBoundary) {
  RouterArena a = smallArena();
  const int u = a.unitIndex(1, 2, 0);
  const int local = u - a.base(1);
  // A front pushed at cycle 5 is not fresh during cycle 5...
  a.push(1, u, Flit{1, FlitKind::Header}, 5);
  EXPECT_FALSE(a.freshWords(1)[0] & (1ULL << local));
  EXPECT_EQ(a.auditMasks(5), "");
  // ...and matures at the boundary sweep.
  a.matureFreshness();
  EXPECT_TRUE(a.freshWords(1)[0] & (1ULL << local));
  EXPECT_EQ(a.auditMasks(6), "");
  // Mid-cycle pops leave the fresh row untouched — it is the cycle-start
  // snapshot, and nothing reads a router's row between its own pops and the
  // next sweep. The surviving front stays fresh (it arrived at 6 < 7), and
  // even the pop to empty leaves a stale set bit behind...
  a.push(1, u, Flit{1, FlitKind::Tail}, 6);
  a.pop(1, u);
  EXPECT_TRUE(a.freshWords(1)[0] & (1ULL << local))
      << "survivor arrived at 6 < 7";
  a.pop(1, u);
  EXPECT_TRUE(a.freshWords(1)[0] & (1ULL << local))
      << "pop must not touch the boundary snapshot";
  // ...which the sweep reconciles against the (now empty) occupancy word.
  a.matureFreshness();
  EXPECT_EQ(a.auditMasks(8), "");
  EXPECT_EQ(a.freshWords(1)[0], 0u) << "empty router has no fresh fronts";
}

TEST(RouterArena, RouteAllocationOwnsTheOutputVc) {
  RouterArena a = smallArena();  // ports 0..3 are network ports, 4 ejects
  EXPECT_EQ(a.freeVcMask(1, 2), 0xF) << "a fresh arena has every VC free";
  // A network-port route takes its output VC out of the free mask. Local
  // unit 0 is an owner like any other.
  a.allocateRoute(1, 0, 2, 1, a.unitIndex(2, 3, 1));
  EXPECT_EQ(a.freeVcMask(1, 2), 0xD);
  EXPECT_EQ(a.freeVcMask(1, 3), 0xF) << "other ports unaffected";
  EXPECT_EQ(a.freeVcMask(2, 2), 0xF) << "other routers unaffected";
  EXPECT_EQ(a.auditMasks(0), "");
  // An ejection-port route holds no network VC.
  const int ejecting = 4 * 4 + 0;  // injection unit, vc 0
  a.allocateRoute(1, ejecting, 4, 0, a.creditSinkBase());
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(a.freeVcMask(1, p), p == 2 ? 0xD : 0xF) << "port " << p;
  }
  EXPECT_EQ(a.auditMasks(0), "");
  // Release gives the VC back.
  a.releaseRoute(1, 0);
  EXPECT_EQ(a.freeVcMask(1, 2), 0xF);
  EXPECT_EQ(a.auditMasks(0), "");
  a.releaseRoute(1, ejecting);
  EXPECT_EQ(a.auditMasks(0), "");
}

TEST(RouterArena, PackedSlotsRoundTripEveryKindAndTheLargestId) {
  RouterArena a = smallArena(4);
  EXPECT_EQ(a.auditMasks(0), "") << "a fresh (all-zero) arena is consistent";
  const int u = a.unitIndex(3, 4, 3);
  const Flit flits[] = {{kMaxMsgId, FlitKind::Header},
                        {kMaxMsgId, FlitKind::Body},
                        {0, FlitKind::Tail},
                        {kMaxMsgId - 1, FlitKind::HeaderTail}};
  for (int round = 0; round < 3; ++round) {  // the ring head walks every slot
    for (const Flit& f : flits) a.push(3, u, f, 1);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(a.flitAt(u, i).msg, flits[i].msg);
      EXPECT_EQ(a.flitAt(u, i).kind, flits[i].kind);
    }
    EXPECT_EQ(a.auditMasks(1), "");
    for (const Flit& f : flits) {
      EXPECT_EQ(a.front(u).msg, f.msg);
      EXPECT_EQ(a.front(u).kind, f.kind);
      const Flit got = a.pop(3, u);
      EXPECT_EQ(got.msg, f.msg);
      EXPECT_EQ(got.kind, f.kind);
      EXPECT_EQ(got.isHeader(), f.isHeader());
      EXPECT_EQ(got.isTail(), f.isTail());
    }
    a.push(3, u, Flit{7, FlitKind::Body}, 2);  // offset the head for the next round
    a.pop(3, u);
    a.matureFreshness();
    EXPECT_EQ(a.auditMasks(3), "");
  }
}

TEST(RouterArena, CursorsPerNodeAndPort) {
  RouterArena a = smallArena();
  EXPECT_EQ(a.cursor(0, 0), 0);
  a.setCursor(0, 0, 13);
  a.setCursor(0, 4, 7);
  a.setCursor(3, 0, 2);
  EXPECT_EQ(a.cursor(0, 0), 13);
  EXPECT_EQ(a.cursor(0, 4), 7);
  EXPECT_EQ(a.cursor(0, 1), 0);
  EXPECT_EQ(a.cursor(3, 0), 2);
}

TEST(RouterArena, RejectsBadGeometry) {
  EXPECT_THROW(RouterArena(4, 5, 4, 4, 0), std::invalid_argument);
  EXPECT_THROW(RouterArena(4, 5, 4, 4, FlitFifo::kMaxDepth + 1), std::invalid_argument);
  EXPECT_THROW(RouterArena(4, 5, 4, 0, 4), std::invalid_argument);
  EXPECT_THROW(RouterArena(4, 5, 4, 17, 4), std::invalid_argument);
  EXPECT_NO_THROW(RouterArena(4, 17, 16, 16, 4));  // 8-D router at V=16
}

TEST(RouterArena, NonPowerOfTwoDepthRoundsStrideUp) {
  RouterArena a(2, 5, 4, 4, 5);  // stride 8, capacity stays 5
  const int u = a.unitIndex(1, 0, 0);
  for (int i = 0; i < 5; ++i) a.push(1, u, Flit{1, FlitKind::Body}, 0);
  EXPECT_TRUE(a.full(u));
  EXPECT_EQ(a.size(u), 5);
  for (int i = 0; i < 5; ++i) a.pop(1, u);
  EXPECT_TRUE(a.empty(u));
}

}  // namespace
}  // namespace swft
