#include "src/topology/torus.hpp"

#include <gtest/gtest.h>

#include "tests/naming.hpp"

namespace swft {
namespace {

TEST(Ports, EncodingRoundTrip) {
  for (int dim = 0; dim < kMaxDims; ++dim) {
    for (Dir dir : {Dir::Pos, Dir::Neg}) {
      const int port = portOf(dim, dir);
      EXPECT_EQ(dimOfPort(port), dim);
      EXPECT_EQ(dirOfPort(port), dir);
    }
  }
}

TEST(Ports, ReversePortFlipsDirection) {
  for (int port = 0; port < 2 * kMaxDims; ++port) {
    EXPECT_EQ(dimOfPort(reversePort(port)), dimOfPort(port));
    EXPECT_EQ(dirOfPort(reversePort(port)), opposite(dirOfPort(port)));
    EXPECT_EQ(reversePort(reversePort(port)), port);
  }
}

TEST(Ports, OppositeInverts) {
  EXPECT_EQ(opposite(Dir::Pos), Dir::Neg);
  EXPECT_EQ(opposite(Dir::Neg), Dir::Pos);
  EXPECT_EQ(dirStep(Dir::Pos), 1);
  EXPECT_EQ(dirStep(Dir::Neg), -1);
}

// The port map against its coordinate definition, for every (id, port):
// the neighbour differs in one digit by +-1 mod k, and the link wraps iff it
// leaves digit k-1 going Pos or digit 0 going Neg.
void expectPortMapMatchesOracle(const TorusTopology& t) {
  const int k = t.radix();
  for (NodeId id = 0; id < t.nodeCount(); ++id) {
    const Coordinates c = t.coordsOf(id);
    for (int port = 0; port < t.networkPorts(); ++port) {
      const int dim = dimOfPort(port);
      const Dir dir = dirOfPort(port);
      Coordinates expected = c;
      expected[dim] = static_cast<std::int16_t>((c[dim] + dirStep(dir) + k) % k);
      const NodeId nb = t.neighbor(id, port);
      ASSERT_EQ(nb, t.idOf(expected)) << "id " << id << " port " << port;
      ASSERT_EQ(t.neighbor(id, dim, dir), nb);
      ASSERT_EQ(t.neighbor(id, port, t.wrapPorts(id)), nb);
      const bool wraps = dir == Dir::Pos ? c[dim] == k - 1 : c[dim] == 0;
      ASSERT_EQ(t.isWrapLink(id, port), wraps) << "id " << id << " port " << port;
      ASSERT_EQ(t.isWrapLink(id, dim, dir), wraps);
      ASSERT_EQ(t.neighbor(nb, reversePort(port)), id) << "id " << id << " port " << port;
      if (k == 2) {
        // Both ports of a radix-2 dimension reach the same node.
        ASSERT_EQ(nb, t.neighbor(id, reversePort(port)));
      }
    }
  }
}

struct KnParam {
  int k;
  int n;
};

class TorusParam : public ::testing::TestWithParam<KnParam> {
 protected:
  TorusTopology topo() const { return TorusTopology(GetParam().k, GetParam().n); }
};

TEST_P(TorusParam, NeighborsAreSymmetric) {
  const TorusTopology t = topo();
  for (NodeId id = 0; id < t.nodeCount(); ++id) {
    for (int port = 0; port < t.networkPorts(); ++port) {
      const NodeId nb = t.neighbor(id, port);
      const int back = portOf(dimOfPort(port), opposite(dirOfPort(port)));
      EXPECT_EQ(t.neighbor(nb, back), id);
    }
  }
}

TEST_P(TorusParam, NeighborsDifferInExactlyOneDigit) {
  const TorusTopology t = topo();
  for (NodeId id = 0; id < t.nodeCount(); ++id) {
    const Coordinates c = t.coordsOf(id);
    for (int port = 0; port < t.networkPorts(); ++port) {
      const Coordinates nc = t.coordsOf(t.neighbor(id, port));
      int diffs = 0;
      for (int d = 0; d < t.dims(); ++d) diffs += (c[d] != nc[d]);
      if (t.radix() == 2) {
        EXPECT_LE(diffs, 1);  // k=2: +1 and -1 coincide
      } else {
        EXPECT_EQ(diffs, 1);
      }
    }
  }
}

TEST_P(TorusParam, EveryRingClosesAfterKHops) {
  const TorusTopology t = topo();
  for (int dim = 0; dim < t.dims(); ++dim) {
    NodeId at = 0;
    int wrapsSeen = 0;
    for (int hop = 0; hop < t.radix(); ++hop) {
      wrapsSeen += t.isWrapLink(at, dim, Dir::Pos);
      at = t.neighbor(at, dim, Dir::Pos);
    }
    EXPECT_EQ(at, 0u);
    EXPECT_EQ(wrapsSeen, 1);  // exactly one wrap link per directed ring orbit
  }
}

TEST_P(TorusParam, MinimalOffsetIsMinimalAndConsistent) {
  const TorusTopology t = topo();
  const int k = t.radix();
  for (int a = 0; a < k; ++a) {
    for (int b = 0; b < k; ++b) {
      const int off = t.minimalOffset(static_cast<std::int16_t>(a),
                                      static_cast<std::int16_t>(b));
      EXPECT_LE(std::abs(off), k / 2);
      EXPECT_EQ((a + off % k + k) % k, b);
      // Ring distance in the minimal direction equals |offset|.
      const Dir dir = off >= 0 ? Dir::Pos : Dir::Neg;
      EXPECT_EQ(t.ringDistance(static_cast<std::int16_t>(a), static_cast<std::int16_t>(b), dir),
                std::abs(off));
    }
  }
}

TEST_P(TorusParam, RingDistanceSumsToK) {
  const TorusTopology t = topo();
  const int k = t.radix();
  for (int a = 0; a < k; ++a) {
    for (int b = 0; b < k; ++b) {
      if (a == b) continue;
      const auto sa = static_cast<std::int16_t>(a);
      const auto sb = static_cast<std::int16_t>(b);
      EXPECT_EQ(t.ringDistance(sa, sb, Dir::Pos) + t.ringDistance(sa, sb, Dir::Neg), k);
    }
  }
}

TEST_P(TorusParam, DistanceIsAMetric) {
  const TorusTopology t = topo();
  const NodeId n = t.nodeCount();
  const NodeId stride = n > 64 ? n / 37 + 1 : 1;  // sample large networks
  for (NodeId a = 0; a < n; a += stride) {
    EXPECT_EQ(t.distance(a, a), 0);
    for (NodeId b = 0; b < n; b += stride) {
      EXPECT_EQ(t.distance(a, b), t.distance(b, a));
      // One-hop neighbours are at distance exactly 1 (k > 2).
    }
    for (int port = 0; port < t.networkPorts() && t.radix() > 2; ++port) {
      EXPECT_EQ(t.distance(a, t.neighbor(a, port)), 1);
    }
  }
}

TEST_P(TorusParam, DiameterIsNTimesHalfK) {
  const TorusTopology t = topo();
  int maxDist = 0;
  const NodeId n = t.nodeCount();
  const NodeId stride = n > 512 ? 7 : 1;
  for (NodeId a = 0; a < n; a += stride)
    for (NodeId b = 0; b < n; b += stride) maxDist = std::max(maxDist, t.distance(a, b));
  EXPECT_LE(maxDist, t.dims() * (t.radix() / 2));
  if (stride == 1) {
    EXPECT_EQ(maxDist, t.dims() * (t.radix() / 2));
  }
}

TEST_P(TorusParam, PortMapMatchesCoordinateOracle) {
  expectPortMapMatchesOracle(topo());
}

INSTANTIATE_TEST_SUITE_P(Grids, TorusParam,
                         ::testing::Values(KnParam{3, 2}, KnParam{4, 2}, KnParam{5, 2},
                                           KnParam{8, 2}, KnParam{4, 3}, KnParam{8, 3},
                                           KnParam{16, 2}, KnParam{3, 4}, KnParam{2, 3},
                                           KnParam{4, 4}),
                         [](const auto& info) {
                           return knName(info.param.k, info.param.n);
                         });

// Rings, radix 2 and the 32,768-node torus, outside the grid above (whose
// all-pairs checks would be slow at 32k nodes).
TEST(Torus, PortMapMatchesCoordinateOracleOnRingsRadix2AndLargeTorus) {
  for (const auto& [k, n] : {std::pair{2, 1}, std::pair{3, 1}, std::pair{8, 1}, std::pair{2, 2},
                            std::pair{2, 5}, std::pair{32, 3}}) {
    SCOPED_TRACE(knName(k, n));
    expectPortMapMatchesOracle(TorusTopology(k, n));
  }
}

TEST(Torus, WrapLinkPositions8ary) {
  const TorusTopology t(8, 2);
  const NodeId node70 = t.idOf([&] {
    Coordinates c;
    c.digit.resize(2);
    c[0] = 7;
    c[1] = 0;
    return c;
  }());
  EXPECT_TRUE(t.isWrapLink(node70, 0, Dir::Pos));
  EXPECT_FALSE(t.isWrapLink(node70, 0, Dir::Neg));
  EXPECT_TRUE(t.isWrapLink(0, 0, Dir::Neg));
  EXPECT_FALSE(t.isWrapLink(0, 0, Dir::Pos));
  EXPECT_TRUE(t.isWrapLink(0, 1, Dir::Neg));
}

TEST(Torus, LocalPortLayout) {
  const TorusTopology t(8, 3);
  EXPECT_EQ(t.networkPorts(), 6);
  EXPECT_EQ(t.localPort(), 6);
  EXPECT_EQ(t.totalPorts(), 7);
}

}  // namespace
}  // namespace swft
