// Microarchitectural invariants checked live while the engine runs: the
// validator inspects occupancy masks, VC ownership, wormhole framing and
// message accounting after every stepping window.
#include <gtest/gtest.h>

#include "tests/naming.hpp"

#include "src/sim/network.hpp"

namespace swft {
namespace {

struct InvariantCase {
  int k, n, vcs;
  RoutingMode mode;
  int nf;
  double rate;
};

class LiveInvariants : public ::testing::TestWithParam<InvariantCase> {};

TEST_P(LiveInvariants, HoldAtEveryCheckpoint) {
  const auto& p = GetParam();
  SimConfig cfg;
  cfg.radix = p.k;
  cfg.dims = p.n;
  cfg.vcs = p.vcs;
  cfg.routing = p.mode;
  cfg.messageLength = 8;
  cfg.injectionRate = p.rate;
  cfg.faults.randomNodes = p.nf;
  cfg.seed = 55;
  Network net(cfg);
  for (int window = 0; window < 40; ++window) {
    net.step(250);
    const std::string violation = net.validateInvariants();
    ASSERT_TRUE(violation.empty()) << violation << " at cycle " << net.now();
  }
  EXPECT_GT(net.delivered(), 0u);
  EXPECT_FALSE(net.deadlockSuspected());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LiveInvariants,
    ::testing::Values(InvariantCase{8, 2, 4, RoutingMode::Deterministic, 0, 0.01},
                      InvariantCase{8, 2, 4, RoutingMode::Adaptive, 0, 0.01},
                      InvariantCase{8, 2, 6, RoutingMode::Deterministic, 5, 0.006},
                      InvariantCase{8, 2, 6, RoutingMode::Adaptive, 5, 0.006},
                      InvariantCase{4, 3, 4, RoutingMode::Deterministic, 4, 0.008},
                      InvariantCase{4, 3, 4, RoutingMode::Adaptive, 4, 0.008},
                      InvariantCase{8, 2, 10, RoutingMode::Adaptive, 0, 0.03},  // saturated
                      InvariantCase{5, 2, 3, RoutingMode::Deterministic, 2, 0.01}),
    [](const auto& info) {
      const auto& p = info.param;
      return catName({knName(p.k, p.n), "V", std::to_string(p.vcs),
                      p.mode == RoutingMode::Adaptive ? "adp" : "det", "nf",
                      std::to_string(p.nf)});
    });

TEST(Invariants, FreshNetworkIsConsistent) {
  SimConfig cfg;
  cfg.radix = 4;
  cfg.dims = 2;
  const Network net(cfg);
  EXPECT_EQ(net.validateInvariants(), "");
}

// With a router decision time the arena keeps per-flit arrival stamps, and
// the audit also checks that no buffered front carries a stamp from the
// future. Two-flit messages near saturation queue headers behind tails.
TEST(Invariants, HoldWithRouterDecisionTime) {
  SimConfig cfg;
  cfg.radix = 8;
  cfg.dims = 2;
  cfg.routerDecisionTime = 2;
  cfg.messageLength = 2;
  cfg.injectionRate = 0.25;
  cfg.seed = 19;
  Network net(cfg);
  for (int window = 0; window < 20; ++window) {
    net.step(50);
    ASSERT_EQ(net.validateInvariants(), "") << "cycle " << net.now();
  }
  EXPECT_GT(net.delivered(), 0u);
}

TEST(Invariants, HoldThroughFaultRegionTraffic) {
  SimConfig cfg;
  cfg.radix = 8;
  cfg.dims = 2;
  cfg.vcs = 6;
  cfg.injectionRate = 0.006;
  cfg.messageLength = 8;
  cfg.seed = 77;
  const TorusTopology topo(8, 2);
  cfg.faults.regions.push_back(fig5U8(topo));
  Network net(cfg);
  for (int window = 0; window < 30; ++window) {
    net.step(300);
    ASSERT_EQ(net.validateInvariants(), "") << "cycle " << net.now();
  }
}

}  // namespace
}  // namespace swft
