#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "src/sim/network.hpp"

namespace swft {
namespace {

NodeId at(const TorusTopology& topo, std::initializer_list<int> digits) {
  Coordinates c;
  c.digit.resize(digits.size());
  int i = 0;
  for (int d : digits) c[i++] = static_cast<std::int16_t>(d);
  return topo.idOf(c);
}

SimConfig quietConfig(int k, int n, int vcs = 4) {
  SimConfig cfg;
  cfg.radix = k;
  cfg.dims = n;
  cfg.vcs = vcs;
  cfg.injectionRate = 0.0;  // no background traffic
  cfg.warmupMessages = 0;
  cfg.measuredMessages = 1;
  cfg.maxCycles = 50'000;
  return cfg;
}

TEST(NetworkBasics, IdleNodesOwnNoQueueHeap) {
  SimConfig cfg = quietConfig(8, 3);
  cfg.injectionRate = 0.001;  // generation scheduled, nothing generated yet
  Network net(cfg);
  for (NodeId id = 0; id < net.topology().nodeCount(); ++id) {
    EXPECT_EQ(net.node(id).sourceQueue.capacity(), 0u) << "node " << id;
    EXPECT_EQ(net.node(id).swQueue.capacity(), 0u) << "node " << id;
  }
}

TEST(NetworkBasics, MessageLengthMustFitTheSixteenBitField) {
  for (const int bad : {0, -1, kMaxMessageLength + 1, 70'000}) {
    SimConfig cfg = quietConfig(4, 2);
    cfg.messageLength = bad;
    try {
      Network net(cfg);
      ADD_FAILURE() << "msg_length=" << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("msg_length"), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(bad)), std::string::npos) << what;
    }
  }
  for (const int good : {1, kMaxMessageLength}) {
    SimConfig cfg = quietConfig(4, 2);
    cfg.messageLength = good;
    EXPECT_NO_THROW(validate(cfg));
    EXPECT_NO_THROW(Network{cfg});
  }
  EXPECT_EQ(kMaxMessageLength, 65'535);

  Network net(quietConfig(4, 2));
  EXPECT_THROW(net.injectTestMessage(0, 5, 0, RoutingMode::Deterministic),
               std::invalid_argument);
  EXPECT_THROW(net.injectTestMessage(0, 5, kMaxMessageLength + 1, RoutingMode::Deterministic),
               std::invalid_argument);
  EXPECT_EQ(net.generated(), 0u) << "a rejected message is not counted";
  net.injectTestMessage(0, 5, kMaxMessageLength, RoutingMode::Deterministic);
  EXPECT_EQ(net.generated(), 1u);
}

// Random placement runs after the explicit faults and is the only
// connectivity check of such a build, so it must see the link faults: an
// 8-node ring cut at 0->1 with one random fault builds for every seed.
TEST(NetworkBasics, RandomFaultsRedrawAroundExplicitLinkFaults) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    SimConfig cfg = quietConfig(8, 1);
    cfg.faults.explicitLinks = {{0, 0, 0}};
    cfg.faults.randomNodes = 1;
    cfg.seed = seed;
    try {
      const Network net(cfg);
      EXPECT_TRUE(healthyNetworkConnected(net.faults())) << "seed " << seed;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "seed " << seed << ": " << e.what();
    }
  }
}

TEST(NetworkBasics, ExplicitFaultsThatDisconnectAreRejected) {
  SimConfig cfg = quietConfig(8, 1);
  cfg.faults.explicitNodes = {2, 5};
  EXPECT_THROW(Network{cfg}, std::runtime_error);
  cfg.faults.explicitNodes = {2};
  EXPECT_NO_THROW(Network{cfg});
}

// validate() refuses values no run can honour, naming the key and the value.
TEST(NetworkBasics, ValidateRejectsOutOfRangeValues) {
  struct Bad {
    const char* key;
    const char* value;
    void (*set)(SimConfig&);
  };
  const Bad bad[] = {
      {"rate", "-1", [](SimConfig& c) { c.injectionRate = -1.0; }},
      {"rate", "nan", [](SimConfig& c) { c.injectionRate = std::nan(""); }},
      {"rate", "inf", [](SimConfig& c) { c.injectionRate = HUGE_VAL; }},
      {"rate", "2", [](SimConfig& c) { c.injectionRate = 2.0; }},
      {"td", "-5", [](SimConfig& c) { c.routerDecisionTime = -5; }},
      {"delta", "-3", [](SimConfig& c) { c.reinjectDelay = -3; }},
      {"nf", "63", [](SimConfig& c) { c.faults.randomNodes = 63; }},
      {"nf", "-1", [](SimConfig& c) { c.faults.randomNodes = -1; }},
      {"vcs", "0", [](SimConfig& c) { c.vcs = 0; }},
      {"vcs", "1", [](SimConfig& c) { c.vcs = 1; }},
      {"vcs", "17", [](SimConfig& c) { c.vcs = 17; }},
      {"escape_vcs", "3",
       [](SimConfig& c) {
         c.routing = RoutingMode::Adaptive;
         c.escapeVcs = 3;
       }},
      {"escape_vcs", "0",
       [](SimConfig& c) {
         c.routing = RoutingMode::Adaptive;
         c.escapeVcs = 0;
       }},
      {"escape_vcs", "6",
       [](SimConfig& c) {
         c.routing = RoutingMode::Adaptive;
         c.vcs = 4;
         c.escapeVcs = 6;
       }},
      {"buffer_depth", "0", [](SimConfig& c) { c.bufferDepth = 0; }},
      {"buffer_depth", "17", [](SimConfig& c) { c.bufferDepth = 17; }},
      {"max_cycles", "0", [](SimConfig& c) { c.maxCycles = 0; }},
      {"measured", "0", [](SimConfig& c) { c.measuredMessages = 0; }},
  };
  for (const Bad& b : bad) {
    SimConfig cfg = quietConfig(8, 2);
    b.set(cfg);
    try {
      validate(cfg);
      ADD_FAILURE() << b.key << "=" << b.value << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("config: ") + b.key + " "), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("got ") + b.value), std::string::npos) << what;
    }
    EXPECT_THROW(Network{cfg}, std::invalid_argument) << b.key << "=" << b.value;
  }
  SimConfig edge = quietConfig(8, 2);
  edge.injectionRate = 1.0;
  edge.faults.randomNodes = 62;
  EXPECT_NO_THROW(validate(edge));
  edge.injectionRate = 0.0;
  edge.faults.randomNodes = 0;
  edge.routerDecisionTime = 0;
  edge.reinjectDelay = 0;
  EXPECT_NO_THROW(validate(edge));
  edge.vcs = 16;
  edge.bufferDepth = 16;
  edge.routing = RoutingMode::Adaptive;
  edge.escapeVcs = 16;
  edge.maxCycles = 1;
  edge.measuredMessages = 1;
  EXPECT_NO_THROW(validate(edge));
  edge.vcs = 2;
  edge.escapeVcs = 2;
  edge.bufferDepth = 1;
  EXPECT_NO_THROW(validate(edge));
  // escape_vcs is read only under adaptive routing.
  edge.routing = RoutingMode::Deterministic;
  edge.escapeVcs = 3;
  EXPECT_NO_THROW(validate(edge));
}

TEST(NetworkBasics, ConstructionAppliesFaultSpec) {
  SimConfig cfg = quietConfig(8, 2);
  cfg.faults.explicitNodes = {7, 13};
  const Network net(cfg);
  EXPECT_TRUE(net.faults().nodeFaulty(7));
  EXPECT_TRUE(net.faults().nodeFaulty(13));
  EXPECT_EQ(net.faults().faultyNodeCount(), 2);
}

TEST(NetworkBasics, RejectsDisconnectingFaultPattern) {
  SimConfig cfg = quietConfig(8, 2);
  const TorusTopology topo(8, 2);
  const NodeId centre = at(topo, {4, 4});
  for (int port = 0; port < topo.networkPorts(); ++port) {
    cfg.faults.explicitNodes.push_back(topo.neighbor(centre, port));
  }
  EXPECT_THROW(Network net(cfg), std::runtime_error);
}

TEST(NetworkBasics, SingleMessageDeliveredWithPipelinedLatency) {
  SimConfig cfg = quietConfig(8, 2);
  cfg.messageLength = 4;
  Network net(cfg);
  const TorusTopology& topo = net.topology();
  net.injectTestMessage(at(topo, {0, 0}), at(topo, {3, 0}), 4, RoutingMode::Deterministic);
  const SimResult r = net.run();
  ASSERT_EQ(r.deliveredTotal, 1u);
  EXPECT_EQ(r.meanHops, 3.0);
  // Wormhole pipelining: ~hops + M cycles, small constant slack allowed.
  EXPECT_GE(r.meanLatency, 3 + 4 - 1);
  EXPECT_LE(r.meanLatency, 3 + 4 + 4);
}

TEST(NetworkBasics, LatencyScalesWithMessageLength) {
  for (const int len : {8, 16, 32}) {
    SimConfig cfg = quietConfig(8, 2);
    Network net(cfg);
    const TorusTopology& topo = net.topology();
    net.injectTestMessage(at(topo, {0, 0}), at(topo, {2, 2}), len,
                          RoutingMode::Deterministic);
    const SimResult r = net.run();
    ASSERT_EQ(r.deliveredTotal, 1u);
    EXPECT_GE(r.meanLatency, 4 + len - 1);
    EXPECT_LE(r.meanLatency, 4 + len + 4);
  }
}

TEST(NetworkBasics, MessageCrossingWrapUsesWrapClass) {
  SimConfig cfg = quietConfig(8, 2);
  cfg.messageLength = 2;
  Network net(cfg);
  const TorusTopology& topo = net.topology();
  // 6 -> 1 in dim 0: minimal route crosses the wrap (6,7,0,1).
  const MsgId id = net.injectTestMessage(at(topo, {6, 0}), at(topo, {1, 0}), 2,
                                         RoutingMode::Deterministic);
  (void)id;
  const SimResult r = net.run();
  EXPECT_EQ(r.deliveredTotal, 1u);
  EXPECT_EQ(r.meanHops, 3.0);
}

TEST(NetworkBasics, AdaptiveSingleMessageTakesMinimalPath) {
  SimConfig cfg = quietConfig(8, 2, 6);
  Network net(cfg);
  const TorusTopology& topo = net.topology();
  net.injectTestMessage(at(topo, {1, 1}), at(topo, {4, 5}), 8, RoutingMode::Adaptive);
  const SimResult r = net.run();
  ASSERT_EQ(r.deliveredTotal, 1u);
  EXPECT_EQ(r.meanHops, 7.0) << "3 hops in x + 4 hops in y, any interleaving";
  EXPECT_EQ(r.messagesQueued, 0u);
}

TEST(NetworkBasics, BlockedMessageIsAbsorbedAndStillDelivered) {
  SimConfig cfg = quietConfig(8, 2);
  const TorusTopology topo(8, 2);
  // Wall in front of the e-cube path.
  cfg.faults.explicitNodes = {at(topo, {2, 1})};
  cfg.messageLength = 4;
  Network net(cfg);
  net.injectTestMessage(at(topo, {1, 1}), at(topo, {4, 1}), 4, RoutingMode::Deterministic);
  const SimResult r = net.run();
  ASSERT_EQ(r.deliveredTotal, 1u);
  EXPECT_GE(r.messagesQueued, 1u) << "the fault forces at least one absorption";
  EXPECT_GE(r.reversals, 1u) << "first recovery step is the same-dim reversal";
  EXPECT_GT(r.meanHops, 3.0) << "the detour is non-minimal";
  EXPECT_EQ(r.escalations, 0u);
  EXPECT_FALSE(r.deadlockSuspected);
}

TEST(NetworkBasics, ReinjectionDelayAddsToLatency) {
  const TorusTopology topo(8, 2);
  double latency[2];
  for (int i = 0; i < 2; ++i) {
    SimConfig cfg = quietConfig(8, 2);
    cfg.faults.explicitNodes = {at(topo, {2, 1})};
    cfg.reinjectDelay = i == 0 ? 0 : 50;
    Network net(cfg);
    net.injectTestMessage(at(topo, {1, 1}), at(topo, {4, 1}), 4,
                          RoutingMode::Deterministic);
    const SimResult r = net.run();
    EXPECT_EQ(r.deliveredTotal, 1u);
    latency[i] = r.meanLatency;
  }
  // Delta = 0 already implies a 1-cycle software turnaround, so the
  // incremental cost of Delta = 50 is 49 extra cycles per absorption.
  EXPECT_GE(latency[1], latency[0] + 49) << "Delta cycles per absorption (assumption i)";
}

TEST(NetworkBasics, InjectTestMessageRejectsFaultyEndpoints) {
  SimConfig cfg = quietConfig(8, 2);
  cfg.faults.explicitNodes = {5};
  Network net(cfg);
  EXPECT_THROW(net.injectTestMessage(5, 9, 4, RoutingMode::Deterministic),
               std::invalid_argument);
  EXPECT_THROW(net.injectTestMessage(9, 5, 4, RoutingMode::Deterministic),
               std::invalid_argument);
}

TEST(NetworkBasics, StepAdvancesClock) {
  SimConfig cfg = quietConfig(4, 2);
  Network net(cfg);
  EXPECT_EQ(net.now(), 0u);
  net.step(10);
  EXPECT_EQ(net.now(), 10u);
}

TEST(NetworkBasics, SnapshotConservationInvariant) {
  SimConfig cfg = quietConfig(8, 2);
  cfg.injectionRate = 0.01;
  cfg.warmupMessages = 100;
  cfg.measuredMessages = 500;
  Network net(cfg);
  const SimResult r = net.run();
  EXPECT_TRUE(r.completed);
  // Every generated message is delivered or still alive (in flight/queued).
  EXPECT_EQ(r.generatedTotal, r.deliveredTotal + net.inFlight());
  EXPECT_FALSE(r.deadlockSuspected);
}

TEST(NetworkBasics, TdDelaysEveryHop) {
  // Router decision time Td adds ~Td cycles per hop to a lone message.
  double latency[2];
  for (int i = 0; i < 2; ++i) {
    SimConfig cfg = quietConfig(8, 2);
    cfg.routerDecisionTime = i == 0 ? 0 : 2;
    Network net(cfg);
    const TorusTopology& topo = net.topology();
    net.injectTestMessage(at(topo, {0, 0}), at(topo, {3, 0}), 4,
                          RoutingMode::Deterministic);
    latency[i] = net.run().meanLatency;
  }
  EXPECT_GT(latency[1], latency[0]);
}

}  // namespace
}  // namespace swft
