// Differential fuzz harness: the sparse engine's equivalence contract,
// stress-tested over randomized configurations.
//
// The hand-picked matrix in test_engine_equivalence.cpp pins ten
// representative corners; this suite draws a few hundred random points from
// the full configuration space (topology size and dimensionality, VC counts
// including routers wider than one and two 64-bit rows, buffer depths,
// routing mode, every traffic pattern, fault counts, router decision time,
// message lengths, injection rates) and runs each to completion under both
// engines, dense and sparse, requiring bit-identical SimResults: exact
// double equality, no tolerance.
//
// On a mismatch the failing point is printed as a ready-to-paste
// `swft_sim`-style key=value string (the config_parse.hpp grammar) so a
// failure in CI can be reproduced in one command without re-running the
// fuzzer.
//
// Knobs (environment):
//   SWFT_FUZZ_CONFIGS  number of random configs (default 200)
//   SWFT_FUZZ_SEED     base seed for the config generator (default 20060425)
//
// Registered under the `fuzz` ctest label — excluded from tier1; CI runs a
// reduced count under ASan/UBSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>

#include "src/sim/config.hpp"
#include "src/sim/network.hpp"
#include "src/sim/stats.hpp"
#include "src/traffic/patterns.hpp"
#include "src/util/rng.hpp"

namespace swft {
namespace {

std::uint64_t envU64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const std::uint64_t parsed = std::strtoull(v, &end, 10);
  return (end == v) ? fallback : parsed;
}

/// Render `cfg` in the config_parse.hpp key=value grammar, ready to paste
/// onto a swft_sim command line (or feed back through parseConfig).
std::string reproString(const SimConfig& cfg) {
  std::ostringstream os;
  os << "k=" << cfg.radix << " n=" << cfg.dims << " vcs=" << cfg.vcs
     << " escape_vcs=" << cfg.escapeVcs << " buffer_depth=" << cfg.bufferDepth
     << " td=" << cfg.routerDecisionTime << " msg_length=" << cfg.messageLength
     << " rate=" << cfg.injectionRate
     << " traffic=" << trafficPatternName(cfg.pattern);
  if (cfg.pattern == TrafficPattern::Hotspot) {
    os << " hotspot_fraction=" << cfg.hotspotFraction;
  }
  os << " routing=" << (cfg.routing == RoutingMode::Adaptive ? "adaptive" : "det");
  if (cfg.faults.randomNodes > 0) {
    os << " nf=" << cfg.faults.randomNodes << " delta=" << cfg.reinjectDelay;
  }
  os << " livelock_threshold=" << cfg.livelockThreshold
     << " warmup=" << cfg.warmupMessages << " measured=" << cfg.measuredMessages
     << " max_cycles=" << cfg.maxCycles << " seed=" << cfg.seed;
  return os.str();
}

/// Router input units per node: (2n + 1) ports x V VCs.
int unitsPerRouter(const SimConfig& cfg) { return (2 * cfg.dims + 1) * cfg.vcs; }

/// Draw one random-but-bounded configuration. Node counts stay <= ~256 and
/// maxCycles is capped so a full 200-config sweep finishes in minutes, while
/// still crossing every engine code path: wormhole streaming, VC allocation
/// under contention, credit backpressure (depth 1), faults with
/// software-layer absorption/reinjection, non-zero router decision time
/// (exact-arrival mode), and saturated points that stop on max_cycles
/// instead of the delivery target.
///
/// Every fifth index (index % 5 == 0) draws a wide router — more than 64
/// input units, so the link pass runs on a multi-word row, as in the
/// paper's 8-ary 3-cube with V = 10. Every other wide draw exceeds 128 units
/// (a 3-ary 4-cube with V in [15, 16], three or more row words); the
/// alternation period of 4 makes both widths meet both SIMD modes of the
/// scalar-vs-vector axis. The other indices draw narrow routers (V in
/// [2, 6]).
SimConfig drawConfig(Rng& rng, std::uint64_t index) {
  SimConfig cfg;
  const bool wide = index % 5 == 0;
  const bool over128 = wide && (index / 5) % 4 != 1 && (index / 5) % 4 != 2;
  if (over128) {
    cfg.dims = 4;
  } else if (wide) {
    cfg.dims = 2 + static_cast<int>(rng.uniform(3));  // n in [2, 4]
  } else {
    cfg.dims = 1 + static_cast<int>(rng.uniform(4));  // n in [1, 4]
  }
  switch (cfg.dims) {
    case 1: cfg.radix = 4 + static_cast<int>(rng.uniform(13)); break;  // k in [4, 16]
    case 2: cfg.radix = 3 + static_cast<int>(rng.uniform(10)); break;  // k in [3, 12]
    case 3: cfg.radix = 3 + static_cast<int>(rng.uniform(4));  break;  // k in [3, 6]
    default: cfg.radix = 3; break;                                     // 3-ary 4-cube
  }
  if (over128) {
    cfg.vcs = 15 + static_cast<int>(rng.uniform(2));  // 135 or 144 units
  } else if (wide) {
    // V in [ceil(65 / ports), min(16, 128 / ports)]: 65..128 units.
    const int ports = 2 * cfg.dims + 1;
    const int lo = (65 + ports - 1) / ports;
    const int hi = std::min(16, 128 / ports);
    cfg.vcs = lo + static_cast<int>(rng.uniform(static_cast<std::uint32_t>(hi - lo + 1)));
  } else {
    cfg.vcs = 2 + static_cast<int>(rng.uniform(5));  // V in [2, 6]
  }
  // VcPartition: escapeVcs even, in [2, V].
  cfg.escapeVcs = 2 * (1 + static_cast<int>(rng.uniform(
                               static_cast<std::uint32_t>(cfg.vcs / 2))));
  cfg.bufferDepth = 1 + static_cast<int>(rng.uniform(8));
  cfg.routerDecisionTime = static_cast<int>(rng.uniform(3));  // Td in [0, 2]
  cfg.messageLength = 2 + static_cast<int>(rng.uniform(23));  // M in [2, 24]
  cfg.injectionRate = 0.002 + 0.028 * rng.uniform01();
  constexpr TrafficPattern kPatterns[] = {
      TrafficPattern::Uniform,  TrafficPattern::Transpose,
      TrafficPattern::BitComplement, TrafficPattern::BitReversal,
      TrafficPattern::Shuffle,  TrafficPattern::Tornado,
      TrafficPattern::Hotspot,
  };
  cfg.pattern = kPatterns[rng.uniform(sizeof(kPatterns) / sizeof(kPatterns[0]))];
  if (cfg.pattern == TrafficPattern::Hotspot) {
    cfg.hotspotFraction = 0.05 + 0.45 * rng.uniform01();
  }
  cfg.routing = rng.bernoulli(0.5) ? RoutingMode::Adaptive : RoutingMode::Deterministic;
  if (rng.bernoulli(0.4)) {
    cfg.faults.randomNodes = 1 + static_cast<int>(rng.uniform(4));
    // Only a 4-node ring has as few nodes as faults; validate() requires
    // two healthy nodes.
    if (cfg.dims == 1) cfg.faults.randomNodes = std::min(cfg.faults.randomNodes, cfg.radix - 2);
    cfg.reinjectDelay = static_cast<int>(rng.uniform(31));
    // Occasionally a tiny threshold so the Valiant escalation path fires.
    if (rng.bernoulli(0.25)) cfg.livelockThreshold = 8;
  }
  cfg.warmupMessages = 20 + static_cast<std::uint32_t>(rng.uniform(61));
  cfg.measuredMessages = 100 + static_cast<std::uint32_t>(rng.uniform(301));
  cfg.maxCycles = 60'000;       // bounds saturated points
  cfg.deadlockWindow = 20'000;  // watchdog still armed inside the cap
  cfg.seed = rng.next();
  return cfg;
}

/// Exact comparison of every SimResult field; mirrors
/// test_engine_equivalence.cpp. Any divergence means the sparse engine did
/// (or skipped) work the dense sweep would not have.
void expectIdentical(const SimResult& sparse, const SimResult& dense,
                     const std::string& repro) {
  EXPECT_EQ(sparse.cycles, dense.cycles) << repro;
  EXPECT_EQ(sparse.generatedTotal, dense.generatedTotal) << repro;
  EXPECT_EQ(sparse.deliveredTotal, dense.deliveredTotal) << repro;
  EXPECT_EQ(sparse.deliveredMeasured, dense.deliveredMeasured) << repro;
  EXPECT_EQ(sparse.messagesQueued, dense.messagesQueued) << repro;
  EXPECT_EQ(sparse.absorbedMessages, dense.absorbedMessages) << repro;
  EXPECT_EQ(sparse.reversals, dense.reversals) << repro;
  EXPECT_EQ(sparse.detours, dense.detours) << repro;
  EXPECT_EQ(sparse.escalations, dense.escalations) << repro;
  EXPECT_EQ(sparse.saturated, dense.saturated) << repro;
  EXPECT_EQ(sparse.deadlockSuspected, dense.deadlockSuspected) << repro;
  EXPECT_EQ(sparse.completed, dense.completed) << repro;
  // Exact double equality, not near: both engines must execute the same
  // floating-point operations in the same order.
  EXPECT_EQ(sparse.meanLatency, dense.meanLatency) << repro;
  EXPECT_EQ(sparse.latencyStddev, dense.latencyStddev) << repro;
  EXPECT_EQ(sparse.maxLatency, dense.maxLatency) << repro;
  EXPECT_EQ(sparse.latencyP50, dense.latencyP50) << repro;
  EXPECT_EQ(sparse.latencyP95, dense.latencyP95) << repro;
  EXPECT_EQ(sparse.latencyP99, dense.latencyP99) << repro;
  EXPECT_EQ(sparse.latencyCi95, dense.latencyCi95) << repro;
  EXPECT_EQ(sparse.meanHops, dense.meanHops) << repro;
  EXPECT_EQ(sparse.throughput, dense.throughput) << repro;
}

TEST(EngineFuzz, SparseMatchesDenseOnRandomConfigs) {
  const std::uint64_t configs = envU64("SWFT_FUZZ_CONFIGS", 200);
  const std::uint64_t baseSeed = envU64("SWFT_FUZZ_SEED", 20060425);

  std::uint64_t ran = 0, disconnected = 0;
  std::uint64_t ranOver64 = 0, ranOver128 = 0;  // compared configs by router width
  std::uint64_t totalDelivered = 0, completedRuns = 0;
  for (std::uint64_t i = 0; i < configs; ++i) {
    Rng rng(baseSeed);
    rng = rng.split(i);
    SimConfig cfg = drawConfig(rng, i);
    const auto reproOf = [&](const SimConfig& c) {
      return "repro: " + reproString(c) + "  (fuzz index " + std::to_string(i) +
             ", SWFT_FUZZ_SEED=" + std::to_string(baseSeed) + ")";
    };
    std::string repro = reproOf(cfg);

    cfg.engine = EngineKind::Dense;
    SimResult dense;
    try {
      dense = runSimulation(cfg);
    } catch (const std::runtime_error&) {
      // Random faults occasionally disconnect a small torus; the sparse
      // build must reject the identical pattern the same way.
      cfg.engine = EngineKind::Sparse;
      EXPECT_THROW((void)runSimulation(cfg), std::runtime_error) << repro;
      ++disconnected;
      // A wide draw is the sweep's coverage of its row width, so it is
      // compared fault-free instead of skipped.
      if (unitsPerRouter(cfg) <= 64) continue;
      cfg.faults = FaultSpec{};
      cfg.engine = EngineKind::Dense;
      repro = reproOf(cfg);
      dense = runSimulation(cfg);
    }
    cfg.engine = EngineKind::Sparse;
    const SimResult sparse = runSimulation(cfg);
    expectIdentical(sparse, dense, repro);
    ++ran;
    if (unitsPerRouter(cfg) > 64) ++ranOver64;
    if (unitsPerRouter(cfg) > 128) ++ranOver128;
    totalDelivered += dense.deliveredMeasured;
    if (dense.completed) ++completedRuns;

    if (::testing::Test::HasFailure()) {
      FAIL() << "stopping at first divergent config\n" << repro;
    }
  }
  RecordProperty("configs_compared", static_cast<int>(ran));
  RecordProperty("configs_disconnected", static_cast<int>(disconnected));
  RecordProperty("configs_completed", static_cast<int>(completedRuns));
  RecordProperty("configs_over_64_units", static_cast<int>(ranOver64));
  RecordProperty("configs_over_128_units", static_cast<int>(ranOver128));
  // The sweep must mostly exercise real runs, not degenerate rejects, and
  // the comparisons must not be vacuous: messages actually flowed.
  EXPECT_GE(ran * 2, configs);
  EXPECT_GT(totalDelivered, 0u);
  EXPECT_GE(completedRuns * 4, ran);
  // Indices 0 (over 128 units) and 5 (65..128 units) are wide draws and are
  // always compared, so any sweep past index 5 covers both row widths.
  if (configs > 5) {
    EXPECT_GT(ranOver64, ranOver128);
    EXPECT_GT(ranOver128, 0u);
  }
}

}  // namespace
}  // namespace swft
