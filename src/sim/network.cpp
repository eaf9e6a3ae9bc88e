#include "src/sim/network.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace swft {

namespace {

FaultSet buildFaults(const TorusTopology& topo, const FaultSpec& spec, Rng rng) {
  FaultSet faults(topo);
  for (NodeId id : spec.explicitNodes) faults.failNode(id);
  for (const auto& link : spec.explicitLinks) {
    faults.failLink(link[0], static_cast<int>(link[1]),
                    link[2] == 0 ? Dir::Pos : Dir::Neg);
  }
  for (const RegionSpec& region : spec.regions) applyRegion(faults, region);
  // Random placement runs last and validates the final pattern itself, so
  // the connectivity check here is needed only when it did not run.
  if (spec.randomNodes > 0) {
    applyRandomNodeFaults(faults, spec.randomNodes, rng);
  } else if (!spec.empty() && !healthyNetworkConnected(faults)) {
    throw std::runtime_error("Network: fault pattern disconnects the network");
  }
  return faults;
}

const SimConfig& validated(const SimConfig& cfg) {
  validate(cfg);
  return cfg;
}

}  // namespace

Network::Network(const SimConfig& cfg)
    : cfg_(validated(cfg)),
      topo_(cfg.radix, cfg.dims),
      faults_(buildFaults(topo_, cfg.faults, Rng(cfg.seed).split(0xFA17))),
      part_(cfg.routing, cfg.vcs, cfg.escapeVcs),
      ecube_(topo_),
      duato_(topo_),
      software0_(std::make_unique<SoftwareLayer>(topo_, faults_, cfg.livelockThreshold)),
      software_(*software0_),
      traffic_(cfg.pattern, faults_, cfg.hotspotFraction),
      arena_(static_cast<int>(topo_.nodeCount()), topo_.totalPorts(),
             topo_.networkPorts(), cfg.vcs, cfg.bufferDepth,
             /*keepArrivals=*/cfg.routerDecisionTime > 0),
      engineRng_(Rng(cfg.seed).split(0xE61E)) {
  if (cfg.engine == EngineKind::Dense) {
    // The dense reference engine runs on the seed's per-router storage; the
    // arena stays unused (it is cheap to construct and keeps the type simple).
    legacy_.reserve(topo_.nodeCount());
    for (NodeId id = 0; id < topo_.nodeCount(); ++id) {
      legacy_.emplace_back(topo_.totalPorts(), topo_.networkPorts(), cfg.vcs,
                           cfg.bufferDepth);
    }
  }
  nodes_.reserve(topo_.nodeCount());
  nodeWork_.resize((static_cast<std::size_t>(topo_.nodeCount()) + 63) / 64, 0);
  const Rng nodeSeeder = Rng(cfg.seed).split(0x50DE);
  for (NodeId id = 0; id < topo_.nodeCount(); ++id) {
    NodeState node;
    node.rng = nodeSeeder.split(id);
    if (cfg.injectionRate > 0.0 && !faults_.nodeFaulty(id)) {
      node.nextGenCycle = node.rng.geometric(cfg.injectionRate);
      calendar_.schedule(id, node.nextGenCycle);
    } else {
      node.nextGenCycle = ~std::uint64_t{0};
    }
    nodes_.push_back(std::move(node));
  }
  healthyNodeCount_ = topo_.nodeCount() - static_cast<std::size_t>(faults_.faultyNodeCount());
  networkPorts_ = topo_.networkPorts();
  // downBase_ has a row per *total* port: the ejection port's entry points at
  // the arena's always-zero credit sink, so the link-qualification loop can
  // read a downstream size row for every port without branching on locality.
  downBase_.resize(static_cast<std::size_t>(topo_.nodeCount()) *
                   static_cast<std::size_t>(networkPorts_ + 1));
  std::int32_t* down = downBase_.data();
  for (NodeId id = 0; id < topo_.nodeCount(); ++id, down += networkPorts_ + 1) {
    for (int port = 0; port < networkPorts_; ++port) {
      down[port] = static_cast<std::int32_t>(arena_.base(topo_.neighbor(id, port)) +
                                             reversePort(port) * cfg.vcs);
    }
    down[networkPorts_] = static_cast<std::int32_t>(arena_.creditSinkBase());
  }
  if (cfg.warmupMessages == 0) {
    windowOpen_ = true;
    windowStartCycle_ = 0;
  }
  if (cfg.phaseTimers) phaseShards_.resize(1);
}

MsgId Network::injectTestMessage(NodeId src, NodeId dest, int length, RoutingMode mode) {
  if (faults_.nodeFaulty(src) || faults_.nodeFaulty(dest)) {
    throw std::invalid_argument("injectTestMessage: endpoint is faulty");
  }
  if (length < 1 || length > kMaxMessageLength) {
    throw std::invalid_argument("injectTestMessage: length must be in 1.." +
                                std::to_string(kMaxMessageLength) + ", got " +
                                std::to_string(length));
  }
  const MsgId id = pool_.allocate();
  Message& m = pool_.get(id);
  m.src = src;
  m.finalDest = dest;
  m.curTarget = dest;
  m.seq = genSeq_++;
  m.genCycle = cycle_;
  m.length = static_cast<std::uint16_t>(length);
  m.mode = mode;
  nodes_[src].sourceQueue.push_back(id);
  markNodeWork(src);
  ++generatedTotal_;
  return id;
}

SimResult Network::snapshot() const {
  SimResult r;
  r.meanLatency = latency_.stat().mean();
  r.latencyStddev =
      latency_.stat().count() > 1 ? std::sqrt(latency_.stat().variance()) : 0.0;
  r.maxLatency = latency_.stat().max();
  r.latencyP50 = latency_.percentile(0.50);
  r.latencyP95 = latency_.percentile(0.95);
  r.latencyP99 = latency_.percentile(0.99);
  r.latencyCi95 = latency_.ciHalfWidth95();
  r.meanHops = hops_.mean();
  r.cycles = cycle_;
  r.generatedTotal = generatedTotal_;
  r.deliveredTotal = deliveredTotal_;
  r.deliveredMeasured = deliveredMeasured_;
  r.offeredLoad = cfg_.injectionRate;
  if (windowOpen_ && cycle_ > windowStartCycle_ && healthyNodeCount_ > 0) {
    r.throughput = static_cast<double>(deliveredInWindow_) /
                   (static_cast<double>(healthyNodeCount_) *
                    static_cast<double>(cycle_ - windowStartCycle_));
  }
  const SoftwareLayerStats& sw = software_.stats();
  r.messagesQueued = sw.absorptions;
  r.absorbedMessages = absorbedMessages_;
  r.reversals = sw.reversals;
  r.detours = sw.detours;
  r.escalations = sw.escalations;
  r.deadlockSuspected = deadlockSuspected_;
  r.completed = deliveredMeasured_ >= cfg_.measuredMessages;
  // Saturation heuristic: the run did not complete, or the accepted rate
  // fell visibly below the offered rate while queues grew.
  const double accepted = r.throughput;
  r.saturated = !r.completed ||
                (cfg_.injectionRate > 0 && accepted > 0 &&
                 accepted < 0.85 * cfg_.injectionRate && sourceQueueMean() > 8.0);
  return r;
}

double Network::sourceQueueMean() const {
  if (healthyNodeCount_ == 0) return 0.0;
  std::size_t total = 0;
  for (const NodeState& n : nodes_) total += n.queuedMessages();
  return static_cast<double>(total) / static_cast<double>(healthyNodeCount_);
}

SimResult Network::run() {
  while (cycle_ < cfg_.maxCycles) {
    if (deliveredMeasured_ >= cfg_.measuredMessages) break;
    if (deadlockSuspected_) break;
    advanceCycle();
  }
  return snapshot();
}

void Network::step(std::uint64_t cycles) {
  for (std::uint64_t i = 0; i < cycles && !deadlockSuspected_; ++i) advanceCycle();
}

SimResult runSimulation(const SimConfig& cfg) {
  Network net(cfg);
  SimResult result = net.run();
  if (cfg.phaseTimers) {
    std::fprintf(stderr, "phase timers[0]: %s\n",
                 net.phaseShards()[0].toString().c_str());
  }
  return result;
}

std::string Network::validateInvariants() const {
  if (cfg_.engine == EngineKind::Dense) {
    std::string v = validateLegacyRouters();
    if (!v.empty()) return v;
  } else {
    std::string v = validateArenaRouters();
    if (!v.empty()) return v;
  }
  // Shared checks, independent of the storage backend.
  // Message accounting: pool live count covers queued + in-network flits.
  std::size_t queued = 0;
  for (const NodeState& n : nodes_) queued += n.queuedMessages();
  if (queued > pool_.liveCount()) {
    return "more queued messages than live pool slots";
  }
  // Injection-side work set covers every node with pending work (the
  // sparse engine never visits a node whose bit is clear, so a clear bit
  // with queued/streaming work would silently stall that node). One
  // exception: a node streaming into a *full* injection buffer is parked —
  // only a router-side pop can unblock it, and that pop re-arms the bit.
  for (NodeId id = 0; id < topo_.nodeCount(); ++id) {
    const bool bit = (nodeWork_[static_cast<std::size_t>(id) >> 6] >> (id & 63)) & 1u;
    if (!bit && !nodeIdle(id)) {
      const NodeState& n = nodes_[id];
      const bool parkedOnFullBuffer =
          n.streaming != kInvalidMsg &&
          arena_.full(arena_.unitIndex(id, topo_.localPort(), n.streamVc));
      if (!parkedOnFullBuffer) {
        return "work-set bit clear for busy node " + std::to_string(id);
      }
    }
  }
  return {};
}

std::string Network::validateArenaRouters() const {
  const int unitCount = arena_.unitsPerRouter();
  // 0. The incremental qualification bitmaps (fresh/creditOk/downOk/
  //    portMembers, the feeder edges and output-VC ownership) match a
  //    from-scratch recomputation from scalar state. Between cycles the
  //    freshness masks were last maintained against the cycle that just
  //    executed.
  if (std::string err =
          arena_.auditMasks(cycle_ == 0 ? 0 : cycle_ - 1);
      !err.empty()) {
    return err;
  }
  for (NodeId id = 0; id < topo_.nodeCount(); ++id) {
    const std::uint64_t* occ = arena_.occWords(id);
    // 1. Occupancy bits, the occupied-unit count and the network-level
    //    active bit all mirror buffer emptiness exactly.
    int occupied = 0;
    for (int u = 0; u < unitCount; ++u) {
      const bool bit = (occ[u >> 6] >> (u & 63)) & 1u;
      const bool nonEmpty = !arena_.empty(arena_.base(id) + u);
      if (bit != nonEmpty) {
        return "occupancy bit mismatch at node " + std::to_string(id) + " unit " +
               std::to_string(u);
      }
      occupied += nonEmpty ? 1 : 0;
    }
    if (occupied != arena_.occupiedUnits(id)) {
      return "occupied-unit count mismatch at node " + std::to_string(id);
    }
    const bool activeBit =
        (arena_.activeWords()[static_cast<std::size_t>(id) >> 6] >> (id & 63)) & 1u;
    if (activeBit != (occupied > 0)) {
      return "active-set bit mismatch at node " + std::to_string(id);
    }
    // 2. The routed mask and per-port request masks mirror the route words.
    for (int u = 0; u < unitCount; ++u) {
      const int g = arena_.base(id) + u;
      const bool routedBit = (arena_.routedWords(id)[u >> 6] >> (u & 63)) & 1u;
      if (routedBit != arena_.routed(g)) {
        return "routed-mask mismatch at node " + std::to_string(id) + " unit " +
               std::to_string(u);
      }
      for (int port = 0; port < topo_.totalPorts(); ++port) {
        const bool reqBit = (arena_.portMembers(id, port)[u >> 6] >> (u & 63)) & 1u;
        const bool expected = arena_.routed(g) && arena_.outPort(g) == port;
        if (reqBit != expected) {
          return "request-mask mismatch at node " + std::to_string(id) + " unit " +
                 std::to_string(u) + " port " + std::to_string(port);
        }
      }
    }
    // 3. Wormhole contiguity: within a VC buffer, flits between a header and
    //    its tail belong to one message, and kinds follow H (B*) T framing.
    for (int u = 0; u < unitCount; ++u) {
      const int g = arena_.base(id) + u;
      MsgId current = kInvalidMsg;
      for (int i = 0; i < arena_.size(g); ++i) {
        const Flit f = arena_.flitAt(g, i);
        if (current == kInvalidMsg) {
          // First flit of a framing span: either a header, or the mid-drain
          // remainder of a message whose header departed earlier.
          current = f.msg;
        } else if (f.msg != current) {
          return "interleaved messages in one VC buffer at node " + std::to_string(id);
        }
        if (f.isTail()) current = kInvalidMsg;
      }
    }
  }
  return {};
}

}  // namespace swft
