// The simulated network: topology + faults + routers + PEs + the cycle
// engine implementing flit-level wormhole switching with Software-Based
// fault-tolerant routing (paper §4, §5).
//
// Two engine implementations coexist (selected by `cfg.engine`):
//
//   Sparse (engine.cpp)        — the production event-sparse engine over the
//                                contiguous RouterArena.
//   Dense  (engine_dense.cpp)  — the seed engine, kept deliberately
//                                verbatim (per-router RouterState storage,
//                                all-nodes sweep) as the reference
//                                implementation and the "before" side of
//                                bench/kernel_microbench's perf baseline.
//
// Both run on the calling thread; parallelism lives one level up, in the
// sweep pool that runs independent simulations side by side (DESIGN.md §6).
// The engines must produce bit-identical SimResults for identical configs;
// tests/test_engine_equivalence.cpp and test_engine_fuzz.cpp enforce it.
#pragma once

#include <memory>
#include <vector>

#include "src/fault/connectivity.hpp"
#include "src/router/message_pool.hpp"
#include "src/routing/duato.hpp"
#include "src/routing/ecube.hpp"
#include "src/routing/software_layer.hpp"
#include "src/sim/config.hpp"
#include "src/sim/gen_calendar.hpp"
#include "src/sim/node.hpp"
#include "src/sim/router_arena.hpp"
#include "src/sim/router_state.hpp"
#include "src/sim/stats.hpp"
#include "src/sim/trace.hpp"
#include "src/traffic/patterns.hpp"

namespace swft {

class Network {
 public:
  explicit Network(const SimConfig& cfg);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Run the full experiment: warm-up, measurement, stop conditions.
  SimResult run();

  /// Advance exactly `cycles` cycles (stepping API for tests/examples).
  void step(std::uint64_t cycles);

  /// Finalise counters into a SimResult without running further.
  [[nodiscard]] SimResult snapshot() const;

  // --- introspection (tests, examples) -------------------------------------
  [[nodiscard]] const SimConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const TorusTopology& topology() const noexcept { return topo_; }
  [[nodiscard]] const FaultSet& faults() const noexcept { return faults_; }
  [[nodiscard]] const SoftwareLayer& softwareLayer() const noexcept { return software_; }
  [[nodiscard]] const MessagePool& pool() const noexcept { return pool_; }
  [[nodiscard]] std::uint64_t now() const noexcept { return cycle_; }
  [[nodiscard]] std::uint64_t generated() const noexcept { return generatedTotal_; }
  [[nodiscard]] std::uint64_t delivered() const noexcept { return deliveredTotal_; }
  [[nodiscard]] std::uint64_t inFlight() const noexcept { return pool_.liveCount(); }
  [[nodiscard]] bool deadlockSuspected() const noexcept { return deadlockSuspected_; }
  [[nodiscard]] const RouterArena& arena() const noexcept { return arena_; }
  [[nodiscard]] const NodeState& node(NodeId id) const noexcept { return nodes_[id]; }

  /// Inject a specific message immediately (testing hook). Returns its id.
  MsgId injectTestMessage(NodeId src, NodeId dest, int length, RoutingMode mode);

  /// Attach (or detach with nullptr) a per-message event recorder. The
  /// recorder must outlive the network. Intended for tests and debugging;
  /// tracing every event is O(messages x hops) memory.
  void attachTrace(TraceRecorder* trace) noexcept { trace_ = trace; }

  /// Phase timers, collected when `cfg.phaseTimers` is set: one slot when
  /// set, empty otherwise.
  [[nodiscard]] const std::vector<PhaseBreakdown>& phaseShards() const noexcept {
    return phaseShards_;
  }

  /// Validate microarchitectural invariants (occupancy bits/counts/active
  /// set vs buffers, output-VC ownership consistency, wormhole per-VC
  /// message contiguity, injection-side work-set coverage). Returns an empty
  /// string when consistent, else a description of the first violation.
  /// O(network size); test/debug use.
  [[nodiscard]] std::string validateInvariants() const;

 private:
  friend struct NetworkTestAccess;  // white-box unit tests

  // One simulation cycle: injection, route computation + VC allocation,
  // switch allocation + link traversal, ejection.
  void advanceCycle();
  // Reference implementation (engine_dense.cpp): the seed engine — sweep
  // every node every cycle over per-router RouterState storage.
  void advanceCycleDense();
  // Event-sparse implementation: generation calendar + active-set walks.
  void advanceCycleSparse();

  void stepGeneration(NodeId id);
  // Returns true when the node can make no injection progress until an
  // external event (queues drained, or streaming blocked on a full buffer
  // that only a router-side pop can drain), so the sparse engine can clear
  // its work bit; the event source re-arms it (generation: stepGeneration,
  // buffer drain: commitLink/ejectFlit).
  bool stepInjection(NodeId id);
  // Single pass per router over a router row of W occupancy words: route
  // computation + VC allocation for unrouted headers, then the batched link
  // pass (qualify every link once, then commit each live link's round-robin
  // winner; see engine.cpp). The sparse walk picks the instantiation for the
  // arena's row width once per cycle through stepRouterFor.
  template <int W>
  void stepRouter(NodeId id);
  using StepRouterFn = void (Network::*)(NodeId);
  [[nodiscard]] static StepRouterFn stepRouterFor(int occWords) noexcept;
  // Winner commit for one network link: advance the round-robin cursor, pop
  // at the winner unit, push into the hoisted downstream unit, release the
  // route on tail departure. `wraps` is topo_.wrapPorts(id). Force-inlined
  // into stepRouter (its only caller) so arena row pointers stay in
  // registers across selection and commit.
  [[gnu::always_inline]] void commitLink(NodeId id, int port, int winnerIdx,
                                         std::uint32_t wraps);

  // Seed-engine step functions over the legacy storage (engine_dense.cpp).
  void stepInjectionDense(NodeId id);
  void routeHeaderDense(NodeId id, int unitIdx);
  void stepRouterDense(NodeId id);
  void ejectFlitDense(NodeId id, int unitIdx);
  [[nodiscard]] std::string validateLegacyRouters() const;
  [[nodiscard]] std::string validateArenaRouters() const;

  void routeHeader(NodeId id, int unitIdx);
  [[gnu::always_inline]] void ejectFlit(NodeId id, int unitIdx);
  void finalizeEjected(NodeId id, MsgId msgId);
  void scheduleReinjection(NodeId id, MsgId msgId);
  [[nodiscard]] double sourceQueueMean() const;

  // Injection-side active set: bit per node with queued or streaming work.
  void markNodeWork(NodeId id) noexcept {
    nodeWork_[static_cast<std::size_t>(id) >> 6] |= (1ULL << (id & 63));
  }
  [[nodiscard]] bool nodeIdle(NodeId id) const noexcept {
    const NodeState& n = nodes_[id];
    return n.streaming == kInvalidMsg && n.sourceQueue.empty() && n.swQueue.empty();
  }

  SimConfig cfg_;
  TorusTopology topo_;
  FaultSet faults_;
  VcPartition part_;
  EcubeRouting ecube_;
  DuatoRouting duato_;
  std::unique_ptr<SoftwareLayer> software0_;  // built after faults applied
  SoftwareLayer& software_;
  TrafficGenerator traffic_;
  MessagePool pool_;

  RouterArena arena_;
  std::vector<RouterState> legacy_;  // populated only for EngineKind::Dense
  std::vector<NodeState> nodes_;
  Rng engineRng_;

  // Event-sparse engine state. The calendar holds every healthy node's next
  // generation cycle; nodeWork_ covers every node with injection-side work.
  // Both are conservative supersets of "nodes that will do something" —
  // visiting an idle node is a no-op in both engines, so the active sets can
  // never change results, only skip provably-dead work.
  GenCalendar calendar_;
  std::vector<std::uint64_t> nodeWork_;

  // Hot-path arena cache; neighbours and wrap bits come from topo_'s port map.
  int networkPorts_ = 0;
  // Arena base of the downstream input-port units reached through (id, port):
  // neighbor * unitsPerRouter + reversePort(port) * vcs. Adding outVc yields the
  // downstream unit in one add — the credit check needs no multiplies. The
  // ejection port's entry is the arena's always-zero credit sink (the PE
  // always accepts), so the row exists for every port of the router.
  std::vector<std::int32_t> downBase_;

  [[nodiscard]] std::int32_t cachedDownBase(NodeId id, int port) const noexcept {
    return downBase_[static_cast<std::size_t>(id) *
                         static_cast<std::size_t>(networkPorts_ + 1) +
                     static_cast<std::size_t>(port)];
  }

  TraceRecorder* trace_ = nullptr;

  // Phase timers: one slot when cfg_.phaseTimers is set, empty otherwise.
  std::vector<PhaseBreakdown> phaseShards_;

  [[nodiscard]] PhaseBreakdown* phaseTimers() noexcept {
    return phaseShards_.empty() ? nullptr : &phaseShards_[0];
  }

  // --- engine counters ------------------------------------------------------
  std::uint64_t cycle_ = 0;
  std::uint64_t lastMovementCycle_ = 0;
  std::uint32_t genSeq_ = 0;
  std::uint64_t generatedTotal_ = 0;
  std::uint64_t deliveredTotal_ = 0;
  std::uint64_t deliveredMeasured_ = 0;
  std::uint64_t deliveredInWindow_ = 0;
  std::uint64_t windowStartCycle_ = 0;
  bool windowOpen_ = false;
  std::uint64_t absorbedMessages_ = 0;  // distinct messages absorbed >= once
  LatencyTracker latency_;
  RunningStat hops_;
  bool deadlockSuspected_ = false;
  std::size_t healthyNodeCount_ = 0;
};

/// Convenience wrapper: build the network from `cfg` and run to completion.
SimResult runSimulation(const SimConfig& cfg);

}  // namespace swft
