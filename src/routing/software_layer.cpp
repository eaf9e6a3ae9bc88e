#include "src/routing/software_layer.hpp"

#include <algorithm>
#include <cassert>

namespace swft {

SoftwareLayer::SoftwareLayer(const TorusTopology& topo, const FaultSet& faults,
                             int livelockThreshold)
    : topo_(&topo),
      faults_(&faults),
      ecube_(topo),
      livelockThreshold_(livelockThreshold),
      tables_(topo.nodeCount()),
      healthyNodes_(faults.healthyNodes()),
      absorptionsAt_(topo.nodeCount(), 0) {
  // Precompute the three per-node software tables from the static fault map.
  for (NodeId id = 0; id < topo.nodeCount(); ++id) {
    NodeTables& t = tables_[id];
    for (int dim = 0; dim < topo.dims(); ++dim) {
      for (Dir dir : {Dir::Pos, Dir::Neg}) {
        const int port = portOf(dim, dir);
        if (!faults.linkFaulty(id, dim, dir)) {
          t.healthyLinkMask |= static_cast<std::uint16_t>(1u << port);
        }
      }
    }
    for (int dim = 0; dim < topo.dims(); ++dim) {
      for (Dir dir : {Dir::Pos, Dir::Neg}) {
        const int port = portOf(dim, dir);
        const int revPort = portOf(dim, opposite(dir));
        // Table 2: blocked in (dim, dir) -> can we leave via (dim, -dir)?
        if (t.healthyLinkMask & (1u << revPort)) {
          t.reversalUsable |= static_cast<std::uint16_t>(1u << port);
        }
      }
      // Table 3: preferred orthogonal escape for a message blocked in `dim`:
      // the active-plane partner first, then any other healthy dimension.
      t.detourDim[dim] = -1;
      t.detourDirStep[dim] = 0;
      const int partner = planePartner(dim);
      auto tryDim = [&](int e) {
        if (e == dim || e < 0 || t.detourDirStep[dim] != 0) return;
        for (Dir dir : {Dir::Pos, Dir::Neg}) {
          if (t.healthyLinkMask & (1u << portOf(e, dir))) {
            t.detourDim[dim] = static_cast<std::int8_t>(e);
            t.detourDirStep[dim] = static_cast<std::int8_t>(dirStep(dir));
            return;
          }
        }
      };
      tryDim(partner);
      for (int e = 0; e < topo.dims(); ++e) tryDim(e);
    }
  }
}

int SoftwareLayer::planePartner(int dim) const noexcept {
  const int n = topo_->dims();
  if (n < 2) return -1;
  return dim < n - 1 ? dim + 1 : n - 2;
}

bool SoftwareLayer::linkHealthy(NodeId at, int dim, int dirStep) const noexcept {
  const Dir dir = dirStep > 0 ? Dir::Pos : Dir::Neg;
  return (tables_[at].healthyLinkMask & (1u << portOf(dim, dir))) != 0;
}

void SoftwareLayer::planReroute(Message& msg, NodeId at, Rng& rng) {
  ++stats_.absorptions;
  ++absorptionsAt_[at];
  ++msg.absorptions;

  // An adaptive message is downgraded to deterministic routing after its
  // first encounter with a fault (paper §4).
  msg.mode = RoutingMode::Deterministic;

  // Arrived at a planned software intermediate: promote the pending second
  // detour leg if one exists, otherwise resume toward the final destination;
  // then re-examine the locally known fault state.
  if (msg.absorbAtTarget && msg.curTarget == at) {
    if (msg.pendingTarget != kInvalidNode && msg.pendingTarget != at) {
      msg.curTarget = msg.pendingTarget;
      msg.pendingTarget = kInvalidNode;
      msg.absorbAtTarget = (msg.curTarget != msg.finalDest);
    } else {
      msg.pendingTarget = kInvalidNode;
      msg.curTarget = msg.finalDest;
      msg.absorbAtTarget = false;
    }
    ++stats_.reEvaluations;
  }

  // A direction override exists to steer one ring traversal around a fault;
  // once the message sits at a node where that dimension is already correct
  // (w.r.t. the final destination), the override has served its purpose.
  // Keeping it would force full ring orbits through the same fault cluster
  // on every later visit to the dimension (livelock).
  {
    const Coordinates cc = topo_->coordsOf(at);
    const Coordinates fc = topo_->coordsOf(msg.finalDest);
    for (int d = 0; d < topo_->dims(); ++d) {
      if (cc[d] == fc[d]) msg.dirOverride[d] = kNoOverride;
    }
  }

  int blockedDim = -1;
  int blockedStep = 0;
  if (msg.blockedValid) {
    blockedDim = msg.blockedDim;
    blockedStep = msg.blockedDirStep;
  } else {
    // Re-evaluation: does the next e-cube hop from here lead into a fault?
    const auto hop = ecube_.nextHop(msg, at);
    if (hop && faults_->linkFaulty(at, hop->dim, hop->dir)) {
      blockedDim = hop->dim;
      blockedStep = dirStep(hop->dir);
    }
  }
  msg.blockedValid = false;

  if (blockedDim >= 0) {
    handleBlocked(msg, at, blockedDim, blockedStep, rng);
  } else {
    // Clean resume: header simply continues toward the final destination.
    msg.consecutiveDetours = 0;
  }
}

void SoftwareLayer::handleBlocked(Message& msg, NodeId at, int dim, int step, Rng& rng) {
  if (livelockThreshold_ > 0 && msg.absorptions > livelockThreshold_) {
    escalate(msg, at, rng);
    return;
  }

  const NodeTables& t = tables_[at];
  const Dir blockedDir = step > 0 ? Dir::Pos : Dir::Neg;

  // Step 1 (paper §4): "when a message encounters a fault, it is first
  // re-routed in the same dimension in the opposite direction" — a header
  // rewrite that installs a direction override; the path stays
  // dimension-ordered. Applicable only if this dimension has not been
  // reversed already and table 2 says the surviving direction is usable.
  const bool alreadyOverridden = msg.dirOverride[dim] != kNoOverride;
  const bool reversalOk =
      (t.reversalUsable & (1u << portOf(dim, blockedDir))) != 0 && topo_->radix() >= 3;
  if (!alreadyOverridden && reversalOk) {
    msg.dirOverride[dim] = static_cast<std::int8_t>(-step);
    msg.consecutiveDetours = 0;
    ++stats_.reversals;
    return;
  }

  // Step 2: "if another fault is encountered, the message is routed in an
  // orthogonal dimension in an attempt to route around the faulty region" —
  // compute an intermediate node address in the active plane's partner
  // dimension; the message will be absorbed there and re-evaluated.
  const Coordinates cc = topo_->coordsOf(at);
  const Coordinates fc = topo_->coordsOf(msg.finalDest);

  int detourDim = -1;
  int detourStep = 0;
  // Boundary-following memory: keep sliding the same way along a region.
  if (msg.lastDetourDim >= 0 && msg.lastDetourDim != dim &&
      linkHealthy(at, msg.lastDetourDim, msg.lastDetourDirStep)) {
    detourDim = msg.lastDetourDim;
    detourStep = msg.lastDetourDirStep;
  }
  // Otherwise prefer the plane partner, minimal-direction first.
  if (detourDim < 0) {
    const int partner = planePartner(dim);
    if (partner >= 0) {
      InlineVector<int, 2> prefs;
      if (cc[partner] != fc[partner]) {
        prefs.push_back(dirStep(topo_->minimalDir(cc[partner], fc[partner])));
        prefs.push_back(-prefs[0]);
      } else {
        prefs.push_back(+1);
        prefs.push_back(-1);
      }
      for (int s : prefs) {
        if (linkHealthy(at, partner, s)) {
          detourDim = partner;
          detourStep = s;
          break;
        }
      }
    }
  }
  // Fall back to table 3's precomputed preference (any healthy orthogonal
  // dimension), then to reversing despite an existing override.
  if (detourDim < 0 && t.detourDirStep[dim] != 0) {
    detourDim = t.detourDim[dim];
    detourStep = t.detourDirStep[dim];
  }
  if (detourDim < 0) {
    if (reversalOk) {
      msg.dirOverride[dim] = static_cast<std::int8_t>(-step);
      msg.consecutiveDetours = 0;
      ++stats_.reversals;
      return;
    }
    escalate(msg, at, rng);
    return;
  }

  // Escalating detour length defeats ping-pong cycles along concave regions.
  const int maxLen = topo_->radix() - 1;
  int len = 1 + std::max(0, static_cast<int>(msg.consecutiveDetours) - 2);
  len = std::min(len, maxLen);

  // Walk up to `len` hops in the detour direction, stopping at the last
  // healthy node (the first hop is healthy: the link is).
  const int detourPort = portOf(detourDim, detourStep > 0 ? Dir::Pos : Dir::Neg);
  NodeId inter = at;
  for (int i = 0; i < len; ++i) {
    const NodeId nid = topo_->neighbor(inter, detourPort);
    if (faults_->nodeFaulty(nid)) break;
    inter = nid;
  }
  assert(inter != at && "detour link was healthy, first hop must succeed");

  msg.curTarget = inter;
  msg.absorbAtTarget = (inter != msg.finalDest);
  msg.lastDetourDim = static_cast<std::int8_t>(detourDim);
  msg.lastDetourDirStep = static_cast<std::int8_t>(detourStep);
  if (msg.consecutiveDetours < 255) ++msg.consecutiveDetours;
  ++stats_.detours;

  // Two-leg detour: when the sidestep dimension is LOWER than the blocked
  // dimension, dimension-order routing would restore it first and walk
  // straight back into the same fault. Plan a second intermediate that
  // advances past the fault in the blocked dimension before the lower
  // dimension is corrected again (chained software hops, assumption (i) ii).
  msg.pendingTarget = kInvalidNode;
  if (detourDim < dim) {
    const int k = topo_->radix();
    const int blockedPort = portOf(dim, blockedDir);
    for (const int adv : {2, 3, 1, 4, 5, 6}) {
      if (adv >= k) continue;
      NodeId leg2 = inter;
      for (int i = 0; i < adv; ++i) leg2 = topo_->neighbor(leg2, blockedPort);
      if (!faults_->nodeFaulty(leg2)) {
        msg.pendingTarget = leg2;
        break;
      }
    }
  }
}

void SoftwareLayer::escalate(Message& msg, NodeId at, Rng& rng) {
  // Livelock guard: Valiant-style random healthy intermediate. The paper's
  // configurations never trigger this (asserted by tests); it exists so that
  // adversarial fault patterns still terminate.
  NodeId pick = at;
  for (int tries = 0; tries < 64 && (pick == at); ++tries) {
    pick = healthyNodes_[rng.uniform(static_cast<std::uint32_t>(healthyNodes_.size()))];
  }
  msg.curTarget = pick;
  msg.absorbAtTarget = (pick != msg.finalDest);
  msg.pendingTarget = kInvalidNode;
  std::fill(std::begin(msg.dirOverride), std::end(msg.dirOverride), kNoOverride);
  msg.lastDetourDim = -1;
  msg.lastDetourDirStep = 0;
  msg.consecutiveDetours = 0;
  ++stats_.escalations;
}

}  // namespace swft
