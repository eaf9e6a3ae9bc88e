#include "src/sim/router_arena.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace swft {

RouterArena::RouterArena(int nodes, int totalPorts, int networkPorts, int vcs,
                         int bufferDepth, bool keepArrivals)
    : nodes_(nodes),
      totalPorts_(totalPorts),
      networkPorts_(networkPorts),
      vcs_(vcs),
      depth_(bufferDepth),
      unitsPerRouter_(totalPorts * vcs),
      keepArrivals_(keepArrivals) {
  if (bufferDepth < 1 || bufferDepth > FlitFifo::kMaxDepth) {
    throw std::invalid_argument("RouterArena: buffer depth out of range");
  }
  if (vcs < 1 || vcs > 16) {
    throw std::invalid_argument("RouterArena: VC count out of range");
  }
  const auto stride =
      std::bit_ceil(static_cast<unsigned>(bufferDepth));  // power-of-two ring
  strideLog2_ = std::countr_zero(stride);
  strideMask_ = static_cast<int>(stride) - 1;
  occWords_ = (unitsPerRouter_ + 63) / 64;

  const std::size_t units =
      static_cast<std::size_t>(nodes) * static_cast<std::size_t>(unitsPerRouter_);
  const std::size_t slots = units << strideLog2_;
  const std::size_t nodeWords =
      static_cast<std::size_t>(nodes) * static_cast<std::size_t>(occWords_);
  // The ZeroedVector resizes below write nothing: their empty state is the
  // allocator's zero fill.
  flit_.resize(slots);
  if (keepArrivals_) arrival_.resize(slots);
  // One extra always-empty row of V units past the real ones: the credit
  // sink. The engine points the ejection port's "downstream" units here so a
  // credit probe of any port alike reads a never-full size (the sink's
  // creditOk_ bits below stay permanently set for the same reason).
  meta_.resize(units + static_cast<std::size_t>(vcs));
  route_.resize(units);
  routedMask_.resize(nodeWords);
  portMembers_.resize(nodeWords * static_cast<std::size_t>(totalPorts));
  fresh_.resize(nodeWords);
  downOk_.resize(nodeWords);
  // Every buffer starts empty (size 0 < depth), and the credit-sink row past
  // the real units never fills, so the whole map starts — and the sink bits
  // permanently stay — creditable.
  creditOk_.resize((units + static_cast<std::size_t>(vcs) + 63) / 64, ~0ULL);
  routeDown_.resize(units);
  feeder_.resize(units);
  freshDirty_.resize(static_cast<std::size_t>(nodes));
  ownedVc_.resize(static_cast<std::size_t>(nodes) * static_cast<std::size_t>(networkPorts));
  allVcs_ = static_cast<std::uint16_t>((1u << vcs) - 1);
  cursor_.resize(static_cast<std::size_t>(nodes) * static_cast<std::size_t>(totalPorts));
  occ_.resize(nodeWords);
  active_.resize((static_cast<std::size_t>(nodes) + 63) / 64, 0);
}

void RouterArena::matureFreshness() noexcept {
  // Mature every dirty router's fresh row to its occupancy word. The dirty
  // bytes are scanned eight routers at a time: one word load skips eight
  // clean routers, and within a non-zero word countr_zero jumps straight to
  // each dirty byte, so the sweep costs O(active routers) rather than
  // O(nodes) even though push/pop mark dirt unconditionally.
  std::uint8_t* dirty = freshDirty_.data();
  const std::size_t n = freshDirty_.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, dirty + i, 8);
    if (w == 0) continue;
    std::memset(dirty + i, 0, 8);
    do {
      const int b = std::countr_zero(w) >> 3;
      w &= ~(0xffULL << (b * 8));
      const std::size_t r = i + static_cast<std::size_t>(b);
      std::uint64_t* f = fresh_.data() + r * static_cast<std::size_t>(occWords_);
      const std::uint64_t* o = occ_.data() + r * static_cast<std::size_t>(occWords_);
      for (int k = 0; k < occWords_; ++k) f[k] = o[k];
    } while (w != 0);
  }
  for (; i < n; ++i) {
    if (dirty[i] == 0) continue;
    dirty[i] = 0;
    std::uint64_t* f = fresh_.data() + i * static_cast<std::size_t>(occWords_);
    const std::uint64_t* o = occ_.data() + i * static_cast<std::size_t>(occWords_);
    for (int k = 0; k < occWords_; ++k) f[k] = o[k];
  }
}

std::string RouterArena::auditMasks(std::uint64_t freshCycle) const {
  std::ostringstream os;
  const int sink = creditSinkBase();
  // creditOk_: bit u == (size < depth) for real units, pinned 1 on the sink.
  for (int u = 0; u < sink + vcs_; ++u) {
    const bool expect = u >= sink || meta_[u].size < depth_;
    if (creditOkBit(u) != expect) {
      os << "creditOk mismatch at unit " << u << ": bit=" << creditOkBit(u)
         << " size=" << meta_[u].size << " depth=" << depth_;
      return os.str();
    }
  }
  for (NodeId id = 0; id < static_cast<NodeId>(nodes_); ++id) {
    for (int local = 0; local < unitsPerRouter_; ++local) {
      const int g = base(id) + local;
      const std::size_t w = maskIndex(id, local);
      const std::uint64_t bit = 1ULL << (local & 63);
      const bool occ = (occ_[w] & bit) != 0;
      // fresh_: the boundary occupancy snapshot. A clean router's row must
      // equal occ exactly (this also catches a push/pop that forgot its
      // dirty mark); a dirty router's row is pending the next sweep and is
      // deliberately stale. Between engine cycles every row is clean.
      if (freshDirty_[id] == 0 && ((fresh_[w] & bit) != 0) != occ) {
        os << "fresh mismatch at clean node " << id << " local " << local
           << ": bit=" << ((fresh_[w] & bit) != 0) << " occ=" << occ;
        return os.str();
      }
      // Front stamps never come from the future: every buffered front
      // arrived no later than the last executed cycle.
      if (occ && keepArrivals_ && frontArrival(g) > freshCycle) {
        os << "front stamp from the future at node " << id << " local "
           << local << ": frontArrival=" << frontArrival(g)
           << " last executed cycle " << freshCycle;
        return os.str();
      }
      // downOk_ / routeDown_ / feeder_: consistent with the route word.
      const bool routed = wordRouted(route_[g]);
      const int du = routeDown_[g] - 1;
      if (routed != (du >= 0)) {
        os << "routeDown mismatch at node " << id << " local " << local
           << ": routed=" << routed << " routeDown=" << du;
        return os.str();
      }
      const bool expectDown = routed && creditOkBit(du);
      if (((downOk_[w] & bit) != 0) != expectDown) {
        os << "downOk mismatch at node " << id << " local " << local
           << ": bit=" << ((downOk_[w] & bit) != 0) << " routed=" << routed
           << " downUnit=" << du;
        return os.str();
      }
      if (routed && du < sink) {
        if (feeder_[du] != feederWord(id, local)) {
          os << "feeder mismatch at downstream unit " << du << ": feeder="
             << feeder_[du] - 1 << " expected node " << id << " local " << local;
          return os.str();
        }
      }
      // portMembers_: exactly the route word, port by port.
      for (int p = 0; p < totalPorts_; ++p) {
        const bool member =
            (portMembers_[memberIndex(id, p, local)] & bit) != 0;
        const bool expectMember = routed && wordOutPort(route_[g]) == p;
        if (member != expectMember) {
          os << "portMembers mismatch at node " << id << " local " << local
             << " port " << p << ": bit=" << member
             << " routeWord=" << route_[g];
          return os.str();
        }
      }
    }
  }
  // ownedVc_: exactly the output VCs that routed units hold on network
  // ports. (That no two units hold one VC is the feeder_ audit above: both
  // would name the same downstream unit.)
  std::vector<std::uint16_t> expect(static_cast<std::size_t>(networkPorts_));
  for (NodeId id = 0; id < static_cast<NodeId>(nodes_); ++id) {
    std::fill(expect.begin(), expect.end(), std::uint16_t{0});
    for (int local = 0; local < unitsPerRouter_; ++local) {
      const std::uint32_t r = route_[base(id) + local];
      if (wordRouted(r) && wordOutPort(r) < networkPorts_) {
        expect[wordOutPort(r)] |= static_cast<std::uint16_t>(1u << wordOutVc(r));
      }
    }
    for (int p = 0; p < networkPorts_; ++p) {
      if (ownedVc_[ownedIndex(id, p)] != expect[p]) {
        os << "ownedVc mismatch at node " << id << " port " << p
           << ": mask=" << ownedVc_[ownedIndex(id, p)]
           << " routed units hold " << expect[p];
        return os.str();
      }
    }
  }
  // Every feeder entry must point at a unit routed onto it (no leaks after
  // releaseRoute).
  for (int du = 0; du < sink; ++du) {
    const std::int64_t f = feeder_[du] - 1;
    if (f < 0) continue;
    const auto fNode = static_cast<NodeId>(f >> 32);
    const int fLocal = static_cast<int>(f & 0x7FFFFFFF);
    const int fg = base(fNode) + fLocal;
    if (!wordRouted(route_[fg]) || routeDown_[fg] - 1 != du) {
      os << "stale feeder at downstream unit " << du << ": points at node "
         << fNode << " local " << fLocal << " routeWord=" << route_[fg]
         << " routeDown=" << routeDown_[fg] - 1;
      return os.str();
    }
  }
  return {};
}

}  // namespace swft
