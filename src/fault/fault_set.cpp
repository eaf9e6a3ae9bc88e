#include "src/fault/fault_set.hpp"

namespace swft {

FaultSet::FaultSet(const TorusTopology& topo)
    : topo_(&topo),
      nodeFaulty_(topo.nodeCount(), 0),
      linkFaulty_(static_cast<std::size_t>(topo.nodeCount()) *
                      static_cast<std::size_t>(topo.networkPorts()),
                  0) {}

void FaultSet::failNode(NodeId id) {
  if (nodeFaulty_[id]) return;
  nodeFaulty_[id] = 1;
  ++faultyNodes_;
  // All links incident on the node are unusable from both sides.
  for (int port = 0; port < topo_->networkPorts(); ++port) {
    linkFaulty_[linkIndex(id, port)] = 1;
    linkFaulty_[linkIndex(topo_->neighbor(id, port), reversePort(port))] = 1;
  }
}

void FaultSet::failLink(NodeId id, int dim, Dir dir) {
  const int port = portOf(dim, dir);
  linkFaulty_[linkIndex(id, port)] = 1;
  linkFaulty_[linkIndex(topo_->neighbor(id, port), reversePort(port))] = 1;
}

std::vector<NodeId> FaultSet::faultyNodes() const {
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(faultyNodes_));
  for (NodeId id = 0; id < topo_->nodeCount(); ++id)
    if (nodeFaulty_[id]) out.push_back(id);
  return out;
}

std::vector<NodeId> FaultSet::healthyNodes() const {
  std::vector<NodeId> out;
  out.reserve(topo_->nodeCount() - static_cast<std::size_t>(faultyNodes_));
  for (NodeId id = 0; id < topo_->nodeCount(); ++id)
    if (!nodeFaulty_[id]) out.push_back(id);
  return out;
}

int FaultSet::healthyDegree(NodeId id) const noexcept {
  int deg = 0;
  for (int port = 0; port < topo_->networkPorts(); ++port)
    if (!linkFaulty(id, port)) ++deg;
  return deg;
}

}  // namespace swft
