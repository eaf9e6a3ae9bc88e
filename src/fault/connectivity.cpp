#include "src/fault/connectivity.hpp"

#include <vector>

namespace swft {

namespace {

/// BFS over healthy links from `start`, marking `visited`. Returns count.
std::size_t bfs(const FaultSet& faults, NodeId start, std::vector<std::uint8_t>& visited) {
  const TorusTopology& topo = faults.topology();
  std::vector<NodeId> frontier{start};
  visited[start] = 1;
  std::size_t seen = 1;
  while (!frontier.empty()) {
    const NodeId cur = frontier.back();
    frontier.pop_back();
    for (int port = 0; port < topo.networkPorts(); ++port) {
      if (faults.linkFaulty(cur, port)) continue;
      const NodeId nb = topo.neighbor(cur, port);
      if (visited[nb]) continue;
      visited[nb] = 1;
      ++seen;
      frontier.push_back(nb);
    }
  }
  return seen;
}

}  // namespace

bool healthyNetworkConnected(const FaultSet& faults) {
  // One BFS from the first healthy node must reach every healthy node.
  const TorusTopology& topo = faults.topology();
  const std::size_t healthy =
      topo.nodeCount() - static_cast<std::size_t>(faults.faultyNodeCount());
  if (healthy == 0) return true;
  NodeId start = 0;
  while (faults.nodeFaulty(start)) ++start;
  std::vector<std::uint8_t> visited(topo.nodeCount(), 0);
  return bfs(faults, start, visited) == healthy;
}

int healthyComponentCount(const FaultSet& faults) {
  const TorusTopology& topo = faults.topology();
  std::vector<std::uint8_t> visited(topo.nodeCount(), 0);
  int components = 0;
  for (NodeId id = 0; id < topo.nodeCount(); ++id) {
    if (faults.nodeFaulty(id) || visited[id]) continue;
    ++components;
    bfs(faults, id, visited);
  }
  return components;
}

std::size_t componentSize(const FaultSet& faults, NodeId start) {
  if (faults.nodeFaulty(start)) return 0;
  std::vector<std::uint8_t> visited(faults.topology().nodeCount(), 0);
  return bfs(faults, start, visited);
}

}  // namespace swft
