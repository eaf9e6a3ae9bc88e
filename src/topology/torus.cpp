#include "src/topology/torus.hpp"

#include <array>
#include <cstdlib>

namespace swft {

static_assert(2 * kMaxDims <= 16, "wrapPorts_ holds one bit per network port");

TorusTopology::TorusTopology(int radix, int dims)
    : space_(radix, dims), wrapPorts_(space_.nodeCount()) {
  const auto k = static_cast<NodeId>(radix);
  NodeId stride = 1;  // k^d
  for (int d = 0; d < dims; ++d, stride *= k) {
    const NodeId wrapSpan = (k - 1) * stride;
    idStep_[portOf(d, Dir::Pos)] = {stride, NodeId{0} - wrapSpan};
    idStep_[portOf(d, Dir::Neg)] = {NodeId{0} - stride, wrapSpan};
  }
  // One odometer pass over the coordinates, no division: port 2d wraps at
  // digit k-1, port 2d+1 at digit 0.
  std::array<NodeId, kMaxDims> digit{};
  for (NodeId id = 0; id < space_.nodeCount(); ++id) {
    std::uint16_t wraps = 0;
    for (int d = 0; d < dims; ++d) {
      if (digit[d] == k - 1) wraps |= static_cast<std::uint16_t>(1u << portOf(d, Dir::Pos));
      if (digit[d] == 0) wraps |= static_cast<std::uint16_t>(1u << portOf(d, Dir::Neg));
    }
    wrapPorts_[id] = wraps;
    for (int d = 0; d < dims && ++digit[d] == k; ++d) digit[d] = 0;
  }
}

int TorusTopology::minimalOffset(std::int16_t from, std::int16_t to) const noexcept {
  const int k = radix();
  int off = (to - from) % k;
  if (off < 0) off += k;           // now in [0, k)
  if (off > k / 2) off -= k;       // fold to (-k/2, k/2]
  if (off == k / 2 && k % 2 == 0) {
    // |off| == k/2: both directions minimal; canonicalise to positive.
    off = k / 2;
  }
  return off;
}

int TorusTopology::ringDistance(std::int16_t from, std::int16_t to, Dir dir) const noexcept {
  const int k = radix();
  int d = (dir == Dir::Pos) ? (to - from) : (from - to);
  d %= k;
  if (d < 0) d += k;
  return d;
}

int TorusTopology::distance(NodeId a, NodeId b) const noexcept {
  const Coordinates ca = coordsOf(a);
  const Coordinates cb = coordsOf(b);
  int total = 0;
  for (int d = 0; d < dims(); ++d) total += std::abs(minimalOffset(ca[d], cb[d]));
  return total;
}

}  // namespace swft
