// k-ary n-cube (torus) topology: ports, neighbours, distances, wrap links.
//
// Port numbering at every router:
//   port 2d   = dimension d, positive (+1 mod k) direction
//   port 2d+1 = dimension d, negative (-1 mod k) direction
//   port 2n   = injection (from the local PE)
// and a conceptually separate ejection output (port index 2n as well on the
// output side; input port 2n is injection, output port 2n is ejection).
//
// Port map. The constructor builds it once, in one pass over the
// coordinates: a per-node bitmask of wrap-around ports, plus a per-port pair
// of id steps (across an inner link, across the wrap link). The mask alone
// then fixes every neighbour: neighbor(id, p) = id + step[p][wraps(id, p)].
// Every consumer (fault marking, the connectivity check, routing, the CDG
// verifier and the engines' link pass) reads it; nothing else derives a
// neighbour from coordinates. The reverse of port p is reversePort(p) = p ^ 1.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/topology/coordinates.hpp"

namespace swft {

/// Direction along a dimension.
enum class Dir : std::uint8_t { Pos = 0, Neg = 1 };

constexpr Dir opposite(Dir d) noexcept { return d == Dir::Pos ? Dir::Neg : Dir::Pos; }
constexpr int dirStep(Dir d) noexcept { return d == Dir::Pos ? +1 : -1; }

/// Network port index helpers.
constexpr int portOf(int dim, Dir dir) noexcept {
  return 2 * dim + (dir == Dir::Neg ? 1 : 0);
}
constexpr int dimOfPort(int port) noexcept { return port / 2; }
constexpr Dir dirOfPort(int port) noexcept { return (port & 1) ? Dir::Neg : Dir::Pos; }
/// The port a link arrives on at the far end: same dimension, opposite direction.
constexpr int reversePort(int port) noexcept { return port ^ 1; }

class TorusTopology {
 public:
  TorusTopology(int radix, int dims);

  [[nodiscard]] int radix() const noexcept { return space_.radix(); }
  [[nodiscard]] int dims() const noexcept { return space_.dims(); }
  [[nodiscard]] NodeId nodeCount() const noexcept { return space_.nodeCount(); }
  [[nodiscard]] const AddressSpace& space() const noexcept { return space_; }

  /// Number of network ports per router (excludes injection/ejection).
  [[nodiscard]] int networkPorts() const noexcept { return 2 * dims(); }
  /// Injection input port / ejection output port index.
  [[nodiscard]] int localPort() const noexcept { return networkPorts(); }
  /// Total ports including the local one.
  [[nodiscard]] int totalPorts() const noexcept { return networkPorts() + 1; }

  [[nodiscard]] Coordinates coordsOf(NodeId id) const noexcept { return space_.coordsOf(id); }
  [[nodiscard]] NodeId idOf(const Coordinates& c) const noexcept { return space_.idOf(c); }

  /// Bitmask of the wrap-around ports of `id` (bit p set: port p wraps).
  [[nodiscard]] std::uint32_t wrapPorts(NodeId id) const noexcept { return wrapPorts_[id]; }

  /// Neighbour of `id` across network port `port`; torus links always exist.
  /// The three-argument form takes `wrapPorts(id)`, for callers that visit
  /// several ports of one node (the engines' link pass loads it once).
  [[nodiscard]] NodeId neighbor(NodeId id, int port, std::uint32_t wraps) const noexcept {
    return id + idStep_[static_cast<std::size_t>(port)][(wraps >> port) & 1u];
  }
  [[nodiscard]] NodeId neighbor(NodeId id, int port) const noexcept {
    return neighbor(id, port, wrapPorts(id));
  }
  [[nodiscard]] NodeId neighbor(NodeId id, int dim, Dir dir) const noexcept {
    return neighbor(id, portOf(dim, dir));
  }

  /// True iff the link out of `id` through `port` is a wrap-around link
  /// (digit k-1 -> 0 going Pos, 0 -> k-1 going Neg).
  [[nodiscard]] bool isWrapLink(NodeId id, int port) const noexcept {
    return ((wrapPorts(id) >> port) & 1u) != 0;
  }
  [[nodiscard]] bool isWrapLink(NodeId id, int dim, Dir dir) const noexcept {
    return isWrapLink(id, portOf(dim, dir));
  }

  /// Signed minimal offset from a to b along `dim`, in [-k/2, k/2].
  /// Ties (|offset| == k/2 with k even) resolve to the positive direction.
  [[nodiscard]] int minimalOffset(std::int16_t from, std::int16_t to) const noexcept;

  /// Hops from a to b along `dim` when travelling in direction `dir`.
  [[nodiscard]] int ringDistance(std::int16_t from, std::int16_t to, Dir dir) const noexcept;

  /// Minimal torus (Lee) distance between two nodes.
  [[nodiscard]] int distance(NodeId a, NodeId b) const noexcept;

  /// Preferred minimal direction from `from` to `to` along `dim`
  /// (Pos when already equal; callers check equality first).
  [[nodiscard]] Dir minimalDir(std::int16_t from, std::int16_t to) const noexcept {
    return minimalOffset(from, to) >= 0 ? Dir::Pos : Dir::Neg;
  }

 private:
  AddressSpace space_;
  // Id change leaving through port p, modulo 2^32: [p][0] across an inner
  // link (+-k^d), [p][1] across the wrap link (-+(k-1)k^d).
  std::array<std::array<NodeId, 2>, 2 * kMaxDims> idStep_{};
  std::vector<std::uint16_t> wrapPorts_;  // bit p set: port p of id wraps
};

}  // namespace swft
