// Coalesced fault-region builders (paper Fig. 1 / Fig. 5).
//
// Regions are planar shapes placed in a chosen 2-D plane (dims d0, d1) of the
// torus, with all remaining coordinates fixed at an anchor node. Convex
// shapes: I (|), II (||), Rect (block/□). Concave shapes: L, U, Plus (+),
// T, H. Cardinalities are exact so the Fig. 5 configurations (rect nf=20,
// T nf=10, + nf=16, L nf=9, U nf=8) reproduce verbatim.
#pragma once

#include <string>
#include <vector>

#include "src/fault/fault_set.hpp"
#include "src/util/rng.hpp"

namespace swft {

enum class RegionShape { I, II, Rect, L, U, Plus, T, H };

[[nodiscard]] std::string_view regionShapeName(RegionShape s) noexcept;
[[nodiscard]] bool regionIsConvex(RegionShape s) noexcept;

/// Parameters for a planar fault region.
struct RegionSpec {
  RegionShape shape = RegionShape::Rect;
  /// Anchor: plane-local origin (lowest corner of the bounding box).
  Coordinates anchor;
  /// The two dimensions spanning the plane the shape lives in.
  int dim0 = 0;
  int dim1 = 1;
  /// Shape-specific extents (see regionCells for the exact meaning).
  int extent0 = 3;
  int extent1 = 3;
};

/// Plane-local cell offsets (x along dim0, y along dim1) of the shape.
///
/// Extents per shape (cell counts):
///   I    : extent1 x 1 column                    -> extent1 cells
///   II   : two columns of height extent1, 1 apart-> 2*extent1 cells
///   Rect : extent0 x extent1 block               -> extent0*extent1 cells
///   L    : vertical leg extent1 + horizontal leg extent0 (corner shared)
///          -> extent0 + extent1 - 1 cells
///   U    : base of width extent0 + two arms of height extent1 (corners shared)
///          -> extent0 + 2*(extent1 - 1) cells
///   Plus : horizontal 2 x extent0 bar and vertical extent1 x 2 bar crossing
///          in a 2x2 centre -> 2*extent0 + 2*extent1 - 4 cells
///   T    : horizontal bar of width extent0 + stem of height extent1 below the
///          bar centre -> extent0 + extent1 cells
///   H    : two vertical legs of height extent1 + crossbar of width extent0
///          between them at mid height -> 2*extent1 + extent0 - 2 cells
[[nodiscard]] std::vector<std::pair<int, int>> regionCells(const RegionSpec& spec);

/// Resolve the spec to concrete node ids on the torus.
[[nodiscard]] std::vector<NodeId> regionNodes(const TorusTopology& topo, const RegionSpec& spec);

/// Apply the region to a fault set; returns the failed nodes.
std::vector<NodeId> applyRegion(FaultSet& faults, const RegionSpec& spec);

/// Convenience builders matching the Fig. 5 legend exactly (8-ary 2-cube).
[[nodiscard]] RegionSpec fig5Rect20(const TorusTopology& topo);   // 4x5 block, 20 nodes
[[nodiscard]] RegionSpec fig5T10(const TorusTopology& topo);      // bar 5 + stem 5, 10 nodes
[[nodiscard]] RegionSpec fig5Plus16(const TorusTopology& topo);   // 2-thick cross, 16 nodes
[[nodiscard]] RegionSpec fig5L9(const TorusTopology& topo);       // legs 5+5, 9 nodes
[[nodiscard]] RegionSpec fig5U8(const TorusTopology& topo);       // base 4, arms 3, 8 nodes

/// Fail `count` random healthy nodes such that the surviving network stays
/// connected and no healthy node is fully isolated. Each draw is checked
/// together with every fault already in `faults` (nodes and links), so the
/// result is the final, validated pattern. Returns the failed nodes.
/// Throws std::invalid_argument unless 0 <= count < healthy nodes, and
/// std::runtime_error if the existing pattern is already disconnected
/// (checked once, after the first failed draw) or no valid placement is
/// found within `maxAttempts`.
std::vector<NodeId> applyRandomNodeFaults(FaultSet& faults, int count, Rng& rng,
                                          int maxAttempts = 1000);

}  // namespace swft
