// Bucketed calendar queue for traffic-generation events.
//
// The seed engine asked every PE "is your next arrival due?" every cycle — an
// O(N) sweep that dominates at low injection rates where almost every answer
// is no. The calendar keys each node on its `nextGenCycle`: a ring of
// single-cycle buckets covers the next `kWindow` cycles, and arrivals beyond
// the window sit in an overflow list that is re-sifted each time the window
// advances (classic calendar-queue design). The overflow path is not cold:
// the mean geometric gap is 1/lambda cycles, so at lambda = 5e-3 most nodes
// fit the 1,024-cycle window, but at lambda = 5e-5 (20,000 cycles) nearly
// every node waits in overflow and each window advance re-sifts the list.
//
// Determinism contract: `takeDue(cycle)` returns the due nodes sorted by
// ascending id, so the engine processes them in exactly the order the dense
// reference sweep would — the global generation sequence numbers (and thus
// every downstream statistic) are bit-identical.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/topology/coordinates.hpp"

namespace swft {

class GenCalendar {
 public:
  static constexpr std::uint64_t kWindow = 1024;  // ring size, power of two

  GenCalendar() : ring_(kWindow) {}

  /// Register node `id` to fire at `cycle`. Each node must be scheduled at
  /// most once at a time (re-schedule only after its bucket was consumed).
  void schedule(NodeId id, std::uint64_t cycle) {
    if (cycle < windowBase_ + kWindow) {
      ring_[cycle & (kWindow - 1)].push_back(id);
    } else {
      overflow_.push_back(Pending{cycle, id});
    }
  }

  /// Nodes due exactly at `cycle`, ascending id. Cycles must be consumed in
  /// non-decreasing order; the returned reference is valid until the next call.
  const std::vector<NodeId>& takeDue(std::uint64_t cycle) {
    while (cycle >= windowBase_ + kWindow) advanceWindow();
    std::vector<NodeId>& bucket = ring_[cycle & (kWindow - 1)];
    due_.clear();
    due_.swap(bucket);
    std::sort(due_.begin(), due_.end());
    return due_;
  }

  [[nodiscard]] std::size_t pendingOverflow() const noexcept { return overflow_.size(); }

 private:
  struct Pending {
    std::uint64_t cycle;
    NodeId id;
  };

  void advanceWindow() {
    windowBase_ += kWindow;
    std::size_t kept = 0;
    for (const Pending& p : overflow_) {
      if (p.cycle < windowBase_ + kWindow) {
        ring_[p.cycle & (kWindow - 1)].push_back(p.id);
      } else {
        overflow_[kept++] = p;
      }
    }
    overflow_.resize(kept);
  }

  std::vector<std::vector<NodeId>> ring_;
  std::vector<Pending> overflow_;
  std::vector<NodeId> due_;
  std::uint64_t windowBase_ = 0;
};

}  // namespace swft
