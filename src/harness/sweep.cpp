#include "src/harness/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

namespace swft {

unsigned sweepPoolThreads(int requested, unsigned hardwareConcurrency) noexcept {
  if (requested <= 0) return std::max(1u, hardwareConcurrency);
  return static_cast<unsigned>(requested);
}

std::vector<SweepRow> runSweep(std::vector<SweepPoint> points, int threads,
                               const std::function<void(const SweepRow&)>& onDone) {
  std::vector<SweepRow> rows(points.size());
  if (points.empty()) return rows;

  unsigned nThreads =
      sweepPoolThreads(threads, std::thread::hardware_concurrency());
  nThreads = std::min<unsigned>(nThreads, static_cast<unsigned>(points.size()));

  std::atomic<std::size_t> nextIndex{0};
  std::mutex doneMutex;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = nextIndex.fetch_add(1, std::memory_order_relaxed);
      if (i >= points.size()) return;
      SweepRow row;
      row.point = points[i];
      row.result = runSimulation(points[i].cfg);
      if (onDone) {
        const std::lock_guard<std::mutex> lock(doneMutex);
        onDone(row);
      }
      rows[i] = std::move(row);
    }
  };

  if (nThreads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(nThreads);
    for (unsigned t = 0; t < nThreads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  return rows;
}

std::vector<double> rateGrid(double maxRate, int steps) {
  std::vector<double> grid;
  grid.reserve(static_cast<std::size_t>(steps));
  for (int i = 1; i <= steps; ++i) {
    grid.push_back(maxRate * static_cast<double>(i) / static_cast<double>(steps));
  }
  return grid;
}

}  // namespace swft
