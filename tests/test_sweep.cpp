#include "src/harness/sweep.hpp"

#include <gtest/gtest.h>

#include "tests/naming.hpp"

namespace swft {
namespace {

std::string pointLabel(int i) { return catName({"p", std::to_string(i)}); }

SweepPoint tinyPoint(const std::string& label, double rate, std::uint64_t seed) {
  SweepPoint p;
  p.label = label;
  p.cfg.radix = 4;
  p.cfg.dims = 2;
  p.cfg.vcs = 2;
  p.cfg.messageLength = 4;
  p.cfg.injectionRate = rate;
  p.cfg.warmupMessages = 50;
  p.cfg.measuredMessages = 300;
  p.cfg.maxCycles = 200'000;
  p.cfg.seed = seed;
  return p;
}

TEST(Sweep, PreservesSubmissionOrder) {
  std::vector<SweepPoint> points;
  for (int i = 0; i < 4; ++i) {
    points.push_back(tinyPoint(pointLabel(i), 0.002 * (i + 1), 10 + i));
  }
  const auto rows = runSweep(points, 1);
  ASSERT_EQ(rows.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(rows[static_cast<std::size_t>(i)].point.label,
                                        pointLabel(i));
}

TEST(Sweep, ParallelAndSerialResultsIdentical) {
  std::vector<SweepPoint> points;
  for (int i = 0; i < 6; ++i) {
    points.push_back(tinyPoint(pointLabel(i), 0.003, 20 + i));
  }
  const auto serial = runSweep(points, 1);
  const auto parallel = runSweep(points, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].result.meanLatency, parallel[i].result.meanLatency);
    EXPECT_EQ(serial[i].result.cycles, parallel[i].result.cycles);
    EXPECT_EQ(serial[i].result.messagesQueued, parallel[i].result.messagesQueued);
  }
}

TEST(Sweep, CallbackInvokedOncePerPoint) {
  std::vector<SweepPoint> points;
  for (int i = 0; i < 3; ++i) points.push_back(tinyPoint("x", 0.002, 30 + i));
  int calls = 0;
  runSweep(points, 2, [&](const SweepRow&) { ++calls; });
  EXPECT_EQ(calls, 3);
}

TEST(Sweep, EmptyInputYieldsEmptyOutput) {
  EXPECT_TRUE(runSweep({}, 4).empty());
}

TEST(Sweep, PoolThreadsDefaultToHardwareConcurrency) {
  // Auto -> hardware concurrency (at least one); explicit requests honoured
  // verbatim.
  EXPECT_EQ(sweepPoolThreads(0, 8), 8u);
  EXPECT_EQ(sweepPoolThreads(-1, 8), 8u);
  EXPECT_EQ(sweepPoolThreads(0, 0), 1u);   // unknown concurrency
  EXPECT_EQ(sweepPoolThreads(3, 8), 3u);
  EXPECT_EQ(sweepPoolThreads(16, 8), 16u);  // explicit oversubscribe allowed
}

TEST(Sweep, RateGridSpansToMaximum) {
  const auto grid = rateGrid(0.014, 7);
  ASSERT_EQ(grid.size(), 7u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.002);
  EXPECT_DOUBLE_EQ(grid.back(), 0.014);
  for (std::size_t i = 1; i < grid.size(); ++i) EXPECT_GT(grid[i], grid[i - 1]);
}

}  // namespace
}  // namespace swft
