// End-to-end and per-layer benchmark driver for the swft simulator.
//
// A workload is a fixed grid of SweepPoints built from --seed; the simulator
// only ever sees the generated configs. Four modes, all driven by run.py:
//
//   --mode grid    untraced end-to-end run: repeated cold-cache grids
//                  through the public runExperiment (pool = nproc, engine
//                  sparse), interleaved with one-thread set-up of every
//                  point's Network. Reports medians over the repetitions.
//   --mode trace   traced per-layer run: times the public entry points of
//                  each src/ module from outside, records spans in memory,
//                  writes them to --spans at the end and derives the
//                  per-layer metrics (and a self-time table on stderr).
//   --mode oracle  steps a prefix of one point per workload on the dense
//                  reference engine and on sparse; the snapshots must match.
//   --mode digests prints the per-point result digests of one grid in the
//                  pinned_digests.txt format (for re-pinning).
//
// grid, trace and oracle write a JSON report to --report; run.py merges the
// reports of the oracle and the measuring process into the result line.
// See e2ebench/README.md for the workloads and the metric map.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/fault/regions.hpp"
#include "src/harness/experiment.hpp"
#include "src/harness/result_cache.hpp"
#include "src/harness/sweep.hpp"
#include "src/routing/duato.hpp"
#include "src/routing/ecube.hpp"
#include "src/routing/software_layer.hpp"
#include "src/sim/config_canon.hpp"
#include "src/sim/network.hpp"
#include "src/traffic/patterns.hpp"
#include "src/util/fnv.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace swft;
using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// Keeps a value alive so the timed loops cannot be folded away.
inline void keep(std::uint64_t v) { asm volatile("" : : "r"(v) : "memory"); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t resultDigest(const SimResult& r) { return fnv1a64(serializeResult(r)); }

// ---------------------------------------------------------------------------
// Workloads. Only the per-point simulation seeds depend on --seed; the grid
// shape (rates, fault counts, run lengths) is fixed so that every seed costs
// about the same host time. All fields that shape a run are set explicitly,
// so SWFT_SCALE never reaches these configs.
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  std::vector<SweepPoint> (*build)(std::uint64_t seed);
  std::size_t oraclePoint;      // grid index stepped on dense vs sparse
  std::uint64_t oracleCycles;   // prefix length of that check
};

const char* modeTag(RoutingMode m) { return m == RoutingMode::Adaptive ? "adp" : "det"; }

SweepPoint basePoint(std::uint64_t& seedState) {
  SweepPoint p;
  p.cfg.seed = splitmix64(seedState);
  p.cfg.engine = EngineKind::Sparse;
  p.cfg.pattern = TrafficPattern::Uniform;
  p.cfg.routerDecisionTime = 0;
  p.cfg.reinjectDelay = 0;
  p.cfg.livelockThreshold = 96;
  p.cfg.deadlockWindow = 20'000;
  return p;
}

// fig6 family across the saturation knee: fixed-duration runs, no faults.
std::vector<SweepPoint> buildKnee(std::uint64_t seed) {
  constexpr std::uint64_t kCycles = 6'000;
  std::uint64_t state = seed ^ 0x16A2'0000'0000ULL;
  std::vector<SweepPoint> points;
  for (const RoutingMode mode : {RoutingMode::Deterministic, RoutingMode::Adaptive}) {
    for (int i = 0; i <= 6; ++i) {
      SweepPoint p = basePoint(state);
      SimConfig& c = p.cfg;
      c.radix = 16;
      c.dims = 2;
      c.vcs = 6;
      c.escapeVcs = 2;
      c.bufferDepth = 4;
      c.messageLength = 32;
      c.injectionRate = 0.006 + 0.001 * i;
      c.routing = mode;
      c.warmupMessages = 0;
      c.measuredMessages = ~std::uint32_t{0};
      c.maxCycles = kCycles;
      char label[48];
      std::snprintf(label, sizeof label, "%s/l%.4f", modeTag(mode), c.injectionRate);
      p.label = label;
      points.push_back(std::move(p));
    }
  }
  return points;
}

// fig7 topology under a storm of random node faults with short messages:
// runs bounded by message count.
std::vector<SweepPoint> buildFaultstorm(std::uint64_t seed) {
  std::uint64_t state = seed ^ 0x8A53'0000'0000ULL;
  std::vector<SweepPoint> points;
  for (const RoutingMode mode : {RoutingMode::Deterministic, RoutingMode::Adaptive}) {
    for (const int nf : {45, 51, 58, 64, 71, 77, 84, 90}) {
      SweepPoint p = basePoint(state);
      SimConfig& c = p.cfg;
      c.radix = 8;
      c.dims = 3;
      c.vcs = 10;
      c.escapeVcs = 2;
      c.bufferDepth = 4;
      c.messageLength = 4;
      c.injectionRate = 0.03;
      c.routing = mode;
      c.faults.randomNodes = nf;
      c.warmupMessages = 1'000;
      c.measuredMessages = 25'000;
      c.maxCycles = 200'000;
      char label[48];
      std::snprintf(label, sizeof label, "%s/nf%d", modeTag(mode), nf);
      p.label = label;
      points.push_back(std::move(p));
    }
  }
  return points;
}

// A large, nearly idle torus: set-up and per-cycle O(nodes) costs dominate.
std::vector<SweepPoint> buildSparse(std::uint64_t seed) {
  std::uint64_t state = seed ^ 0x32A3'0000'0000ULL;
  std::vector<SweepPoint> points;
  for (const RoutingMode mode : {RoutingMode::Deterministic, RoutingMode::Adaptive}) {
    for (const int nf : {0, 60, 120, 180, 240, 300}) {
      SweepPoint p = basePoint(state);
      SimConfig& c = p.cfg;
      c.radix = 32;
      c.dims = 3;
      c.vcs = 4;
      c.escapeVcs = 2;
      c.bufferDepth = 4;
      c.messageLength = 16;
      c.injectionRate = 5e-5;
      c.routing = mode;
      c.faults.randomNodes = nf;
      c.warmupMessages = 200;
      c.measuredMessages = 2'000;
      c.maxCycles = 100'000;
      char label[48];
      std::snprintf(label, sizeof label, "%s/nf%d", modeTag(mode), nf);
      p.label = label;
      points.push_back(std::move(p));
    }
  }
  return points;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"knee_16ary2", buildKnee, 13, 3'000},
      {"faultstorm_8ary3", buildFaultstorm, 15, 3'000},
      {"sparse_32ary3", buildSparse, 11, 400},
  };
  return all;
}

const Workload& findWorkload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------------------
// Output checks. A point fails when the deadlock watchdog fired, when it
// delivered nothing, when its digest differs from the first time this process
// saw the point, or when it differs from the pinned digest for this
// (workload, seed, semantics version). `saturated` is deliberately not a
// failure: fixed-duration runs set it even below saturation.
// ---------------------------------------------------------------------------

// Pinned digests of one (workload, seed, semantics version), by grid index;
// empty when that combination is not pinned.
using Pinned = std::map<std::size_t, std::uint64_t>;

Pinned loadPinned(const std::string& path, const std::string& workload,
                  std::uint64_t seed) {
  Pinned pinned;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string w, label, hex;
    std::uint64_t s = 0, index = 0;
    std::uint32_t version = 0;
    if (!(ls >> w >> s >> version >> index >> label >> hex)) {
      throw std::runtime_error("malformed pinned digest line: " + line);
    }
    if (w != workload || s != seed || version != kEngineSemanticsVersion) continue;
    pinned[index] = std::stoull(hex, nullptr, 16);
  }
  return pinned;
}

class Checker {
 public:
  explicit Checker(Pinned pinned) : pinned_(std::move(pinned)) {}

  void checkRow(std::size_t index, const SweepRow& row, const char* stage) {
    ++attempted_;
    const std::uint64_t d = resultDigest(row.result);
    std::string why;
    if (row.result.deadlockSuspected) why = "deadlock watchdog fired";
    if (row.result.deliveredTotal == 0) why = "delivered nothing";
    auto [it, first] = seen_.emplace(index, d);
    if (!first && it->second != d) why = "digest differs between repetitions";
    if (!pinned_.empty()) {
      const auto p = pinned_.find(index);
      if (p == pinned_.end() || p->second != d) why = "digest differs from pinned";
    }
    if (!why.empty()) fail(std::string(stage) + " " + row.point.label + ": " + why);
  }
  void checkRows(const std::vector<SweepRow>& rows, const char* stage) {
    for (std::size_t i = 0; i < rows.size(); ++i) checkRow(i, rows[i], stage);
  }
  // One extra comparison outside the grid (oracle, stepping API).
  void checkEqual(bool equal, const std::string& what) {
    ++attempted_;
    if (!equal) fail(what);
  }

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] bool pinnedPresent() const noexcept { return !pinned_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  void fail(std::string why) {
    ++failed_;
    std::cerr << "e2ebench: FAIL " << why << "\n";
    if (failures_.size() < 20) failures_.push_back(std::move(why));
  }

  Pinned pinned_;
  std::map<std::size_t, std::uint64_t> seen_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent, point id (the workload is one per file),
// plus the number of calls a span covers so batched timings give per-call
// costs. Kept in memory; written as JSON lines when the run ends.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  int parent = -1;
  int point = -1;
  std::uint64_t items = 1;
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  int begin(std::string name, int parent, int point = -1) {
    spans_.push_back({std::move(name), ns(Clock::now()), 0, parent, point, 1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id, std::uint64_t items = 1) {
    spans_[static_cast<std::size_t>(id)].endNs = ns(Clock::now());
    spans_[static_cast<std::size_t>(id)].items = items;
  }
  // A span whose endpoints were stamped elsewhere (pool workers).
  void add(std::string name, int parent, int point, Clock::time_point start,
           Clock::time_point stop) {
    spans_.push_back({std::move(name), ns(start), ns(stop), parent, point, 1});
  }

  [[nodiscard]] double seconds(const std::string& name) const {
    std::int64_t total = 0;
    for (const Span& s : spans_) {
      if (s.name == name) total += s.endNs - s.startNs;
    }
    return 1e-9 * static_cast<double>(total);
  }
  [[nodiscard]] std::uint64_t items(const std::string& name) const {
    std::uint64_t total = 0;
    for (const Span& s : spans_) {
      if (s.name == name) total += s.items;
    }
    return total;
  }
  // Mean seconds per call over every span of `name`; 0 when none were made.
  [[nodiscard]] double perItem(const std::string& name) const {
    const std::uint64_t n = items(name);
    return n == 0 ? 0.0 : seconds(name) / static_cast<double>(n);
  }
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(1e-9 * static_cast<double>(s.endNs - s.startNs));
    }
    return out;
  }

  void writeJsonLines(const std::string& path, const std::string& workload) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.startNs
          << ",\"end_ns\":" << s.endNs << ",\"parent\":" << s.parent
          << ",\"workload\":\"" << workload << "\",\"point\":" << s.point
          << ",\"items\":" << s.items << "}\n";
    }
  }

  // Per-name total and self time. A span's self time is its duration minus
  // the union of its children's intervals (pool children overlap).
  [[nodiscard]] std::string selfTimeTable() const {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].push_back({s.startNs, s.endNs});
    }
    struct Row {
      std::uint64_t count = 0;
      std::int64_t total = 0;
      std::int64_t self = 0;
    };
    std::map<std::string, Row> rows;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      std::int64_t covered = 0;
      std::int64_t lo = s.startNs;
      for (const auto& [a, b] : iv) {
        const std::int64_t from = std::max(a, lo);
        const std::int64_t to = std::min(b, s.endNs);
        if (to > from) {
          covered += to - from;
          lo = to;
        }
      }
      Row& r = rows[s.name];
      r.count += 1;
      r.total += s.endNs - s.startNs;
      r.self += s.endNs - s.startNs - covered;
    }
    std::ostringstream os;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%-28s %8s %12s %12s\n", "span", "count", "total_ms",
                  "self_ms");
    os << buf;
    for (const auto& [name, r] : rows) {
      std::snprintf(buf, sizeof buf, "%-28s %8llu %12.3f %12.3f\n", name.c_str(),
                    static_cast<unsigned long long>(r.count), 1e-6 * static_cast<double>(r.total),
                    1e-6 * static_cast<double>(r.self));
      os << buf;
    }
    return os.str();
  }

 private:
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// RAII span for single-threaded code.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::string name, int parent, int point = -1)
      : t_(t), id_(t.begin(std::move(name), parent, point)) {}
  ~ScopedSpan() { t_.end(id_, items_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void setItems(std::uint64_t n) noexcept { items_ = n; }
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer& t_;
  int id_;
  std::uint64_t items_ = 1;
};

// ---------------------------------------------------------------------------
// Report (one JSON object; run.py reads it).
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string compilerString() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

// The ISA the compiler targets, from its predefined macros. Read here rather
// than from src/util/simd.hpp so the benchmark outlives that header.
const char* targetIsa() {
#if defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#elif defined(__SSE2__) || defined(__x86_64__)
  return "sse2";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "generic";
#endif
}

void writeReport(const std::string& path, const Workload& w, std::uint64_t seed,
                 const Checker& checker, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\":" << jsonString(w.name) << ",\"seed\":" << seed
     << ",\"attempted\":" << checker.attempted() << ",\"failed\":" << checker.failed()
     << ",\"pinned\":" << (checker.pinnedPresent() ? "true" : "false")
     << ",\"failures\":[";
  for (std::size_t i = 0; i < checker.failures().size(); ++i) {
    os << (i ? "," : "") << jsonString(checker.failures()[i]);
  }
  os << "],\"meta\":{\"nproc\":" << std::max(1u, std::thread::hardware_concurrency())
     << ",\"compiler\":" << jsonString(compilerString())
     << ",\"simd_isa\":" << jsonString(targetIsa())
     << ",\"engine_semantics_version\":" << kEngineSemanticsVersion << "},\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? "," : "") << jsonString(metrics[i].name) << ":{\"value\":"
       << metrics[i].value << ",\"unit\":" << jsonString(metrics[i].unit) << "}";
  }
  os << "}}\n";
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write report " + path);
  out << os.str();
}

// ---------------------------------------------------------------------------
// Modes.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string mode = "grid";
  std::string scratch;
  std::string report;
  std::string spans;
  std::string pinned;
};

unsigned poolThreads() { return std::max(1u, std::thread::hardware_concurrency()); }

// Fresh, empty directory under the scratch root.
std::string freshDir(const std::string& scratch, const std::string& name) {
  const std::filesystem::path p = std::filesystem::path(scratch) / name;
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p);
  return p.string();
}

std::uint64_t flitsDelivered(const std::vector<SweepRow>& rows) {
  std::uint64_t flits = 0;
  for (const SweepRow& r : rows) {
    flits += r.result.deliveredTotal * static_cast<std::uint64_t>(r.point.cfg.messageLength);
  }
  return flits;
}

// One thread builds every point's Network (topology, faults, software-layer
// tables, arena) without running a cycle; returns the summed constructor time.
double setupOnce(const std::vector<SweepPoint>& points) {
  double total = 0.0;
  for (const SweepPoint& p : points) {
    const auto t0 = Clock::now();
    Network net(p.cfg);
    total += secondsBetween(t0, Clock::now());
    keep(net.now());
  }
  return total;
}

void runGridMode(const Args& a, const Workload& w, Checker& checker,
                 std::vector<Metric>& metrics) {
  const std::vector<SweepPoint> points = w.build(a.seed);
  const auto start = Clock::now();
  const ExperimentSpec spec{
      .name = w.name,
      .description = "e2ebench workload grid",
      .build = [&points] { return points; },
      .columns = {"latency", "throughput", "queued"},
      .epilogue = {},
  };
  std::ostream quiet(nullptr);
  std::vector<double> wall, cpu, nsPerFlit;
  double lastWall = 0.0;
  std::uint64_t cycles = 0, flits = 0;
  // Set-up repetitions are interleaved with the grid repetitions, taking
  // about 15% of the time, so both sample the same stretch of machine load.
  std::vector<double> setup;
  double setupSpent = 0.0, gridSpent = 0.0;
  for (int rep = 0;; ++rep) {
    const double elapsed = secondsBetween(start, Clock::now());
    if (rep >= 3 && elapsed + lastWall > a.seconds) break;
    do {
      const auto s0 = Clock::now();
      setup.push_back(setupOnce(points));
      setupSpent += secondsBetween(s0, Clock::now());
    } while (setupSpent < 0.15 * (setupSpent + gridSpent + lastWall));
    RunOptions opt;
    opt.threads = static_cast<int>(poolThreads());
    opt.format = OutputFormat::Csv;
    opt.outDir = freshDir(a.scratch, "out");
    opt.writeArtifact = true;
    opt.progress = false;
    opt.useCache = true;
    opt.cacheDir = freshDir(a.scratch, "cache");
    const double c0 = cpuSeconds();
    const auto t0 = Clock::now();
    const ExperimentRun run = runExperiment(spec, opt, quiet);
    lastWall = secondsBetween(t0, Clock::now());
    gridSpent += lastWall;
    const double c1 = cpuSeconds();
    checker.checkRows(run.rows, "grid");
    cycles = 0;
    for (const SweepRow& r : run.rows) cycles += r.result.cycles;
    flits = flitsDelivered(run.rows);
    checker.checkEqual(run.cache.hits == 0 && run.cache.misses == points.size(),
                       "grid: cold cache served hits");
    wall.push_back(lastWall);
    cpu.push_back(c1 - c0);
    nsPerFlit.push_back(1e9 * (c1 - c0) / static_cast<double>(std::max<std::uint64_t>(1, flits)));
  }
  std::cerr << "e2ebench: " << w.name << " " << setup.size() << " set-up reps, " << wall.size()
            << " grid reps of " << points.size() << " points (" << cycles << " cycles, " << flits
            << " flits); wall/cpu s per rep:";
  for (std::size_t i = 0; i < wall.size(); ++i) std::cerr << " " << wall[i] << "/" << cpu[i];
  std::cerr << "\n";
  metrics.push_back({"grid_wall_s", median(wall), "s"});
  metrics.push_back({"grid_cpu_s", median(cpu), "s"});
  metrics.push_back({"cpu_ns_per_flit", median(nsPerFlit), "ns"});
  metrics.push_back({"setup_s", median(setup), "s"});
  metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
}

void runOracleMode(const Args& a, const Workload& w, Checker& checker) {
  const std::vector<SweepPoint> points = w.build(a.seed);
  const SweepPoint& p = points.at(w.oraclePoint);
  SimConfig sparse = p.cfg;
  sparse.engine = EngineKind::Sparse;
  SimConfig dense = p.cfg;
  dense.engine = EngineKind::Dense;
  Network ns(sparse);
  Network nd(dense);
  ns.step(w.oracleCycles);
  nd.step(w.oracleCycles);
  const SimResult rs = ns.snapshot();
  checker.checkEqual(serializeResult(rs) == serializeResult(nd.snapshot()),
                     "oracle " + p.label + ": sparse and dense differ after " +
                         std::to_string(w.oracleCycles) + " cycles");
  checker.checkEqual(rs.deliveredTotal > 0 && !rs.deadlockSuspected,
                     "oracle " + p.label + ": prefix delivered nothing or deadlocked");
}

void runDigestsMode(const Args& a, const Workload& w) {
  const std::vector<SweepRow> rows = runSweep(w.build(a.seed), static_cast<int>(poolThreads()));
  std::cout << "# " << w.name << " seed " << a.seed << "\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::cout << w.name << " " << a.seed << " " << kEngineSemanticsVersion << " " << i << " "
              << rows[i].point.label << " " << hex16(resultDigest(rows[i].result)) << "\n";
  }
}

// Grid through runSweep with per-point spans: onDone runs on the worker that
// finished the point (serialised by the pool), and each worker starts its
// next point right after, so consecutive stamps per worker bound each point.
struct PoolRun {
  std::vector<SweepRow> rows;
  double wall = 0.0;
  std::vector<double> pointSeconds;  // traced runs only, completion order
};

PoolRun pooledGrid(std::vector<SweepPoint> points, Tracer* tracer, int parent) {
  std::map<std::thread::id, Clock::time_point> lastStamp;
  std::map<std::string, int> indexOf;
  for (std::size_t i = 0; i < points.size(); ++i) indexOf[points[i].label] = static_cast<int>(i);
  const auto t0 = Clock::now();
  PoolRun run;
  run.rows = runSweep(std::move(points), static_cast<int>(poolThreads()),
                      [&](const SweepRow& row) {
                        if (tracer == nullptr) return;
                        const auto now = Clock::now();
                        auto [it, first] = lastStamp.emplace(std::this_thread::get_id(), t0);
                        tracer->add("harness.point", parent, indexOf[row.point.label],
                                    it->second, now);
                        run.pointSeconds.push_back(secondsBetween(it->second, now));
                        it->second = now;
                      });
  run.wall = secondsBetween(t0, Clock::now());
  return run;
}

// Host seconds of stepping `cfg` for exactly `cycles` cycles in chunks; the
// final snapshot equals Network::run()'s result for the same config.
struct Stepped {
  double seconds = 0.0;
  PhaseBreakdown phases;
  std::uint64_t digest = 0;
};

Stepped stepPoint(SimConfig cfg, std::uint64_t cycles, bool timers, Tracer& tr, int parent,
                  int point) {
  constexpr std::uint64_t kChunk = 500;
  cfg.phaseTimers = timers;
  Network net(cfg);
  Stepped out;
  const char* name = timers ? "sim.step_timers" : "sim.step";
  while (net.now() < cycles && !net.deadlockSuspected()) {
    const std::uint64_t n = std::min(kChunk, cycles - net.now());
    const int id = tr.begin(name, parent, point);
    const auto t0 = Clock::now();
    net.step(n);
    out.seconds += secondsBetween(t0, Clock::now());
    tr.end(id, n);
  }
  for (const PhaseBreakdown& s : net.phaseShards()) out.phases += s;
  out.digest = resultDigest(net.snapshot());
  return out;
}

// Fixed sample of (message, node) pairs for the routing functions.
struct RouteSample {
  Message msg;
  NodeId at = kInvalidNode;
};

std::vector<RouteSample> sampleRoutes(const FaultSet& faults, RoutingMode mode,
                                      std::uint64_t seed, std::size_t count) {
  const std::vector<NodeId> healthy = faults.healthyNodes();
  Rng rng(seed);
  std::vector<RouteSample> out;
  out.reserve(count);
  const auto pick = [&] { return healthy[rng.uniform(static_cast<std::uint32_t>(healthy.size()))]; };
  while (out.size() < count) {
    RouteSample s;
    s.msg.src = pick();
    s.msg.finalDest = pick();
    s.at = pick();
    if (s.msg.finalDest == s.at || s.msg.finalDest == s.msg.src) continue;
    s.msg.curTarget = s.msg.finalDest;
    s.msg.mode = mode;
    out.push_back(s);
  }
  return out;
}

std::uint64_t decisionSum(const RouteDecision& d) {
  return static_cast<std::uint64_t>(d.kind) * 31 + d.candidates.size();
}

// Per-module timings on one point's inputs, each span a child of `parent`.
void traceModules(const SweepPoint& p, int point, Tracer& tr, int parent) {
  constexpr int kBuildReps = 3;
  constexpr std::size_t kRouteSamples = 4'000;
  const SimConfig& c = p.cfg;
  for (int rep = 0; rep < kBuildReps; ++rep) {
    {
      ScopedSpan s(tr, "topology.build", parent, point);
      TorusTopology topo(c.radix, c.dims);
      keep(static_cast<std::uint64_t>(topo.nodeCount()));
    }
    const TorusTopology topo(c.radix, c.dims);
    std::unique_ptr<FaultSet> faults;
    {
      ScopedSpan s(tr, "fault.build", parent, point);
      faults = std::make_unique<FaultSet>(topo);
      Rng rng(c.seed);
      applyRandomNodeFaults(*faults, c.faults.randomNodes, rng);
    }
    {
      ScopedSpan s(tr, "routing.swlayer_build", parent, point);
      SoftwareLayer sw(topo, *faults, c.livelockThreshold);
      keep(sw.tables(0).healthyLinkMask);
    }
    {
      ScopedSpan s(tr, "sim.setup", parent, point);
      Network net(c);
      keep(net.now());
    }
  }

  Network net(c);
  const TorusTopology& topo = net.topology();
  const FaultSet& faults = net.faults();
  const std::uint64_t sampleSeed = c.seed ^ 0x5A3B1EULL;

  const VcPartition detPart(RoutingMode::Deterministic, c.vcs, c.escapeVcs);
  const EcubeRouting ecube(topo);
  std::vector<RouteSample> det = sampleRoutes(faults, RoutingMode::Deterministic, sampleSeed,
                                              kRouteSamples);
  {
    ScopedSpan s(tr, "routing.ecube_route", parent, point);
    std::uint64_t sum = 0;
    for (const RouteSample& r : det) sum += decisionSum(ecube.route(r.msg, r.at, faults, detPart));
    keep(sum);
    s.setItems(det.size());
  }

  const VcPartition adpPart(RoutingMode::Adaptive, c.vcs, c.escapeVcs);
  const DuatoRouting duato(topo);
  const std::vector<RouteSample> adp =
      sampleRoutes(faults, RoutingMode::Adaptive, sampleSeed + 1, kRouteSamples);
  {
    ScopedSpan s(tr, "routing.duato_route", parent, point);
    std::uint64_t sum = 0;
    for (const RouteSample& r : adp) sum += decisionSum(duato.route(r.msg, r.at, faults, adpPart));
    keep(sum);
    s.setItems(adp.size());
  }

  // planReroute on exactly the messages the e-cube function absorbs, with
  // the blocked hop recorded as the engine records it before ejection.
  std::vector<RouteSample> absorbed;
  for (RouteSample r : det) {
    const RouteDecision d = ecube.route(r.msg, r.at, faults, detPart);
    if (d.kind != RouteDecision::Kind::Absorb) continue;
    r.msg.blockedValid = true;
    r.msg.blockedDim = d.blockedDim;
    r.msg.blockedDirStep = d.blockedDirStep;
    absorbed.push_back(r);
  }
  if (!absorbed.empty()) {
    SoftwareLayer sw(topo, faults, c.livelockThreshold);
    Rng rng(sampleSeed + 2);
    std::vector<RouteSample> work = absorbed;
    ScopedSpan s(tr, "routing.reroute", parent, point);
    std::uint64_t sum = 0;
    for (RouteSample& r : work) {
      sw.planReroute(r.msg, r.at, rng);
      sum += r.msg.curTarget;
    }
    keep(sum);
    s.setItems(work.size());
  }

  const TrafficGenerator traffic(c.pattern, faults, c.hotspotFraction);
  {
    Rng rng(sampleSeed + 3);
    ScopedSpan s(tr, "traffic.pick", parent, point);
    std::uint64_t sum = 0;
    for (const RouteSample& r : det) sum += traffic.pickDestination(r.msg.src, rng);
    keep(sum);
    s.setItems(det.size());
  }
}

void runTraceMode(const Args& a, const Workload& w, Checker& checker,
                  std::vector<Metric>& metrics, Tracer& tr) {
  const auto start = Clock::now();
  const std::vector<SweepPoint> points = w.build(a.seed);
  const int root = tr.begin("workload", -1);

  // The same grid untraced and traced (phase timers on, per-point spans), in
  // alternating order, for half the time budget (at least one pair); the
  // wall-time ratio is the tracing overhead of the pool run.
  std::vector<SweepPoint> timed = points;
  for (SweepPoint& p : timed) p.cfg.phaseTimers = true;
  std::vector<double> overhead, pointMax, busy;
  PoolRun traced;
  for (int rep = 0; rep == 0 || secondsBetween(start, Clock::now()) < 0.5 * a.seconds; ++rep) {
    PoolRun plain;
    if (rep % 2 == 1) plain = pooledGrid(points, nullptr, -1);
    const int gridSpan = tr.begin("harness.grid", root);
    traced = pooledGrid(timed, &tr, gridSpan);
    tr.end(gridSpan, points.size());
    if (rep % 2 == 0) plain = pooledGrid(points, nullptr, -1);
    checker.checkRows(plain.rows, "trace-untraced");
    checker.checkRows(traced.rows, "trace-traced");
    double sum = 0.0;
    for (const double t : traced.pointSeconds) sum += t;
    const double threads =
        static_cast<double>(std::min<std::size_t>(poolThreads(), points.size()));
    overhead.push_back(traced.wall / plain.wall - 1.0);
    pointMax.push_back(*std::max_element(traced.pointSeconds.begin(), traced.pointSeconds.end()));
    busy.push_back(sum / (traced.wall * threads));
  }

  std::uint64_t delivered = 0, queued = 0, absorbedMsgs = 0;
  for (const SweepRow& r : traced.rows) {
    delivered += r.result.deliveredTotal;
    queued += r.result.messagesQueued;
    absorbedMsgs += r.result.absorbedMessages;
  }

  // Per-module entry points on every point's inputs.
  for (std::size_t i = 0; i < points.size(); ++i) {
    ScopedSpan s(tr, "modules", root, static_cast<int>(i));
    traceModules(points[i], static_cast<int>(i), tr, s.id());
  }

  // Stepping with timers off and on, alternating which goes first, for the
  // rest of the budget (at least two points). Points alternate between the
  // grid's halves, i.e. between the two routing modes.
  std::vector<std::size_t> order;
  const std::size_t half = (points.size() + 1) / 2;
  for (std::size_t i = 0; i < half; ++i) {
    order.push_back(i);
    if (i + half < points.size()) order.push_back(i + half);
  }
  double offSec = 0.0, onSec = 0.0;
  std::uint64_t steppedCycles = 0, steppedFlits = 0;
  PhaseBreakdown phases;
  for (std::size_t k = 0; k < 4 * order.size(); ++k) {
    if (k >= 2 && secondsBetween(start, Clock::now()) > a.seconds) break;
    const std::size_t i = order[k % order.size()];
    const SweepRow& row = traced.rows[i];
    const int pointSpan = tr.begin("sim.point", root, static_cast<int>(i));
    Stepped off, on;
    if (k % 2 == 0) {
      off = stepPoint(points[i].cfg, row.result.cycles, false, tr, pointSpan, static_cast<int>(i));
      on = stepPoint(points[i].cfg, row.result.cycles, true, tr, pointSpan, static_cast<int>(i));
    } else {
      on = stepPoint(points[i].cfg, row.result.cycles, true, tr, pointSpan, static_cast<int>(i));
      off = stepPoint(points[i].cfg, row.result.cycles, false, tr, pointSpan, static_cast<int>(i));
    }
    tr.end(pointSpan);
    const std::uint64_t want = resultDigest(row.result);
    checker.checkEqual(off.digest == want && on.digest == want,
                       "step " + row.point.label + ": stepped snapshot differs from run()");
    offSec += off.seconds;
    onSec += on.seconds;
    phases += on.phases;
    steppedCycles += row.result.cycles;
    steppedFlits += row.result.deliveredTotal * static_cast<std::uint64_t>(row.point.cfg.messageLength);
  }

  // Result cache entry points on this workload's configs, in a fresh store.
  {
    constexpr int kKeyReps = 50;
    constexpr int kStoreReps = 3;
    ResultCache cache(freshDir(a.scratch, "trace-cache"));
    const int cacheSpan = tr.begin("harness.cache", root);
    {
      ScopedSpan s(tr, "harness.cache_key", cacheSpan);
      std::uint64_t sum = 0;
      for (int rep = 0; rep < kKeyReps; ++rep) {
        for (const SweepRow& r : traced.rows) sum += cache.keyFor(r.point.cfg).size();
      }
      keep(sum);
      s.setItems(static_cast<std::uint64_t>(kKeyReps) * traced.rows.size());
    }
    bool stored = true;
    {
      ScopedSpan s(tr, "harness.cache_store", cacheSpan);
      for (int rep = 0; rep < kStoreReps; ++rep) {
        for (const SweepRow& r : traced.rows) stored = cache.store(r.point.cfg, r.result) && stored;
      }
      s.setItems(static_cast<std::uint64_t>(kStoreReps) * traced.rows.size());
    }
    bool hits = true;
    {
      ScopedSpan s(tr, "harness.cache_hit", cacheSpan);
      for (int rep = 0; rep < kStoreReps; ++rep) {
        for (const SweepRow& r : traced.rows) {
          const std::optional<SimResult> hit = cache.lookup(r.point.cfg);
          hits = hits && hit.has_value() &&
                 serializeResult(*hit) == serializeResult(r.result);
        }
      }
      s.setItems(static_cast<std::uint64_t>(kStoreReps) * traced.rows.size());
    }
    tr.end(cacheSpan);
    checker.checkEqual(stored && hits, "cache: stored results did not replay exactly");
  }
  tr.end(root);

  const double phaseSum =
      phases.sec[PhaseBreakdown::kGen] + phases.sec[PhaseBreakdown::kInj] +
      phases.sec[PhaseBreakdown::kWalk];
  const auto share = [&](int p) { return phaseSum > 0 ? phases.sec[p] / phaseSum : 0.0; };
  const double dDelivered = static_cast<double>(std::max<std::uint64_t>(1, delivered));

  metrics.push_back({"sim.setup_ms", 1e3 * tr.perItem("sim.setup"), "ms"});
  metrics.push_back({"sim.step_ns_per_cycle",
                     1e9 * offSec / static_cast<double>(std::max<std::uint64_t>(1, steppedCycles)),
                     "ns"});
  metrics.push_back({"sim.ns_per_flit",
                     1e9 * offSec / static_cast<double>(std::max<std::uint64_t>(1, steppedFlits)),
                     "ns"});
  metrics.push_back({"sim.gen_frac", share(PhaseBreakdown::kGen), "ratio"});
  metrics.push_back({"sim.inj_frac", share(PhaseBreakdown::kInj), "ratio"});
  metrics.push_back({"sim.walk_frac", share(PhaseBreakdown::kWalk), "ratio"});
  metrics.push_back({"sim.phase_timer_overhead", offSec > 0 ? onSec / offSec - 1.0 : 0.0, "ratio"});
  metrics.push_back({"routing.ecube_route_ns", 1e9 * tr.perItem("routing.ecube_route"), "ns"});
  metrics.push_back({"routing.duato_route_ns", 1e9 * tr.perItem("routing.duato_route"), "ns"});
  metrics.push_back({"routing.reroute_ns", 1e9 * tr.perItem("routing.reroute"), "ns"});
  metrics.push_back({"routing.swlayer_build_ms", 1e3 * tr.perItem("routing.swlayer_build"), "ms"});
  metrics.push_back({"routing.absorb_per_msg", static_cast<double>(queued) / dDelivered, "count"});
  metrics.push_back({"routing.first_pass_frac",
                     1.0 - static_cast<double>(absorbedMsgs) / dDelivered, "ratio"});
  metrics.push_back({"fault.build_ms", 1e3 * tr.perItem("fault.build"), "ms"});
  metrics.push_back({"topology.build_ms", 1e3 * tr.perItem("topology.build"), "ms"});
  metrics.push_back({"traffic.pick_ns", 1e9 * tr.perItem("traffic.pick"), "ns"});
  metrics.push_back({"harness.point_s_p50", median(tr.durations("harness.point")), "s"});
  metrics.push_back({"harness.point_s_max", median(pointMax), "s"});
  metrics.push_back({"harness.pool_busy_frac", median(busy), "ratio"});
  metrics.push_back({"harness.cache_key_us", 1e6 * tr.perItem("harness.cache_key"), "us"});
  metrics.push_back({"harness.cache_store_us", 1e6 * tr.perItem("harness.cache_store"), "us"});
  metrics.push_back({"harness.cache_hit_us", 1e6 * tr.perItem("harness.cache_hit"), "us"});
  metrics.push_back({"trace.overhead_frac", median(overhead), "ratio"});

  std::cerr << "e2ebench: " << w.name << " per-layer spans (stepped " << steppedCycles
            << " cycles on both sides)\n"
            << tr.selfTimeTable();
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--mode") a.mode = val;
    else if (key == "--scratch") a.scratch = val;
    else if (key == "--report") a.report = val;
    else if (key == "--spans") a.spans = val;
    else if (key == "--pinned") a.pinned = val;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parseArgs(argc, argv);
    const Workload& w = findWorkload(a.workload);
    if (a.mode == "digests") {
      runDigestsMode(a, w);
      return 0;
    }
    if (a.report.empty() || a.scratch.empty()) {
      throw std::invalid_argument("--report and --scratch are required");
    }
    Checker checker(a.pinned.empty() || a.mode == "oracle" ? Pinned{}
                                                           : loadPinned(a.pinned, w.name, a.seed));
    std::vector<Metric> metrics;
    if (a.mode == "grid") {
      runGridMode(a, w, checker, metrics);
    } else if (a.mode == "oracle") {
      runOracleMode(a, w, checker);
    } else if (a.mode == "trace") {
      Tracer tracer;
      runTraceMode(a, w, checker, metrics, tracer);
      if (!a.spans.empty()) tracer.writeJsonLines(a.spans, w.name);
    } else {
      throw std::invalid_argument("unknown --mode " + a.mode);
    }
    writeReport(a.report, w, a.seed, checker, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 1;
  }
}
