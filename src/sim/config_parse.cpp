#include "src/sim/config_parse.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "src/router/flit.hpp"
#include "src/routing/vc_partition.hpp"

namespace swft {

namespace {

[[noreturn]] void fail(const std::string& what) { throw std::invalid_argument(what); }

/// Parse `value` straight into the field's type T: a value T cannot hold
/// (too large, or negative for an unsigned field) is refused with the key
/// named, never narrowed or wrapped.
template <class T>
void parseInt(const std::string& key, const std::string& value, T& field) {
  T out{};
  const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    fail("config: '" + key + "' expects an integer in " +
         std::to_string(std::numeric_limits<T>::min()) + ".." +
         std::to_string(std::numeric_limits<T>::max()) + ", got '" + value + "'");
  }
  field = out;
}

double parseDouble(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const double out = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return out;
  } catch (const std::exception&) {
    fail("config: '" + key + "' expects a number, got '" + value + "'");
  }
}

RegionShape parseShape(const std::string& name) {
  if (name == "I") return RegionShape::I;
  if (name == "II") return RegionShape::II;
  if (name == "rect") return RegionShape::Rect;
  if (name == "L") return RegionShape::L;
  if (name == "U") return RegionShape::U;
  if (name == "plus") return RegionShape::Plus;
  if (name == "T") return RegionShape::T;
  if (name == "H") return RegionShape::H;
  fail("config: unknown region shape '" + name + "'");
}

/// region value syntax: shape:E0xE1[@x,y], e.g. "U:4x3@2,2" or "rect:3x3".
RegionSpec parseRegion(const SimConfig& cfg, const std::string& value) {
  const auto colon = value.find(':');
  if (colon == std::string::npos) fail("config: region needs 'shape:E0xE1[@x,y]'");
  RegionSpec spec;
  spec.shape = parseShape(value.substr(0, colon));
  std::string rest = value.substr(colon + 1);
  std::string anchorPart;
  if (const auto at = rest.find('@'); at != std::string::npos) {
    anchorPart = rest.substr(at + 1);
    rest = rest.substr(0, at);
  }
  const auto x = rest.find('x');
  if (x == std::string::npos) fail("config: region extents need 'E0xE1'");
  parseInt("region", rest.substr(0, x), spec.extent0);
  parseInt("region", rest.substr(x + 1), spec.extent1);
  spec.anchor.digit.resize(static_cast<std::size_t>(cfg.dims));
  for (int d = 0; d < cfg.dims; ++d) spec.anchor[d] = static_cast<std::int16_t>(1);
  if (!anchorPart.empty()) {
    std::stringstream ss(anchorPart);
    std::string digit;
    int d = 0;
    while (std::getline(ss, digit, ',') && d < cfg.dims) {
      parseInt("region anchor", digit, spec.anchor[d++]);
    }
  }
  return spec;
}

}  // namespace

void applyConfigAssignment(SimConfig& cfg, const std::string& assignment) {
  const auto eq = assignment.find('=');
  if (eq == std::string::npos) {
    fail("config: expected key=value, got '" + assignment + "'");
  }
  const std::string key = assignment.substr(0, eq);
  const std::string value = assignment.substr(eq + 1);

  if (key == "k") {
    parseInt(key, value, cfg.radix);
  } else if (key == "n") {
    parseInt(key, value, cfg.dims);
  } else if (key == "vcs") {
    parseInt(key, value, cfg.vcs);
  } else if (key == "escape_vcs") {
    parseInt(key, value, cfg.escapeVcs);
  } else if (key == "buffer_depth") {
    parseInt(key, value, cfg.bufferDepth);
  } else if (key == "msg_length") {
    parseInt(key, value, cfg.messageLength);
  } else if (key == "rate") {
    cfg.injectionRate = parseDouble(key, value);
  } else if (key == "delta") {
    parseInt(key, value, cfg.reinjectDelay);
  } else if (key == "td") {
    parseInt(key, value, cfg.routerDecisionTime);
  } else if (key == "nf") {
    parseInt(key, value, cfg.faults.randomNodes);
  } else if (key == "warmup") {
    parseInt(key, value, cfg.warmupMessages);
  } else if (key == "measured") {
    parseInt(key, value, cfg.measuredMessages);
  } else if (key == "max_cycles") {
    parseInt(key, value, cfg.maxCycles);
  } else if (key == "seed") {
    parseInt(key, value, cfg.seed);
  } else if (key == "livelock_threshold") {
    parseInt(key, value, cfg.livelockThreshold);
  } else if (key == "routing") {
    if (value == "det" || value == "deterministic") {
      cfg.routing = RoutingMode::Deterministic;
    } else if (value == "adaptive" || value == "adp") {
      cfg.routing = RoutingMode::Adaptive;
    } else {
      fail("config: routing must be det|adaptive, got '" + value + "'");
    }
  } else if (key == "traffic" || key == "pattern") {  // `pattern` is the legacy key
    const std::optional<TrafficPattern> p = parseTrafficPattern(value);
    if (!p) fail("config: unknown traffic pattern '" + value + "'");
    cfg.pattern = *p;
  } else if (key == "hotspot_fraction") {
    cfg.hotspotFraction = parseDouble(key, value);
  } else if (key == "engine") {
    if (value == "sparse") {
      cfg.engine = EngineKind::Sparse;
    } else if (value == "dense") {
      cfg.engine = EngineKind::Dense;
    } else {
      fail("config: engine must be sparse|dense, got '" + value + "'");
    }
  } else if (key == "phase_timers") {
    int on = 0;
    parseInt(key, value, on);
    cfg.phaseTimers = on != 0;
  } else if (key == "region") {
    cfg.faults.regions.push_back(parseRegion(cfg, value));
  } else {
    fail("config: unknown key '" + key + "'");
  }
}

SimConfig parseConfig(std::span<const std::string> assignments, const SimConfig& defaults) {
  SimConfig cfg = defaults;
  for (const std::string& a : assignments) applyConfigAssignment(cfg, a);
  return cfg;
}

void validate(const SimConfig& cfg) {
  // Router shape: the same ranges VcPartition and RouterArena enforce, named
  // by key here so bad input is refused before any construction.
  if (cfg.vcs < 2 || cfg.vcs > kMaxVcs) {
    fail("config: vcs must be in 2.." + std::to_string(kMaxVcs) + ", got " +
         std::to_string(cfg.vcs));
  }
  if (cfg.routing == RoutingMode::Adaptive &&
      (cfg.escapeVcs < 2 || cfg.escapeVcs > cfg.vcs || cfg.escapeVcs % 2 != 0)) {
    fail("config: escape_vcs must be even and in [2, vcs=" + std::to_string(cfg.vcs) +
         "] under adaptive routing, got " + std::to_string(cfg.escapeVcs));
  }
  if (cfg.bufferDepth < 1 || cfg.bufferDepth > FlitFifo::kMaxDepth) {
    fail("config: buffer_depth must be in 1.." + std::to_string(FlitFifo::kMaxDepth) +
         ", got " + std::to_string(cfg.bufferDepth));
  }
  if (cfg.messageLength < 1 || cfg.messageLength > kMaxMessageLength) {
    fail("config: msg_length must be in 1.." + std::to_string(kMaxMessageLength) +
         ", got " + std::to_string(cfg.messageLength));
  }
  if (!std::isfinite(cfg.injectionRate) || cfg.injectionRate < 0.0 ||
      cfg.injectionRate > 1.0) {
    std::ostringstream got;
    got << cfg.injectionRate;
    fail("config: rate must be a finite number in [0, 1], got " + got.str());
  }
  if (!(cfg.hotspotFraction >= 0.0 && cfg.hotspotFraction <= 1.0)) {
    std::ostringstream got;
    got << cfg.hotspotFraction;
    fail("config: hotspot_fraction must be in [0, 1], got " + got.str());
  }
  if (cfg.routerDecisionTime < 0) {
    fail("config: td must be >= 0, got " + std::to_string(cfg.routerDecisionTime));
  }
  if (cfg.reinjectDelay < 0) {
    fail("config: delta must be >= 0, got " + std::to_string(cfg.reinjectDelay));
  }
  // A run needs at least one cycle and something to measure; zero would be
  // reported as "saturated" or "completed" without simulating anything.
  if (cfg.maxCycles < 1) fail("config: max_cycles must be >= 1, got 0");
  if (cfg.measuredMessages < 1) fail("config: measured must be >= 1, got 0");
  // At least two nodes must stay healthy. An out-of-range k or n is left to
  // the topology, which names it.
  if (cfg.radix >= 2 && cfg.dims >= 1 && cfg.dims <= kMaxDims) {
    std::int64_t nodes = 1;
    for (int d = 0; d < cfg.dims && nodes <= (std::int64_t{1} << 30); ++d) nodes *= cfg.radix;
    if (cfg.faults.randomNodes < 0 || cfg.faults.randomNodes > nodes - 2) {
      fail("config: nf must be in 0.." + std::to_string(nodes - 2) + " for a " +
           std::to_string(nodes) + "-node torus, got " +
           std::to_string(cfg.faults.randomNodes));
    }
  } else if (cfg.faults.randomNodes < 0) {
    fail("config: nf must be >= 0, got " + std::to_string(cfg.faults.randomNodes));
  }
}

std::string describeConfig(const SimConfig& cfg) {
  std::ostringstream os;
  os << cfg.radix << "-ary " << cfg.dims << "-cube, " << cfg.routingName()
     << " routing, V=" << cfg.vcs << ", M=" << cfg.messageLength
     << ", lambda=" << cfg.injectionRate << ", traffic=" << trafficPatternName(cfg.pattern);
  if (cfg.pattern == TrafficPattern::Hotspot) {
    os << " (fraction " << cfg.hotspotFraction << ")";
  }
  os << ", nf=" << cfg.faults.randomNodes;
  if (!cfg.faults.regions.empty()) {
    os << ", regions=" << cfg.faults.regions.size();
  }
  os << ", Delta=" << cfg.reinjectDelay << ", seed=" << cfg.seed;
  return os.str();
}

}  // namespace swft
