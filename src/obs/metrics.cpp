#include "obs/metrics.hpp"

#include <sstream>

#include "support/error.hpp"

namespace postal::obs {
namespace {

// Metric names are caller-controlled identifiers; escape the few JSON
// specials anyway so a stray quote can never corrupt a snapshot. (The full
// string escaper lives in sim/json.hpp, above this library in the layering.)
std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? '?' : c;
  }
  return out;
}

enum Kind { kCounter = 0, kGauge, kAccum, kTimer };

}  // namespace

void MetricsRegistry::require_unique(const std::string& name, int kind) const {
  const bool clash = (kind != kCounter && counters_.count(name) != 0) ||
                     (kind != kGauge && gauges_.count(name) != 0) ||
                     (kind != kAccum && rationals_.count(name) != 0) ||
                     (kind != kTimer && timers_.count(name) != 0);
  POSTAL_REQUIRE(!clash,
                 "MetricsRegistry: metric '" + name + "' already has another kind");
}

Counter& MetricsRegistry::counter(const std::string& name) {
  require_unique(name, kCounter);
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  require_unique(name, kGauge);
  return gauges_[name];
}

RationalAccum& MetricsRegistry::rational(const std::string& name) {
  require_unique(name, kAccum);
  return rationals_[name];
}

Timer& MetricsRegistry::timer(const std::string& name) {
  require_unique(name, kTimer);
  return timers_[name];
}

std::size_t MetricsRegistry::size() const noexcept {
  return counters_.size() + gauges_.size() + rationals_.size() + timers_.size();
}

std::string MetricsRegistry::to_jsonl() const {
  // Merge the four sorted maps into one name-sorted stream.
  std::map<std::string, std::string> lines;
  for (const auto& [name, c] : counters_) {
    std::ostringstream os;
    os << "{\"metric\":\"" << escape(name) << "\",\"kind\":\"counter\",\"value\":"
       << c.value() << "}";
    lines[name] = os.str();
  }
  for (const auto& [name, g] : gauges_) {
    std::ostringstream os;
    os << "{\"metric\":\"" << escape(name) << "\",\"kind\":\"gauge\",\"value\":"
       << g.value() << ",\"max\":" << g.max() << "}";
    lines[name] = os.str();
  }
  for (const auto& [name, r] : rationals_) {
    std::ostringstream os;
    os << "{\"metric\":\"" << escape(name) << "\",\"kind\":\"rational\",\"value\":\""
       << r.total().str() << "\",\"value_float\":" << r.total().to_double() << "}";
    lines[name] = os.str();
  }
  for (const auto& [name, t] : timers_) {
    std::ostringstream os;
    os << "{\"metric\":\"" << escape(name) << "\",\"kind\":\"timer\",\"ns\":"
       << t.total_ns() << ",\"count\":" << t.count() << ",\"ms\":" << t.total_ms()
       << "}";
    lines[name] = os.str();
  }
  std::string out;
  for (const auto& [name, line] : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace postal::obs
