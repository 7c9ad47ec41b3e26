#include "sim/trace.hpp"

#include <algorithm>
#include <sstream>

#include "support/error.hpp"

namespace postal {

Trace::Trace(std::uint64_t n, std::uint32_t messages, TraceMode mode)
    : n_(n), messages_(messages), mode_(mode) {
  POSTAL_REQUIRE(n_ >= 1, "Trace: need at least one processor");
  first_arrival_.resize(n_ * messages_);
}

void Trace::record(const Delivery& d) {
  POSTAL_REQUIRE(d.dst < n_ && d.src < n_, "Trace::record: processor id out of range");
  POSTAL_REQUIRE(d.msg < messages_, "Trace::record: message id out of range");
  if (mode_ == TraceMode::kCounters) {
    ++counters_count_;
    if (d.arrival > counters_makespan_) counters_makespan_ = d.arrival;
  } else {
    deliveries_.push_back(d);
  }
  auto& slot = first_arrival_[d.dst * messages_ + d.msg];
  if (!slot.has_value() || d.arrival < *slot) slot = d.arrival;
}

void Trace::reserve(std::size_t deliveries) {
  if (mode_ == TraceMode::kFull) deliveries_.reserve(deliveries);
}

std::optional<Rational> Trace::arrival(ProcId p, MsgId msg) const {
  POSTAL_REQUIRE(p < n_, "Trace::arrival: processor id out of range");
  POSTAL_REQUIRE(msg < messages_, "Trace::arrival: message id out of range");
  return first_arrival_[p * messages_ + msg];
}

Rational Trace::makespan() const {
  if (mode_ == TraceMode::kCounters) return counters_makespan_;
  Rational latest(0);
  for (const Delivery& d : deliveries_) latest = rmax(latest, d.arrival);
  return latest;
}

std::size_t Trace::replay_extend(std::size_t count) {
  POSTAL_CHECK(mode_ == TraceMode::kFull);
  const std::size_t base = deliveries_.size();
  deliveries_.resize(base + count);
  return base;
}

void Trace::replay_set(std::size_t index, const Delivery& d) {
  deliveries_[index] = d;
  auto& slot = first_arrival_[d.dst * messages_ + d.msg];
  if (!slot.has_value() || d.arrival < *slot) slot = d.arrival;
}

void Trace::counters_note(ProcId dst, MsgId msg, const Rational& arrival) {
  auto& slot = first_arrival_[dst * messages_ + msg];
  if (!slot.has_value() || arrival < *slot) slot = arrival;
}

void Trace::counters_fold(std::uint64_t count, const Rational& max_arrival) {
  POSTAL_CHECK(mode_ == TraceMode::kCounters);
  counters_count_ += count;
  if (max_arrival > counters_makespan_) counters_makespan_ = max_arrival;
}

bool Trace::covers_all(ProcId origin) const { return uncovered(origin).empty(); }

std::vector<ProcId> Trace::uncovered(ProcId origin) const {
  std::vector<ProcId> missing;
  for (ProcId p = 0; p < n_; ++p) {
    if (p == origin) continue;
    for (MsgId msg = 0; msg < messages_; ++msg) {
      if (!first_arrival_[p * messages_ + msg].has_value()) {
        missing.push_back(p);
        break;
      }
    }
  }
  return missing;
}

bool Trace::order_preserving() const { return order_violations().empty(); }

std::vector<std::string> Trace::order_violations() const {
  std::vector<std::string> out;
  for (ProcId p = 0; p < n_; ++p) {
    // First arrivals must be nondecreasing in message id: message i+1 may
    // not be fully received before message i.
    for (MsgId msg = 0; msg + 1 < messages_; ++msg) {
      const auto& a = first_arrival_[p * messages_ + msg];
      const auto& b = first_arrival_[p * messages_ + msg + 1];
      if (a.has_value() && b.has_value() && *b < *a) {
        std::ostringstream oss;
        oss << "p" << p << " received M" << (msg + 2) << " at t=" << *b
            << " before M" << (msg + 1) << " at t=" << *a;
        out.push_back(oss.str());
      }
    }
  }
  return out;
}

}  // namespace postal
