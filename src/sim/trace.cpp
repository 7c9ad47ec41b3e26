#include "sim/trace.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "support/error.hpp"

namespace postal {

std::ostream& operator<<(std::ostream& os, const Delivery& d) {
  return os << "p" << d.src << "->p" << d.dst << " M" << d.msg << " sent "
            << d.send_start << " arrived " << d.arrival;
}

Delivery DeliveryView::const_iterator::operator*() const {
  return Delivery{at_->src, at_->dst, at_->msg, Rational(at_->send_tick, q_),
                  Rational(at_->arrival_tick, q_)};
}

bool operator==(const DeliveryView& a, const DeliveryView& b) {
  if (a.q_ == b.q_) return *a.records_ == *b.records_;
  if (a.size() != b.size()) return false;
  return std::equal(a.records_->begin(), a.records_->end(), b.records_->begin(),
                    [qa = a.q_, qb = b.q_](const TickDelivery& x, const TickDelivery& y) {
                      return x.src == y.src && x.dst == y.dst && x.msg == y.msg &&
                             same_time(x.send_tick, qa, y.send_tick, qb) &&
                             same_time(x.arrival_tick, qa, y.arrival_tick, qb);
                    });
}

Trace::Trace(std::uint64_t n, std::uint32_t messages, std::int64_t q, TraceMode mode)
    : n_(n), messages_(messages), q_(q), mode_(mode) {
  POSTAL_REQUIRE(n_ >= 1, "Trace: need at least one processor");
  POSTAL_REQUIRE(n_ <= (std::uint64_t{1} << 32),
                 "Trace: more processors than the ProcId range (2^32)");
  POSTAL_REQUIRE(q_ >= 1, "Trace: resolution denominator must be >= 1");
  first_arrival_.assign(arrival_cell(n_, messages_, 0), kNeverArrived);
}

void Trace::record(const TickDelivery& d) {
  POSTAL_REQUIRE(d.dst < n_ && d.src < n_, "Trace::record: processor id out of range");
  POSTAL_REQUIRE(d.msg < messages_, "Trace::record: message id out of range");
  if (mode_ == TraceMode::kCounters) {
    ++counters_count_;
    counters_makespan_ = std::max(counters_makespan_, d.arrival_tick);
  } else {
    records_.push_back(d);
  }
  note(d.dst, d.msg, d.arrival_tick);
}

void Trace::reserve(std::size_t deliveries) {
  if (mode_ == TraceMode::kFull) records_.reserve(deliveries);
}

void Trace::rescale(std::int64_t q) {
  POSTAL_REQUIRE(q >= q_ && q % q_ == 0,
                 "Trace::rescale: the new grid must be a multiple of the old one");
  const Tick k = q / q_;
  const auto scaled = [k](Tick t) {
    Tick out = 0;
    if (__builtin_mul_overflow(t, k, &out) || out == kNeverArrived) {
      throw OverflowError("Trace::rescale: rescaled tick exceeds the tick range");
    }
    return out;
  };
  for (TickDelivery& d : records_) {
    d.send_tick = scaled(d.send_tick);
    d.arrival_tick = scaled(d.arrival_tick);
  }
  for (Tick& cell : first_arrival_) {
    if (cell != kNeverArrived) cell = scaled(cell);
  }
  counters_makespan_ = scaled(counters_makespan_);
  q_ = q;
}

std::optional<Rational> Trace::arrival(ProcId p, MsgId msg) const {
  POSTAL_REQUIRE(p < n_, "Trace::arrival: processor id out of range");
  POSTAL_REQUIRE(msg < messages_, "Trace::arrival: message id out of range");
  const Tick t = first_arrival_[arrival_cell(p, messages_, msg)];
  if (t == kNeverArrived) return std::nullopt;
  return rat(t);
}

Rational Trace::makespan() const {
  if (mode_ == TraceMode::kCounters) return rat(counters_makespan_);
  Tick latest = 0;
  for (const TickDelivery& d : records_) latest = std::max(latest, d.arrival_tick);
  return rat(latest);
}

std::size_t Trace::replay_extend(std::size_t count) {
  POSTAL_CHECK(mode_ == TraceMode::kFull);
  const std::size_t base = records_.size();
  records_.resize(base + count);
  return base;
}

void Trace::replay_set(std::size_t index, const TickDelivery& d) {
  records_[index] = d;
  note(d.dst, d.msg, d.arrival_tick);
}

void Trace::counters_fold(std::uint64_t count, Tick max_arrival) {
  POSTAL_CHECK(mode_ == TraceMode::kCounters);
  counters_count_ += count;
  counters_makespan_ = std::max(counters_makespan_, max_arrival);
}

bool Trace::covers_all(ProcId origin) const { return uncovered(origin).empty(); }

std::vector<ProcId> Trace::uncovered(ProcId origin) const {
  std::vector<ProcId> missing;
  if (messages_ == 0) return missing;
  for (std::uint64_t p = 0; p < n_; ++p) {
    if (p == origin) continue;
    const Tick* row = &first_arrival_[arrival_cell(p, messages_, 0)];
    if (std::find(row, row + messages_, kNeverArrived) != row + messages_) {
      missing.push_back(static_cast<ProcId>(p));
    }
  }
  return missing;
}

bool Trace::order_preserving() const { return order_violations().empty(); }

std::vector<std::string> Trace::order_violations() const {
  std::vector<std::string> out;
  if (messages_ < 2) return out;
  for (std::uint64_t p = 0; p < n_; ++p) {
    // First arrivals must be nondecreasing in message id: message i+1 may
    // not be fully received before message i.
    const Tick* row = &first_arrival_[arrival_cell(p, messages_, 0)];
    for (MsgId msg = 0; msg + 1 < messages_; ++msg) {
      const Tick a = row[msg];
      const Tick b = row[msg + 1];
      if (a != kNeverArrived && b < a) {
        std::ostringstream oss;
        oss << "p" << p << " received M" << (msg + 2) << " at t=" << rat(b)
            << " before M" << (msg + 1) << " at t=" << rat(a);
        out.push_back(oss.str());
      }
    }
  }
  return out;
}

}  // namespace postal
