#include "sim/stream_validator.hpp"

#include <sstream>

#include "support/error.hpp"

namespace postal {

std::string StreamReport::summary() const {
  if (ok) return "stream OK";
  std::ostringstream os;
  os << violations.size() << " violation(s)";
  if (truncated) os << " (truncated)";
  for (const std::string& v : violations) os << "; " << v;
  return os.str();
}

StreamingValidator::StreamingValidator(const RankScheduleSource& source,
                                       std::uint64_t first, std::uint64_t last)
    : source_(source),
      next_(first < 1 ? 1 : first),
      last_(last),
      full_range_(next_ <= 1 && last == source.n()),
      lambda_(source.lambda()),
      makespan_(source.schedule_makespan()),
      cursor_(source.rank_cursor()),
      q_(lambda_.den()),
      lambda_ticks_(lambda_.num()) {
  POSTAL_REQUIRE(first <= last && last <= source.n(),
                 "StreamingValidator: need first <= last <= n");
  // Degenerate ranges ([x, x) or n == 1) certify vacuously.
  if (next_ > last_) next_ = last_;
  if (cursor_ != nullptr) {
    makespan_ticks_ = grid_ticks(TickDomain(q_), makespan_, "StreamingValidator");
  }
}

StreamingValidator::StreamingValidator(const RankScheduleSource& source)
    : StreamingValidator(source, 1, source.n()) {}

void StreamingValidator::violation(std::string text) {
  if (report_.violations.size() >= kMaxViolations) {
    report_.truncated = true;
    return;
  }
  report_.violations.push_back(std::move(text));
}

void StreamingValidator::feed(const std::vector<StreamEvent>& chunk) {
  feed(chunk.data(), chunk.size());
}

void StreamingValidator::feed(const StreamEvent* events, std::size_t count) {
  POSTAL_CHECK(!finished_);
  for (std::size_t i = 0; i < count; ++i) {
    if (!accept_from_cursor(events[i])) check(events[i]);
  }
}

bool StreamingValidator::accept_from_cursor(const StreamEvent& e) {
  if (cursor_ == nullptr || e.dst != next_ || next_ >= last_) return false;
  if (frame_ == nullptr || frame_->rank != next_) {
    frame_ = frame_ != nullptr && frame_->rank + 1 == next_ ? &cursor_->next()
                                                            : &cursor_->seek(next_);
  }
  const RankFrame& f = *frame_;
  // The send start in ticks; off the grid it is left to check().
  Tick t = 0;
  const std::int64_t den = e.t.den();
  if (den == q_) {
    t = e.t.num();
  } else if (q_ % den != 0 || __builtin_mul_overflow(e.t.num(), q_ / den, &t)) {
    return false;
  }
  // Sender, slot, send start, arrival and makespan against the frame
  // (t == f.send first, so the arrival add cannot overflow). An event
  // passing these passes every clause of check() for this rank.
  const Tick slot_start = f.parent_inform + static_cast<Tick>(f.slot) * q_;
  if (e.src != f.parent || t != f.send || f.send != slot_start ||
      t + lambda_ticks_ != f.inform || f.inform > makespan_ticks_) {
    return false;
  }
  ++next_;
  if (last_arrival_ticks_ < f.inform) last_arrival_ticks_ = f.inform;
  ++report_.events_checked;
  return true;
}

void StreamingValidator::check(const StreamEvent& e) {
  const std::uint64_t n = source_.n();
  // The "event (...): " prefix of a violation, formatted only when one fires.
  auto tag = [&e] {
    std::ostringstream os;
    os << "event (p" << e.src << " -> p" << e.dst << " at t=" << e.t << "): ";
    return os.str();
  };
  // Coverage ordering: receivers arrive as the contiguous run
  // [first, last), each exactly once.
  if (next_ >= last_) {
    violation(tag() + "event past the end of the certified receiver range");
  } else if (e.dst != next_) {
    std::ostringstream os;
    os << tag() << "receiver out of order: expected rank " << next_;
    violation(os.str());
    // Resync forward so one gap does not cascade into a violation per
    // event; duplicates and regressions leave the expectation in place.
    if (e.dst > next_ && e.dst < last_) next_ = e.dst + 1;
  } else {
    ++next_;
  }
  if (e.dst == 0 || e.dst >= n || e.src >= n || e.src == e.dst) {
    violation(tag() + "endpoints outside the legal rank domain");
    return;
  }
  // Causality + send-port exclusivity: the send must start a whole
  // number of units after the sender's inform time, and that slot must
  // address exactly this receiver.
  const Rational inform_src = source_.rank_inform_time(e.src);
  const Rational offset = e.t - inform_src;
  if (offset < Rational(0)) {
    std::ostringstream os;
    os << tag() << "sender not informed until t=" << inform_src;
    violation(os.str());
    return;
  }
  if (!offset.is_integer()) {
    violation(tag() +
              "send start is not slot-aligned with the sender's inform time");
    return;
  }
  const std::uint64_t slot = static_cast<std::uint64_t>(offset.num());
  const std::optional<std::uint64_t> child = source_.rank_child_at(e.src, slot);
  if (!child.has_value()) {
    std::ostringstream os;
    os << tag() << "sender performs no send in slot " << slot;
    violation(os.str());
    return;
  }
  if (*child != e.dst) {
    std::ostringstream os;
    os << tag() << "slot " << slot << " of p" << e.src << " addresses p"
       << *child;
    violation(os.str());
    return;
  }
  // Receive side: the arrival must be the receiver's certified inform
  // time and must not exceed the schedule's certified makespan.
  const Rational arrival = e.t + lambda_;
  const Rational inform_dst = source_.rank_inform_time(e.dst);
  if (arrival != inform_dst) {
    std::ostringstream os;
    os << tag() << "arrival t=" << arrival
       << " differs from the receiver's inform time " << inform_dst;
    violation(os.str());
    return;
  }
  if (arrival > makespan_) {
    std::ostringstream os;
    os << tag() << "arrival exceeds the certified makespan " << makespan_;
    violation(os.str());
    return;
  }
  if (report_.last_arrival < arrival) report_.last_arrival = arrival;
  ++report_.events_checked;
}

StreamReport StreamingValidator::finish() {
  POSTAL_CHECK(!finished_);
  finished_ = true;
  const Rational from_cursor(last_arrival_ticks_, q_);
  if (report_.last_arrival < from_cursor) report_.last_arrival = from_cursor;
  if (next_ != last_) {
    std::ostringstream os;
    os << "stream ended at rank " << next_ << ", expected to reach " << last_;
    violation(os.str());
  }
  // The Theorem 6 completion certificate: a full, clean stream must attain
  // the closed-form makespan exactly.
  if (full_range_ && source_.n() >= 2 && report_.violations.empty() &&
      report_.last_arrival != makespan_) {
    std::ostringstream os;
    os << "latest arrival " << report_.last_arrival
       << " != certified makespan " << makespan_;
    violation(os.str());
  }
  report_.ok = report_.violations.empty() && !report_.truncated;
  return report_;
}

}  // namespace postal
