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
      full_range_(next_ <= 1 && last == source.n()) {
  POSTAL_REQUIRE(first <= last && last <= source.n(),
                 "StreamingValidator: need first <= last <= n");
  // Degenerate ranges ([x, x) or n == 1) certify vacuously.
  if (next_ > last_) next_ = last_;
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
  const std::uint64_t n = source_.n();
  const Rational lambda = source_.lambda();
  const Rational makespan = source_.schedule_makespan();
  for (std::size_t i = 0; i < count; ++i) {
    const StreamEvent& e = events[i];
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
      continue;
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
      continue;
    }
    if (!offset.is_integer()) {
      violation(tag() +
                "send start is not slot-aligned with the sender's inform time");
      continue;
    }
    const std::uint64_t slot = static_cast<std::uint64_t>(offset.num());
    const std::optional<std::uint64_t> child = source_.rank_child_at(e.src, slot);
    if (!child.has_value()) {
      std::ostringstream os;
      os << tag() << "sender performs no send in slot " << slot;
      violation(os.str());
      continue;
    }
    if (*child != e.dst) {
      std::ostringstream os;
      os << tag() << "slot " << slot << " of p" << e.src << " addresses p"
         << *child;
      violation(os.str());
      continue;
    }
    // Receive side: the arrival must be the receiver's certified inform
    // time and must not exceed the schedule's certified makespan.
    const Rational arrival = e.t + lambda;
    const Rational inform_dst = source_.rank_inform_time(e.dst);
    if (arrival != inform_dst) {
      std::ostringstream os;
      os << tag() << "arrival t=" << arrival
         << " differs from the receiver's inform time " << inform_dst;
      violation(os.str());
      continue;
    }
    if (arrival > makespan) {
      std::ostringstream os;
      os << tag() << "arrival exceeds the certified makespan " << makespan;
      violation(os.str());
      continue;
    }
    if (report_.last_arrival < arrival) report_.last_arrival = arrival;
    ++report_.events_checked;
  }
}

StreamReport StreamingValidator::finish() {
  POSTAL_CHECK(!finished_);
  finished_ = true;
  if (next_ != last_) {
    std::ostringstream os;
    os << "stream ended at rank " << next_ << ", expected to reach " << last_;
    violation(os.str());
  }
  // The Theorem 6 completion certificate: a full, clean stream must attain
  // the closed-form makespan exactly.
  if (full_range_ && source_.n() >= 2 && report_.violations.empty() &&
      report_.last_arrival != source_.schedule_makespan()) {
    std::ostringstream os;
    os << "latest arrival " << report_.last_arrival
       << " != certified makespan " << source_.schedule_makespan();
    violation(os.str());
  }
  report_.ok = report_.violations.empty() && !report_.truncated;
  return report_;
}

}  // namespace postal
