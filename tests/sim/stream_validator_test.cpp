// Tests for the streaming schedule validator (sim/stream_validator.hpp):
// oracle-emitted streams must be accepted at every chunking, and every
// corruption class -- wrong time, wrong sender, wrong receiver, duplicate,
// gap, truncation, events past the certified range -- must be flagged.
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "oracle/oracle.hpp"
#include "sim/stream_validator.hpp"
#include "support/error.hpp"

namespace postal {
namespace {

std::vector<StreamEvent> full_stream(const oracle::ScheduleOracle& oracle) {
  return oracle.events(0, oracle.n());
}

StreamReport run_stream(const oracle::ScheduleOracle& oracle,
                        const std::vector<StreamEvent>& events) {
  StreamingValidator validator(oracle);
  validator.feed(events);
  return validator.finish();
}

TEST(StreamValidatorTest, AcceptsOracleStreamAtEveryChunking) {
  const oracle::ScheduleOracle oracle(64, Rational(5, 2));
  const std::vector<StreamEvent> events = full_stream(oracle);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{17}, events.size()}) {
    StreamingValidator validator(oracle);
    for (std::size_t i = 0; i < events.size(); i += chunk) {
      const std::size_t count = std::min(chunk, events.size() - i);
      validator.feed(events.data() + i, count);
    }
    const StreamReport report = validator.finish();
    EXPECT_TRUE(report.ok) << "chunk=" << chunk << ": " << report.summary();
    EXPECT_EQ(report.events_checked, events.size());
    EXPECT_EQ(report.last_arrival, oracle.makespan());
  }
}

TEST(StreamValidatorTest, AcceptsEmptyChunksAndSubRanges) {
  const oracle::ScheduleOracle oracle(64, Rational(5, 2));
  StreamingValidator validator(oracle, 10, 20);
  validator.feed(nullptr, 0);
  validator.feed(oracle.events(10, 20));
  validator.feed({});
  const StreamReport report = validator.finish();
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.events_checked, 10u);
}

TEST(StreamValidatorTest, FlagsWrongSendTime) {
  const oracle::ScheduleOracle oracle(32, Rational(2));
  std::vector<StreamEvent> events = full_stream(oracle);
  events[5].t = events[5].t + Rational(1, 7);  // off the slot grid
  const StreamReport report = run_stream(oracle, events);
  EXPECT_FALSE(report.ok);
}

TEST(StreamValidatorTest, FlagsSendBeforeSenderInformed) {
  const oracle::ScheduleOracle oracle(32, Rational(2));
  std::vector<StreamEvent> events = full_stream(oracle);
  // Find an event whose sender is informed strictly after t = 0 and pull
  // its send to before that inform time (staying on the unit grid).
  bool mutated = false;
  for (StreamEvent& e : events) {
    const Rational inform = oracle.inform_time(e.src);
    if (inform >= Rational(1)) {
      e.t = inform - Rational(1);
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);
  EXPECT_FALSE(run_stream(oracle, events).ok);
}

TEST(StreamValidatorTest, FlagsWrongSender) {
  const oracle::ScheduleOracle oracle(32, Rational(2));
  std::vector<StreamEvent> events = full_stream(oracle);
  events[8].src = events[8].src == 0 ? 1 : 0;
  EXPECT_FALSE(run_stream(oracle, events).ok);
}

TEST(StreamValidatorTest, FlagsDuplicateReceiver) {
  const oracle::ScheduleOracle oracle(32, Rational(2));
  std::vector<StreamEvent> events = full_stream(oracle);
  events.insert(events.begin() + 4, events[3]);
  EXPECT_FALSE(run_stream(oracle, events).ok);
}

TEST(StreamValidatorTest, FlagsGapInCoverage) {
  const oracle::ScheduleOracle oracle(32, Rational(2));
  std::vector<StreamEvent> events = full_stream(oracle);
  events.erase(events.begin() + 10);
  EXPECT_FALSE(run_stream(oracle, events).ok);
}

TEST(StreamValidatorTest, FlagsTruncatedStream) {
  const oracle::ScheduleOracle oracle(32, Rational(2));
  std::vector<StreamEvent> events = full_stream(oracle);
  events.pop_back();
  const StreamReport report = run_stream(oracle, events);
  EXPECT_FALSE(report.ok);  // finish() notices the run stopped early
}

TEST(StreamValidatorTest, FlagsEventPastCertifiedRange) {
  const oracle::ScheduleOracle oracle(32, Rational(2));
  std::vector<StreamEvent> events = oracle.events(1, 5);
  events.push_back(oracle.events(5, 6).front());  // rank 5 is out of range
  StreamingValidator validator(oracle, 1, 5);
  validator.feed(events);
  EXPECT_FALSE(validator.finish().ok);
}

TEST(StreamValidatorTest, FlagsBadEndpoints) {
  const oracle::ScheduleOracle oracle(8, Rational(2));
  std::vector<StreamEvent> events = full_stream(oracle);
  events[2].dst = 99;  // receiver outside [0, n)
  EXPECT_FALSE(run_stream(oracle, events).ok);

  events = full_stream(oracle);
  events[2].src = events[2].dst;  // self-send
  EXPECT_FALSE(run_stream(oracle, events).ok);
}

TEST(StreamValidatorTest, ViolationCapSetsTruncatedFlag) {
  const oracle::ScheduleOracle oracle(256, Rational(1));
  std::vector<StreamEvent> events = full_stream(oracle);
  for (StreamEvent& e : events) e.t = e.t + Rational(1, 3);  // corrupt all
  const StreamReport report = run_stream(oracle, events);
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.violations.size(), StreamingValidator::kMaxViolations);
}

/// The oracle with one rank's inform time and/or the makespan misreported:
/// the only way to reach the validator's receive-side clauses, which a
/// self-consistent source never trips.
class SkewedSource final : public RankScheduleSource {
 public:
  SkewedSource(const oracle::ScheduleOracle& oracle, std::uint64_t skewed_rank,
               Rational inform_skew, Rational makespan_skew)
      : oracle_(oracle),
        skewed_rank_(skewed_rank),
        inform_skew_(std::move(inform_skew)),
        makespan_skew_(std::move(makespan_skew)) {}

  [[nodiscard]] std::uint64_t n() const override { return oracle_.n(); }
  [[nodiscard]] Rational lambda() const override { return oracle_.lambda(); }
  [[nodiscard]] Rational rank_inform_time(std::uint64_t rank) const override {
    const Rational t = oracle_.rank_inform_time(rank);
    return rank == skewed_rank_ ? t + inform_skew_ : t;
  }
  [[nodiscard]] std::optional<std::uint64_t> rank_child_at(
      std::uint64_t rank, std::uint64_t slot) const override {
    return oracle_.rank_child_at(rank, slot);
  }
  [[nodiscard]] Rational schedule_makespan() const override {
    return oracle_.schedule_makespan() + makespan_skew_;
  }

 private:
  const oracle::ScheduleOracle& oracle_;
  std::uint64_t skewed_rank_;
  Rational inform_skew_;
  Rational makespan_skew_;
};

TEST(StreamValidatorTest, PinsEveryViolationString) {
  // One case per violation class, with the exact text it produces. The
  // stream is MPS(32, 2)'s: events[i] informs rank i + 1, the makespan is
  // 8, rank 5 is informed at 5 and sends in slots 0-1 (p7 at 5, p6 at 6),
  // p0 sends in slots 0-6 (p1 last, at 6), and p31 is a leaf informed at 6.
  const oracle::ScheduleOracle oracle(32, Rational(2));
  const std::vector<StreamEvent> stream = full_stream(oracle);
  struct Case {
    const char* name;
    std::vector<StreamEvent> events;
    std::uint64_t first = 1;
    std::uint64_t last = 32;
    std::uint64_t skewed_rank = 0;  ///< with the two skews: the source
    Rational inform_skew;
    Rational makespan_skew;
    std::vector<std::string> expect;
  };
  std::vector<Case> cases;
  auto mutated = [&](std::size_t index, auto&& edit) {
    std::vector<StreamEvent> events = stream;
    edit(events[index]);
    return events;
  };
  cases.push_back({"off-grid time",
                   mutated(5, [](StreamEvent& e) { e.t = e.t + Rational(1, 7); }),
                   1, 32, 0, Rational(0), Rational(0),
                   {"event (p5 -> p6 at t=43/7): send start is not slot-aligned "
                    "with the sender's inform time"}});
  cases.push_back({"send before the sender is informed",
                   mutated(5, [](StreamEvent& e) { e.t = Rational(4); }),
                   1, 32, 0, Rational(0), Rational(0),
                   {"event (p5 -> p6 at t=4): sender not informed until t=5"}});
  cases.push_back({"wrong sender, empty slot",
                   mutated(16, [](StreamEvent& e) { e.src = 31; }),
                   1, 32, 0, Rational(0), Rational(0),
                   {"event (p31 -> p17 at t=6): sender performs no send in slot 0"}});
  cases.push_back({"wrong sender, slot addresses another rank",
                   mutated(3, [](StreamEvent& e) { e.src = 0; }),
                   1, 32, 0, Rational(0), Rational(0),
                   {"event (p0 -> p4 at t=6): slot 6 of p0 addresses p1"}});
  {
    // A gap resyncs: exactly one violation, not one per later event.
    std::vector<StreamEvent> events = stream;
    events.erase(events.begin() + 10);
    cases.push_back({"out-of-order receiver (gap)", events, 1, 32, 0, Rational(0),
                     Rational(0),
                     {"event (p11 -> p12 at t=6): receiver out of order: expected "
                      "rank 11"}});
  }
  {
    std::vector<StreamEvent> events = stream;
    events.insert(events.begin() + 4, events[3]);
    cases.push_back({"duplicate receiver", events, 1, 32, 0, Rational(0), Rational(0),
                     {"event (p3 -> p4 at t=6): receiver out of order: expected "
                      "rank 5"}});
  }
  {
    std::vector<StreamEvent> events = oracle.events(1, 5);
    events.push_back(oracle.events(5, 6).front());
    cases.push_back({"event past the certified range", events, 1, 5, 0, Rational(0),
                     Rational(0),
                     {"event (p0 -> p5 at t=3): event past the end of the certified "
                      "receiver range"}});
  }
  cases.push_back({"bad endpoints, receiver outside [0, n)",
                   mutated(2, [](StreamEvent& e) { e.dst = 99; }),
                   1, 32, 0, Rational(0), Rational(0),
                   {"event (p0 -> p99 at t=4): receiver out of order: expected rank 3",
                    "event (p0 -> p99 at t=4): endpoints outside the legal rank domain",
                    "event (p3 -> p4 at t=6): receiver out of order: expected rank 3"}});
  cases.push_back({"bad endpoints, self-send",
                   mutated(2, [](StreamEvent& e) { e.src = e.dst; }),
                   1, 32, 0, Rational(0), Rational(0),
                   {"event (p3 -> p3 at t=4): endpoints outside the legal rank domain"}});
  cases.push_back({"arrival differs from the inform time", stream, 1, 32, 6,
                   Rational(1), Rational(0),
                   {"event (p5 -> p6 at t=6): arrival t=8 differs from the "
                    "receiver's inform time 9"}});
  cases.push_back({"arrival past the makespan", oracle.events(1, 5), 1, 5, 0,
                   Rational(0), Rational(-1),
                   {"event (p0 -> p1 at t=6): arrival exceeds the certified makespan 7",
                    "event (p3 -> p4 at t=6): arrival exceeds the certified "
                    "makespan 7"}});
  {
    std::vector<StreamEvent> events = stream;
    events.pop_back();
    cases.push_back({"truncated stream", events, 1, 32, 0, Rational(0), Rational(0),
                     {"stream ended at rank 31, expected to reach 32"}});
  }
  cases.push_back({"full-range makespan certificate", stream, 1, 32, 0, Rational(0),
                   Rational(1), {"latest arrival 8 != certified makespan 9"}});

  for (const Case& c : cases) {
    const SkewedSource skewed(oracle, c.skewed_rank, c.inform_skew, c.makespan_skew);
    const bool exact = c.inform_skew == Rational(0) && c.makespan_skew == Rational(0);
    const RankScheduleSource& source =
        exact ? static_cast<const RankScheduleSource&>(oracle) : skewed;
    StreamingValidator validator(source, c.first, c.last);
    validator.feed(c.events);
    const StreamReport report = validator.finish();
    EXPECT_FALSE(report.ok) << c.name;
    EXPECT_EQ(report.violations, c.expect) << c.name;
  }
}

TEST(StreamValidatorTest, LifecycleErrors) {
  const oracle::ScheduleOracle oracle(8, Rational(2));
  EXPECT_THROW(StreamingValidator(oracle, 5, 3), InvalidArgument);
  EXPECT_THROW(StreamingValidator(oracle, 0, 9), InvalidArgument);
  StreamingValidator validator(oracle);
  validator.feed(full_stream(oracle));
  (void)validator.finish();
  EXPECT_THROW((void)validator.finish(), LogicError);
  EXPECT_THROW(validator.feed(nullptr, 0), LogicError);
}

}  // namespace
}  // namespace postal
