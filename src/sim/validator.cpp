#include "sim/validator.hpp"

#include <optional>
#include <sstream>

#include "sched/tick_check.hpp"

namespace postal {

std::string SimReport::summary() const {
  if (ok) return "ok";
  std::ostringstream oss;
  oss << violations.size() << " violation(s):";
  for (const auto& v : violations) oss << "\n  - " << v;
  return oss.str();
}

namespace {

// validate_schedule is a front end of sched/tick_check.hpp's loop with one
// send port, w = 1 and one lambda. Its sink records every delivery into
// the report's Trace and words each clause with the times involved.
struct TraceSink {
  static constexpr bool kReadsMessageIds = true;
  Trace& trace;

  void deliver(ProcId src, ProcId dst, MsgId msg, Tick t, Tick arrive) {
    trace.record(TickDelivery{src, dst, msg, t, arrive});
  }
  void prefetch(ProcId dst, MsgId msg) const { trace.prefetch(dst, msg); }
  static std::string uninformed(const std::optional<Rational>& held) {
    return std::string("sender does not hold the message yet") +
           (held.has_value() ? " (holds it only from t=" + held->str() + ")" : "");
  }
  // A port clash: p's port already holds the window [from, to).
  static std::string busy(Port port, ProcId p, const Rational& from, const Rational& to) {
    std::ostringstream oss;
    oss << (port == Port::kSend ? "send" : "receive") << " port of p" << p
        << " already busy on [" << from << ", " << to << ")";
    return oss.str();
  }
};

}  // namespace

SimReport validate_schedule(const Schedule& schedule, const PostalParams& params,
                            const ValidatorOptions& options) {
  const std::uint64_t n = params.n();
  const std::uint32_t messages =
      options.messages != 0 ? options.messages : schedule.message_count();
  SimReport report;
  POSTAL_REQUIRE(options.origin < n, "validate_schedule: origin out of range");

  // Earliest known crash per processor (docs/FAULTS.md): deliveries at or
  // after it are void, sends at or after it are impossible, and the
  // processor is exempt from coverage. Left empty when none is declared.
  std::vector<std::optional<Rational>> crash;
  if (!options.crashes.empty()) crash.resize(n);
  for (const CrashFault& c : options.crashes) {
    POSTAL_REQUIRE(c.proc < n, "validate_schedule: crashed processor out of range");
    auto& slot = crash[c.proc];
    if (!slot.has_value() || c.time < *slot) slot = c.time;
  }

  // One unit of FIFO receive drift per event, plus two, in the tick bound.
  const TickCheck check(schedule, Rational(1), {&params.lambda(), 1}, crash,
                        schedule.size() + 2, "validate_schedule");

  // The trace's tables are allocated before the hold and port tables: the
  // other way round, back-to-back validations of a 10^6-rank BCAST measured
  // about 1.5x slower with glibc's allocator.
  report.trace = Trace(n, messages, check.dom().q());
  report.trace.reserve(schedule.size());
  // holds[arrival_cell(p, messages, msg)]: earliest time p holds msg
  // (origin: 0; kNeverArrived until it does).
  std::vector<Tick> holds(arrival_cell(n, messages, 0),
                          options.preholds ? 0 : kNeverArrived);
  if (!options.preholds) {
    POSTAL_REQUIRE(options.origins.empty() || options.origins.size() == messages,
                   "validate_schedule: origins must name one processor per message");
    for (MsgId msg = 0; msg < messages; ++msg) {
      const ProcId origin =
          options.origins.empty() ? options.origin : options.origins[msg];
      POSTAL_REQUIRE(origin < n, "validate_schedule: message origin out of range");
      holds[arrival_cell(origin, messages, msg)] = 0;
    }
  }
  TraceSink sink{report.trace};
  check.run<true>(TickRules{n, messages, 1, options.fifo_receive},
                  ConstLatency{check.max_lambda()}, holds, sink, report.violations);

  std::vector<std::string>& violations = report.violations;
  // Goal (p, msg) is missed unless p is the message's origin, crashed, or holds it.
  const auto missed = [&](ProcId p, MsgId msg) {
    const ProcId origin = options.origins.empty() ? options.origin : options.origins[msg];
    return p != origin && check.crash_of(p) == nullptr &&
           holds[arrival_cell(p, messages, msg)] == kNeverArrived;
  };
  if (options.require_coverage) {
    if (!options.required.empty()) {
      for (const auto& [p, msg] : options.required) {
        POSTAL_REQUIRE(p < n && msg < messages,
                       "validate_schedule: required delivery out of range");
        if (missed(p, msg)) {
          violations.push_back("p" + std::to_string(p) + " never received required M" +
                               std::to_string(msg + 1));
        }
      }
    } else if (!options.origins.empty()) {
      // All-to-all goal with per-message origins.
      for (ProcId p = 0; p < n; ++p) {
        for (MsgId msg = 0; msg < messages; ++msg) {
          if (missed(p, msg)) {
            violations.push_back("p" + std::to_string(p) + " never received M" +
                                 std::to_string(msg + 1));
          }
        }
      }
    } else {
      for (const ProcId p : report.trace.uncovered(options.origin)) {
        if (check.crash_of(p) != nullptr) continue;
        violations.push_back("p" + std::to_string(p) + " never received all messages");
      }
      bool live_peer = false;  // with no messages, someone alive goes without
      for (ProcId p = 0; p < n && messages == 0; ++p) {
        live_peer = live_peer || (p != options.origin && check.crash_of(p) == nullptr);
      }
      if (live_peer) violations.push_back("schedule delivers no messages but n > 1");
    }
  }
  report.makespan = report.trace.makespan();
  report.order_preserving = report.trace.order_preserving();
  report.ok = report.violations.empty();
  return report;
}

}  // namespace postal
