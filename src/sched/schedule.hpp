// Schedule intermediate representation.
//
// Every broadcasting algorithm in this library is represented as a
// *schedule*: the set of atomic send events it performs. A schedule is the
// common currency between the algorithm generators (src/sched), the
// postal-model validator/simulator (src/sim), and the benches. The
// simulator, not the generator, is the authority on whether a schedule is
// legal in MPS(n, lambda) and on its makespan.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "model/params.hpp"
#include "support/rational.hpp"
#include "support/ticks.hpp"

namespace postal {

/// One atomic send: processor `src` starts transmitting message `msg` to
/// processor `dst` at time `t` (occupying src's output port on [t, t+1) and
/// dst's input port on [t+lambda-1, t+lambda)).
struct SendEvent {
  ProcId src = 0;
  ProcId dst = 0;
  MsgId msg = 0;
  Rational t;

  friend bool operator==(const SendEvent&, const SendEvent&) = default;
};

std::ostream& operator<<(std::ostream& os, const SendEvent& e);

/// One send as an engine records it: `src` starts `msg` to `dst` at tick
/// `tick` of a run's 1/q grid (time = tick / q). Machine and ParMachine
/// log these instead of building a Rational per send, and
/// Schedule::from_tick_log turns the log into the run's schedule.
struct TickSend {
  Tick tick = 0;
  ProcId src = 0;
  ProcId dst = 0;
  MsgId msg = 0;
};

using TickLog = std::vector<TickSend>;

/// An ordered collection of send events plus bookkeeping helpers.
class Schedule {
 public:
  Schedule() = default;

  /// Append one send event.
  void add(ProcId src, ProcId dst, MsgId msg, Rational t);
  void add(SendEvent event);

  /// Append every event of `other`, shifted forward by `dt` and with
  /// message ids offset by `msg_offset`. Used by REPEAT's iteration overlap.
  void append_shifted(const Schedule& other, const Rational& dt, MsgId msg_offset);

  /// Order events by (t, src, dst, msg). The key is the whole event, so
  /// the result is unique: equal keys are equal events.
  void sort();

  /// The schedule of an engine run, in (t, src, dst, msg) order and sized
  /// exactly: `logs` are its sends on the 1/q grid, every src < n. One
  /// port sends once per unit, so (tick, src) identifies a send; a
  /// repeated pair is a logic error. The logs are freed as the schedule is
  /// built.
  [[nodiscard]] static Schedule from_tick_log(std::vector<TickLog> logs,
                                              std::int64_t q, std::uint64_t n);
  [[nodiscard]] static Schedule from_tick_log(TickLog log, std::int64_t q,
                                              std::uint64_t n);

  [[nodiscard]] const std::vector<SendEvent>& events() const noexcept { return events_; }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }

  /// Latest send start, or 0 for an empty schedule.
  [[nodiscard]] Rational last_send_start() const;

  /// Latest arrival time (last send start + lambda), or 0 if empty. This is
  /// the running time T of the algorithm *if* the schedule's last event is
  /// on the critical path; the simulator computes the authoritative value.
  [[nodiscard]] Rational makespan(const Rational& lambda) const;

  /// Number of sends performed by each processor (index = ProcId), sized n.
  [[nodiscard]] std::vector<std::uint64_t> sends_per_proc(std::uint64_t n) const;

  /// Number of distinct message ids referenced (max id + 1), 0 if empty.
  [[nodiscard]] std::uint32_t message_count() const;

 private:
  std::vector<SendEvent> events_;
};

std::ostream& operator<<(std::ostream& os, const Schedule& s);

}  // namespace postal
