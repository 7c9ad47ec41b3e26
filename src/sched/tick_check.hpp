// The one per-send check of a schedule, on int64 ticks, behind
// validate_schedule (sim/validator.cpp) and check_model, the Section 5
// variants' checker (sched/model_check.cpp). Those are front ends: each
// maps its options to this loop and keeps its coverage goal and wording.
//
// The model: a send at t holds one of the sender's k send ports on [t, t+w)
// and the receiver's receive port on [t+lambda-w, t+lambda), lambda =
// lambda(src, dst) > 0; the receiver holds the message from t + lambda, and
// a rank sends a message only once it holds it (docs/MODEL.md). Sends are
// visited in tick order, ties in schedule order, so every arrival enabling
// a send at t was recorded before it. Per send: ids in range, a declared
// crash of the sender, causality, the send port, the receive port
// (exclusive, or FIFO-queued), the receiver's crash, then the hold time and
// the delivery. Rejected windows are not kept. The Latency, one send port
// or k, and the Sink (where deliveries go, how clauses are worded) are
// bound at compile time; the port state follows from them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "sched/schedule.hpp"
#include "support/ticks.hpp"

namespace postal {

/// What a port rule returns when it accepts a window.
inline constexpr Tick kAccepted = std::numeric_limits<Tick>::min();

/// Ports whose windows come in nondecreasing start (send ports; receive
/// ports under a constant lambda). Each keeps the ends of its k latest
/// accepted windows, oldest first: all windows are w long, so a (k+1)-th
/// overlap appears exactly when the k-th latest ends after lo. For k = 1
/// that is one free time per port, and the window it names is the one an
/// interval set would report. kOne fixes k = 1 at compile time.
template <bool kOne>
class LatestWindows {
 public:
  explicit LatestWindows(std::uint64_t n, std::uint64_t k = 1)
      : k_(kOne ? 1 : k), ends_(n * k_, kAccepted) {}

  /// Take [lo, lo + w) at port p: kAccepted, or the end of the window it
  /// clashes with (the port keeps its windows).
  Tick take(ProcId p, Tick lo, Tick w) {
    Tick* ends = ends_.data() + (kOne ? p : p * k_);
    if (lo < ends[0]) return ends[0];
    if constexpr (!kOne) std::copy(ends + 1, ends + k_, ends);
    ends[kOne ? 0 : k_ - 1] = lo + w;
    return kAccepted;
  }

  /// FIFO input port (k = 1): queue [lo, lo + w) behind p's last window;
  /// returns the end of the window it gets.
  Tick queue(ProcId p, Tick lo, Tick w) { return ends_[p] = std::max(lo, ends_[p]) + w; }

  void prefetch(ProcId p) const { __builtin_prefetch(&ends_[kOne ? p : p * k_], 1); }

 private:
  std::uint64_t k_;
  std::vector<Tick> ends_;  ///< [p * k + i]; kAccepted marks an unused slot
};

/// Receive ports when lambda varies by link: windows come in any order.
/// Accepted windows are disjoint and w long, so [lo, lo + w) can only
/// overlap the first start >= lo or the one before it.
class SortedWindows {
 public:
  explicit SortedWindows(std::uint64_t n) : starts_(n) {}

  /// As LatestWindows::take.
  Tick take(ProcId p, Tick lo, Tick w) {
    std::vector<Tick>& starts = starts_[p];
    auto next = starts.end();
    if (!starts.empty() && starts.back() > lo) {
      next = std::lower_bound(starts.begin(), starts.end(), lo);
    }
    if (next != starts.end() && *next < lo + w) return *next + w;
    if (next != starts.begin() && *std::prev(next) + w > lo) return *std::prev(next) + w;
    starts.insert(next, lo);
    return kAccepted;
  }

 private:
  std::vector<std::vector<Tick>> starts_;
};

/// lambda(src, dst) in ticks: one value on every link, so a receive port's
/// windows come in nondecreasing start.
struct ConstLatency {
  Tick lambda;
  Tick operator()(ProcId /*a*/, ProcId /*b*/) const { return lambda; }
};

/// `intra` within a cluster of `cluster` consecutive ranks, `inter` across.
struct RuleLatency {
  std::uint64_t cluster;
  Tick intra;
  Tick inter;
  Tick operator()(ProcId a, ProcId b) const {
    return a / cluster == b / cluster ? intra : inter;
  }
};

/// The n x n row-major table, converted per send: the probe folded every
/// entry a send reads into the grid.
struct MatrixLatency {
  std::uint64_t n;
  std::span<const Rational> matrix;
  TickDomain dom;
  Tick operator()(ProcId a, ProcId b) const {
    return dom.to_ticks(matrix[a * n + b]).value();
  }
};

/// The rules the loop reads at run time.
struct TickRules {
  std::uint64_t n = 1;
  std::uint32_t messages = 1;    ///< columns of the hold table
  std::uint64_t send_ports = 1;  ///< k
  bool fifo_receive = false;  ///< queue overlapping receives (constant lambda)
};

enum class Port { kSend, kReceive };

/// One check of one schedule: the static tick probe, then run().
class TickCheck {
 public:
  /// The static tick probe: fold the schedule's grid, w, every latency a
  /// send can read and every declared crash time onto one grid 1/Q, and
  /// bound the largest tick the loop forms in 128 bits -- the latest send
  /// or crash, plus the largest lambda, plus `slack_windows` windows (FIFO
  /// drift) -- so the loop needs no per-op checks. Failures raise
  /// OverflowError naming `site`.
  TickCheck(const Schedule& schedule, const Rational& window,
            std::span<const Rational> lambdas,
            std::span<const std::optional<Rational>> crash,
            std::uint64_t slack_windows, const char* site)
      : schedule_(schedule) {
    // Visit order: nondecreasing tick, ties in record order; in place when
    // the records already are (every generator's and engine's output).
    const std::vector<TickSend>& records = schedule.records();
    const auto earlier = [](const TickSend& a, const TickSend& b) {
      return a.tick < b.tick;
    };
    if (!std::is_sorted(records.begin(), records.end(), earlier)) {
      order_.resize(records.size());
      std::iota(order_.begin(), order_.end(), std::size_t{0});
      std::stable_sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
        return earlier(records[a], records[b]);
      });
    }
    std::int64_t q = fold_grid(schedule.q(), window, site);
    for (const Rational& lambda : lambdas) q = fold_grid(q, lambda, site);
    for (const auto& c : crash) {
      if (c.has_value()) q = fold_grid(q, *c, site);
    }
    dom_ = TickDomain(q);
    scale_ = q / schedule.q();
    window_ = grid_ticks(dom_, window, site);
    for (const Rational& lambda : lambdas) {
      max_lambda_ = std::max(max_lambda_, grid_ticks(dom_, lambda, site));
    }
    // Schedule ticks are >= 0; the last visited record is the latest.
    __extension__ using int128 = __int128;
    const std::size_t last = order_.empty() ? records.size() - 1 : order_.back();
    int128 reach = records.empty() ? 0 : static_cast<int128>(scale_) * records[last].tick;
    crash_.resize(crash.size());
    for (std::size_t p = 0; p < crash.size(); ++p) {
      if (!crash[p].has_value()) continue;
      const Tick c = grid_ticks(dom_, *crash[p], site);
      crash_[p] = c;
      reach = std::max(reach, c < 0 ? -static_cast<int128>(c) : c);
    }
    if (reach + max_lambda_ + static_cast<int128>(slack_windows) * window_ >=
        (int128{1} << 62)) {
      throw_grid_overflow(site, "tick bound for the schedule exceeds int64");
    }
  }

  [[nodiscard]] const TickDomain& dom() const noexcept { return dom_; }
  [[nodiscard]] Tick max_lambda() const noexcept { return max_lambda_; }
  /// Earliest declared crash of p in ticks, or nullptr.
  [[nodiscard]] const Tick* crash_of(ProcId p) const {
    return crash_.empty() || !crash_[p].has_value() ? nullptr : &*crash_[p];
  }

  /// Check every send. `holds` is the caller's n x rules.messages table of
  /// the earliest time each rank holds each message (kNeverArrived: not
  /// yet). The Sink supplies kReadsMessageIds (false: every send carries
  /// the one message), deliver(src, dst, msg, t, arrive), prefetch(dst,
  /// msg), uninformed(held) and busy(port, p, from, to): the wording, with
  /// held nullopt if never held and [from, to) the window clashed with.
  template <bool kOnePort, class Latency, class Sink>
  void run(const TickRules& rules, const Latency& lambda, std::vector<Tick>& holds,
           Sink& sink, std::vector<std::string>& violations) const {
    constexpr bool kConstant = std::is_same_v<Latency, ConstLatency>;
    const std::uint64_t n = rules.n;
    const std::uint32_t messages = rules.messages;
    const Tick w = window_;
    LatestWindows<kOnePort> send(n, rules.send_ports);
    std::conditional_t<kConstant, LatestWindows<true>, SortedWindows> receive(n);
    const auto msg_of = [](const TickSend& e) -> MsgId {
      return Sink::kReadsMessageIds ? e.msg : 0;
    };
    const auto rat = [this](Tick t) { return dom_.to_rational(t); };

    const std::vector<TickSend>& events = schedule_.records();
    for (std::size_t k = 0; k < events.size(); ++k) {
      // In-place visits know the event kLookAhead on: prefetch the
      // receive-side cells of its (effectively random) dst. Only ids in
      // range form an address; the event is still judged in its turn.
      if (order_.empty() && k + kLookAhead < events.size()) {
        const TickSend& next = events[k + kLookAhead];
        const MsgId next_msg = msg_of(next);
        if (next.src < n && next.dst < n && next_msg < messages) {
          if constexpr (kConstant) receive.prefetch(next.dst);
          __builtin_prefetch(&holds[arrival_cell(next.dst, messages, next_msg)], 1);
          sink.prefetch(next.dst, next_msg);
        }
      }
      const TickSend& e = events[order_.empty() ? k : order_[k]];
      // Append a violation after the "[event] " prefix, formatted only then.
      const auto violate = [&e, &violations, this](const std::string& text) {
        std::ostringstream oss;
        oss << "[" << SendEvent{e.src, e.dst, e.msg, Rational(e.tick, schedule_.q())}
            << "] " << text;
        violations.push_back(oss.str());
      };
      const MsgId msg = msg_of(e);
      if (e.src >= n || e.dst >= n || msg >= messages) {
        violate(e.src >= n || e.dst >= n ? "processor id out of range"
                                         : "message id out of range");
        continue;
      }
      const Tick t = e.tick * scale_;
      // A dead processor cannot transmit: such an event proves the schedule
      // was not produced under the declared crashes.
      if (const Tick* dead = crash_of(e.src); dead != nullptr && t >= *dead) {
        violate("p" + std::to_string(e.src) + " crashed at t=" + rat(*dead).str() +
                " but sends afterwards");
        continue;
      }
      const Tick held = holds[arrival_cell(e.src, messages, msg)];
      if (t < held) {
        violate(sink.uninformed(held == kNeverArrived ? std::nullopt
                                                      : std::optional(rat(held))));
      }
      if (const Tick busy = send.take(e.src, t, w); busy != kAccepted) {
        violate(sink.busy(Port::kSend, e.src, rat(busy - w), rat(busy)));
      }
      // A delivery reaching a crashed receiver at or after its crash time
      // is void: no port use, no hold. A FIFO port queues it first.
      Tick arrive = t + lambda(e.src, e.dst);
      bool queued = false;
      if constexpr (kConstant) {
        queued = rules.fifo_receive;
        if (queued) arrive = receive.queue(e.dst, arrive - w, w);
      }
      const Tick* dst_dead = crash_of(e.dst);
      if (dst_dead != nullptr && arrive >= *dst_dead) continue;
      if (const Tick busy = queued ? kAccepted : receive.take(e.dst, arrive - w, w);
          busy != kAccepted) {
        violate(sink.busy(Port::kReceive, e.dst, rat(busy - w), rat(busy)));
      }
      Tick& dst_holds = holds[arrival_cell(e.dst, messages, msg)];
      dst_holds = std::min(dst_holds, arrive);
      sink.deliver(e.src, e.dst, msg, t, arrive);
    }
  }

 private:
  const Schedule& schedule_;
  std::vector<std::size_t> order_;  ///< visit order; empty: in place
  TickDomain dom_{1};
  Tick scale_ = 1;       ///< grid ticks per schedule tick (Q / q)
  Tick window_ = 0;      ///< w in grid ticks
  Tick max_lambda_ = 0;  ///< the largest latency folded, in grid ticks
  std::vector<std::optional<Tick>> crash_;  ///< per rank; empty when none
};

}  // namespace postal
