#include "sim/protocols/reliable_bcast.hpp"

#include <algorithm>
#include <memory>

#include "sim/par_machine.hpp"
#include "support/error.hpp"

namespace postal {
namespace {

// Wire encoding. Both kinds carry the sender in ctl_a's high half (the
// postal model has no implicit sender on delivery). DATA additionally
// carries the recipient's assigned range [lo, hi) -- lo in ctl_a's low
// half, hi in ctl_b. Ranges always have hi >= 1, and ACKs set ctl_b = 0,
// so ctl_b discriminates the two kinds. Requires n <= 2^32.
constexpr std::uint64_t kLoMask = 0xffffffffULL;

Packet make_data(ProcId sender, std::uint64_t lo, std::uint64_t hi) {
  return Packet{/*msg=*/0, (static_cast<std::uint64_t>(sender) << 32) | lo, hi};
}

Packet make_ack(ProcId sender) {
  return Packet{/*msg=*/0, static_cast<std::uint64_t>(sender) << 32, 0};
}

// Factory for the sharded runner: one ReliableBcastProtocol per shard,
// counters folded back on reclaim. Each counter increments inside exactly
// one rank's handler, and a rank's handlers run on the shard that owns it,
// so the per-shard sums equal the sequential run's totals.
class ReliableBcastFactory final : public ShardProtocolFactory {
 public:
  ReliableBcastFactory(const PostalParams& params,
                       const ReliableBcastOptions& options)
      : params_(params), options_(options) {}

  [[nodiscard]] std::unique_ptr<Protocol> make(std::uint32_t /*shard*/,
                                               std::uint32_t /*shards*/) override {
    return std::make_unique<ReliableBcastProtocol>(params_, options_);
  }

  void reclaim(std::uint32_t /*shard*/,
               std::unique_ptr<Protocol> protocol) override {
    const ReliableBcastCounters& c =
        static_cast<const ReliableBcastProtocol&>(*protocol).counters();
    counters_.data_sends += c.data_sends;
    counters_.retransmissions += c.retransmissions;
    counters_.acks_sent += c.acks_sent;
    counters_.acks_received += c.acks_received;
    counters_.timeouts += c.timeouts;
    counters_.dead_declared += c.dead_declared;
    counters_.repairs += c.repairs;
  }

  [[nodiscard]] const ReliableBcastCounters& counters() const noexcept {
    return counters_;
  }

 private:
  const PostalParams& params_;
  const ReliableBcastOptions& options_;
  ReliableBcastCounters counters_;
};

}  // namespace

ReliableBcastProtocol::ReliableBcastProtocol(const PostalParams& params,
                                             ReliableBcastOptions options)
    : origin_(0),
      lambda_(params.lambda()),
      fib_(params.lambda()),
      options_(options),
      state_(params.n()) {
  POSTAL_REQUIRE(params.n() <= (1ULL << 32),
                 "ReliableBcastProtocol: packet encoding requires n <= 2^32");
  POSTAL_REQUIRE(options_.max_attempts >= 1,
                 "ReliableBcastProtocol: max_attempts must be >= 1");
  POSTAL_REQUIRE(options_.timeout_slack >= Rational(0),
                 "ReliableBcastProtocol: timeout_slack must be >= 0");
}

Rational ReliableBcastProtocol::do_send(MachineContext& ctx, ProcId dst,
                                        const Packet& packet) {
  // Mirror the machine's output-port FIFO so the exact transmission start
  // is known locally (timers are armed relative to it).
  ProcState& st = state_[ctx.self()];
  const Rational start = rmax(ctx.now(), st.port_free);
  st.port_free = start + Rational(1);
  ctx.send(dst, packet);
  return start;
}

Rational ReliableBcastProtocol::timeout_base(std::uint64_t m) {
  // From the DATA send start: lambda for the flight, f_lambda(m) for the
  // child to finish its subtree, ~2 f_lambda(m) for the aggregate-ack
  // convergecast back up (each return hop costs lambda, plus input-port
  // serialization when sibling acks collide). 3 f + 2 lambda + slack
  // provably over-covers the fault-free case; the tests assert zero
  // timeouts fire early.
  const Rational fm = fib_.f(std::max<std::uint64_t>(m, 1));
  return fm * Rational(3) + lambda_ * Rational(2) + options_.timeout_slack;
}

ReliableBcastProtocol::ChildSlot* ReliableBcastProtocol::find_slot(
    ProcId self, ProcId child) {
  for (ChildSlot& slot : state_[self].children) {
    if (slot.child == child) return &slot;
  }
  return nullptr;
}

void ReliableBcastProtocol::send_data(MachineContext& ctx, ProcId child,
                                      std::uint64_t lo, std::uint64_t hi) {
  ProcState& st = state_[ctx.self()];
  st.children.push_back(
      ChildSlot{child, lo, hi, /*attempts=*/1, SlotState::kPending});
  ++counters_.data_sends;
  const Rational start = do_send(ctx, child, make_data(ctx.self(), lo, hi));
  ctx.set_timer(start + timeout_base(hi - lo) - ctx.now(),
                static_cast<std::uint64_t>(child));
}

void ReliableBcastProtocol::spawn_children(MachineContext& ctx,
                                           std::uint64_t hi) {
  // Algorithm BCAST's generalized-Fibonacci splits of [self, hi), exactly
  // as in BcastProtocol -- fault-free, the resulting schedule is
  // event-for-event the optimal one -- but every delegation is tracked.
  const std::uint64_t self = ctx.self();
  std::uint64_t count = hi - self;
  while (count >= 2) {
    const std::uint64_t j = fib_.bcast_split(count);
    const std::uint64_t target = self + j;
    send_data(ctx, static_cast<ProcId>(target), target, hi);
    hi = target;  // the holder keeps [self, self + j)
    count = j;
  }
}

void ReliableBcastProtocol::maybe_ack(MachineContext& ctx) {
  // Aggregate ack: only once the entire assigned subtree is resolved may
  // the waiting parents be acked. Acking earlier would let a relay that
  // acks and then crashes before forwarding silently orphan its subtree.
  ProcState& st = state_[ctx.self()];
  if (!st.has_data || st.waiting.empty()) return;
  for (const ChildSlot& slot : st.children) {
    if (slot.state == SlotState::kPending) return;
  }
  for (const ProcId parent : st.waiting) {
    ++counters_.acks_sent;
    do_send(ctx, parent, make_ack(ctx.self()));
  }
  st.waiting.clear();
}

void ReliableBcastProtocol::on_start(MachineContext& ctx) {
  if (ctx.self() != origin_) return;
  ProcState& st = state_[origin_];
  st.has_data = true;
  st.hi = ctx.params().n();
  spawn_children(ctx, st.hi);
}

void ReliableBcastProtocol::on_receive(MachineContext& ctx,
                                       const Packet& packet) {
  const ProcId self = ctx.self();
  const ProcId sender = static_cast<ProcId>(packet.ctl_a >> 32);
  if (packet.ctl_b == 0) {
    // ACK: the sender's whole subtree is resolved.
    ++counters_.acks_received;
    if (ChildSlot* slot = find_slot(self, sender)) {
      if (slot->state != SlotState::kAcked) {
        slot->state = SlotState::kAcked;
        maybe_ack(ctx);
      }
    }
    return;
  }

  // DATA assigning [lo, hi) == [self, hi).
  const std::uint64_t hi = packet.ctl_b;
  POSTAL_CHECK((packet.ctl_a & kLoMask) == self);
  ProcState& st = state_[self];
  if (!st.has_data) {
    st.has_data = true;
    st.hi = hi;
    spawn_children(ctx, hi);
  } else if (hi > st.hi) {
    // Range extension (a repair handed this processor a wider remainder
    // than it already owns): only the new tail [old_hi, hi) needs work;
    // delegate it to its head, which splits it optimally.
    const std::uint64_t old_hi = st.hi;
    st.hi = hi;
    ++counters_.repairs;
    send_data(ctx, static_cast<ProcId>(old_hi), old_hi, hi);
  }
  // Owe the sender an ack (duplicates from retransmissions are answered
  // once the subtree resolves; an already-done processor re-acks at once).
  if (std::find(st.waiting.begin(), st.waiting.end(), sender) ==
      st.waiting.end()) {
    st.waiting.push_back(sender);
  }
  maybe_ack(ctx);
}

void ReliableBcastProtocol::on_timer(MachineContext& ctx, std::uint64_t token) {
  const ProcId self = ctx.self();
  const ProcId child = static_cast<ProcId>(token);
  ChildSlot* slot = find_slot(self, child);
  if (slot == nullptr || slot->state != SlotState::kPending) return;
  ++counters_.timeouts;

  if (slot->attempts >= options_.max_attempts) {
    // Give up on the child and repair: it owned [lo, hi); re-root the
    // orphaned remainder [lo + 1, hi) at processor lo + 1. If that one is
    // dead too, its own timeout repairs with [lo + 2, hi), and so on.
    slot->state = SlotState::kDead;
    ++counters_.dead_declared;
    const std::uint64_t lo = slot->lo;
    const std::uint64_t hi = slot->hi;
    if (lo + 1 < hi) {
      ++counters_.repairs;
      // Invalidates `slot` (push_back) -- locals only from here.
      send_data(ctx, static_cast<ProcId>(lo + 1), lo + 1, hi);
    } else {
      // Nothing left to salvage; the slot's resolution may complete us.
      maybe_ack(ctx);
    }
    return;
  }

  // Retransmit with exponentially growing patience.
  ++slot->attempts;
  ++counters_.retransmissions;
  const Rational start =
      do_send(ctx, child, make_data(self, slot->lo, slot->hi));
  const std::uint32_t shift = std::min<std::uint32_t>(slot->attempts - 1, 20);
  const Rational patience =
      timeout_base(slot->hi - slot->lo) * Rational(std::int64_t{1} << shift);
  ctx.set_timer(start + patience - ctx.now(), token);
}

ReliableBcastReport run_reliable_bcast(const PostalParams& params,
                                       const FaultPlan* plan,
                                       const ReliableBcastOptions& options) {
  ReliableBcastReport report;
  if (options.threads > 1) {
    ParMachine machine(params, /*messages=*/1);
    machine.set_threads(options.threads);
    machine.set_trace_mode(options.trace_mode);
    if (plan != nullptr) machine.attach_faults(*plan);
    ReliableBcastFactory factory(params, options);
    report.result = machine.run(factory);
    report.counters = factory.counters();
  } else {
    Machine machine(params, /*messages=*/1);
    machine.set_trace_mode(options.trace_mode);
    if (plan != nullptr) machine.attach_faults(*plan);
    ReliableBcastProtocol protocol(params, options);
    report.result = machine.run(protocol);
    report.counters = protocol.counters();
  }

  GenFib fib(params.lambda());
  report.baseline = params.n() >= 2 ? fib.f(params.n()) : Rational(0);

  const std::uint64_t n = params.n();
  std::vector<bool> crashed(n, false);
  if (plan != nullptr) {
    for (const CrashFault& c : plan->crashes) {
      if (c.proc < n && !crashed[c.proc]) {
        crashed[c.proc] = true;
        report.crashed.push_back(c.proc);
      }
    }
    std::sort(report.crashed.begin(), report.crashed.end());
  }

  // Coverage and completion are judged from the trace (actual deliveries),
  // never from the schedule: a lost transmission is in the schedule but
  // delivered nothing.
  report.completion = Rational(0);
  for (ProcId p = 1; p < n; ++p) {
    if (crashed[p]) continue;
    const auto arrival = report.result.trace.arrival(p, 0);
    if (!arrival.has_value()) {
      report.uncovered_alive.push_back(p);
    } else if (*arrival > report.completion) {
      report.completion = *arrival;
    }
  }
  report.covered = report.uncovered_alive.empty();
  report.recovery_overhead = report.completion > report.baseline
                                 ? report.completion - report.baseline
                                 : Rational(0);

  ValidatorOptions vopts;
  vopts.messages = 1;
  vopts.fifo_receive = true;
  if (plan != nullptr) vopts.crashes = plan->crashes;
  report.validation =
      validate_schedule(report.result.schedule, params, vopts);
  return report;
}

}  // namespace postal
