#include "sched/bcast.hpp"

#include "support/ticks.hpp"

namespace postal {

namespace {

// The BCAST emitter on int64 ticks (docs/PERFORMANCE.md): iterative form
// of the paper's recursion -- the holder keeps sending into its shrinking
// range every unit of time; each recipient's sub-broadcast is recursed
// explicitly. fib.bcast_split is pure integer arithmetic; send times are
// carried as ticks and converted exactly when the event is recorded.
void bcast_emit_ticks(Schedule& schedule, GenFib& fib, const TickDomain& dom,
                      Tick lambda_ticks, ProcId base, std::uint64_t count,
                      Tick start, MsgId msg) {
  const Tick one = dom.q();
  ProcId holder = base;
  std::uint64_t remaining = count;
  Tick now = start;
  while (remaining >= 2) {
    const std::uint64_t j = fib.bcast_split(remaining);
    POSTAL_CHECK(j >= 1 && j <= remaining - 1);
    // The holder keeps the first j processors [holder, holder+j) and hands
    // the trailing n'-j processors [holder+j, holder+n') to the recipient,
    // which receives at now + lambda and then runs BCAST on its sub-range.
    const ProcId recipient = holder + static_cast<ProcId>(j);
    schedule.add(holder, recipient, msg, dom.to_rational(now));
    const Tick recipient_start = now + lambda_ticks;
    const std::uint64_t recipient_count = remaining - j;
    if (recipient_count >= 2) {
      bcast_emit_ticks(schedule, fib, dom, lambda_ticks, recipient,
                       recipient_count, recipient_start, msg);
    }
    // The holder continues one unit later on its own sub-range of size j.
    now += one;
    remaining = j;
  }
}

// Grid of one emission: ticks at the resolution 1/q representing lambda
// and `start` exactly. Every emitted time is start plus a multiple of 1/q
// bounded by f_lambda(count) <= count * lambda, so (start + (count + 2) *
// (lambda + 1)) far inside int64 makes the emitter's raw adds
// overflow-free; otherwise OverflowError names `site`.
void emit_on_grid(Schedule& schedule, GenFib& fib, ProcId base, std::uint64_t count,
                  const Rational& start, MsgId msg, const char* site) {
  const TickDomain dom(fold_grid(fib.lambda().den(), start, site));
  const Tick lambda_ticks = grid_ticks(dom, fib.lambda(), site);
  const Tick start_ticks = grid_ticks(dom, start, site);
  __extension__ using int128 = __int128;
  if (static_cast<int128>(start_ticks) +
          (static_cast<int128>(count) + 2) *
              (static_cast<int128>(lambda_ticks) + dom.q()) >=
      (int128{1} << 62)) {
    throw_grid_overflow(site, "tick bound for n * lambda exceeds int64");
  }
  bcast_emit_ticks(schedule, fib, dom, lambda_ticks, base, count, start_ticks, msg);
}

}  // namespace

void bcast_emit(Schedule& schedule, GenFib& fib, ProcId base, std::uint64_t count,
                const Rational& start, MsgId msg) {
  emit_on_grid(schedule, fib, base, count, start, msg, "bcast_emit");
}

Schedule bcast_schedule(const PostalParams& params, GenFib& fib) {
  POSTAL_REQUIRE(fib.lambda() == params.lambda(),
                 "bcast_schedule: GenFib lambda differs from params lambda");
  Schedule schedule;
  emit_on_grid(schedule, fib, /*base=*/0, params.n(), Rational(0), /*msg=*/0,
               "bcast_schedule");
  schedule.sort();
  return schedule;
}

Schedule bcast_schedule(const PostalParams& params) {
  GenFib fib(params.lambda());
  return bcast_schedule(params, fib);
}

Rational predict_bcast(GenFib& fib, std::uint64_t n) { return fib.f(n); }

}  // namespace postal
