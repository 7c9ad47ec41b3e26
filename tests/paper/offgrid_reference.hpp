// Off-grid timer protocols and their pinned reference runs, shared by
// tests/paper/tick_differential_test.cpp (Machine) and
// tests/paper/par_differential_test.cpp (ParMachine's sequential rerun).
//
// Each protocol arms timers whose fire times are off the run's 1/q grid,
// so the Machine must rescale its whole pending state mid-run. The
// reference strings are the pinned::render_run rendering of each run as
// the retired checked-Rational engine produced it.
#pragma once

#include <cstdint>

#include <gtest/gtest.h>

#include "faults/fault_plan.hpp"
#include "sim/machine.hpp"

namespace postal::offgrid {

/// Arms one off-grid timer (delay 1/3 with q = 2) with sends pending,
/// forcing a rescale to q = 6. Run with n = 6, lambda = 3/2.
class OneTimerProtocol final : public Protocol {
 public:
  explicit OneTimerProtocol(std::uint64_t n) : n_(n) {}

  void on_start(MachineContext& ctx) override {
    if (ctx.self() != 0) return;
    for (ProcId p = 1; p < n_; ++p) ctx.send(p, Packet{0, 0, 0});
    ctx.set_timer(Rational(1, 3), /*token=*/7);  // off the 1/2 grid
  }

  void on_receive(MachineContext& ctx, const Packet& packet) override {
    static_cast<void>(packet);
    if (ctx.self() == 1 && !echoed_) {
      echoed_ = true;
      ctx.send(0, Packet{0, 1, 0});
    }
  }

  void on_timer(MachineContext& ctx, std::uint64_t token) override {
    EXPECT_EQ(token, 7u);
    EXPECT_EQ(ctx.now(), Rational(1, 3));
    // Post-rescale traffic: must interleave exactly as in the reference.
    ctx.send(static_cast<ProcId>(n_ - 1), Packet{0, 2, 0});
  }

 private:
  std::uint64_t n_;
  bool echoed_ = false;
};

/// Two successive off-grid timers (1/3, then 1/5 later) under lambda = 3/2:
/// the grid goes q = 2 -> 6 -> 30 mid-run, and every delivery happens
/// after both rescales. Run with n = 8 and crash_and_spike_plan(): p7 hears
/// from p0 before its crash and relays to p3 inside the spike window, where
/// the 1/2 extra latency makes the relay land exactly on p3's crash -- so
/// the crash and spike ticks must have been rescaled with everything else.
class TwoTimersProtocol final : public Protocol {
 public:
  explicit TwoTimersProtocol(std::uint64_t n) : n_(n) {}

  void on_start(MachineContext& ctx) override {
    if (ctx.self() != 0) return;
    ctx.send(static_cast<ProcId>(n_ - 1), Packet{0, 0, 0});
    for (ProcId p = 1; p + 1 < n_; ++p) ctx.send(p, Packet{0, 0, 0});
    ctx.set_timer(Rational(1, 3), /*token=*/1);  // off the 1/2 grid
  }

  void on_receive(MachineContext& ctx, const Packet& packet) override {
    static_cast<void>(packet);
    if (ctx.self() == 1 && !echoed_) {
      echoed_ = true;
      ctx.send(0, Packet{0, 1, 0});
    }
    if (ctx.self() == n_ - 1 && !relayed_) {
      relayed_ = true;
      ctx.send(3, Packet{0, 2, 0});
    }
  }

  void on_timer(MachineContext& ctx, std::uint64_t token) override {
    if (token == 1) {
      EXPECT_EQ(ctx.now(), Rational(1, 3));
      ctx.send(static_cast<ProcId>(n_ - 1), Packet{0, 3, 0});
      ctx.set_timer(Rational(1, 5), /*token=*/2);  // off the 1/6 grid
    } else {
      EXPECT_EQ(token, 2u);
      EXPECT_EQ(ctx.now(), Rational(8, 15));
      ctx.send(2, Packet{0, 4, 0});
    }
  }

 private:
  std::uint64_t n_;
  bool echoed_ = false;
  bool relayed_ = false;
};

/// p7 crashes at 5/2 and p3 at 7/2; sends starting in [1, 4) take 1/2
/// extra.
inline FaultPlan crash_and_spike_plan() {
  FaultPlan plan;
  plan.crashes = {CrashFault{7, Rational(5, 2)}, CrashFault{3, Rational(7, 2)}};
  plan.spikes = {LatencySpike{Rational(1), Rational(4), Rational(1, 2)}};
  return plan;
}

/// OneTimerProtocol, n = 6, lambda = 3/2.
inline constexpr const char* kOneTimerReference = R"(send p0->p1 M0 @0
send p0->p2 M0 @1
send p1->p0 M0 @3/2
send p0->p3 M0 @2
send p0->p4 M0 @3
send p0->p5 M0 @4
send p0->p5 M0 @5
deliver p0->p1 M0 sent 0 arrived 3/2
deliver p0->p2 M0 sent 1 arrived 5/2
deliver p1->p0 M0 sent 3/2 arrived 3
deliver p0->p3 M0 sent 2 arrived 7/2
deliver p0->p4 M0 sent 3 arrived 9/2
deliver p0->p5 M0 sent 4 arrived 11/2
deliver p0->p5 M0 sent 5 arrived 13/2
stats events=7 sends=7 deferred=5 timers_set=1 timers_fired=1 receives_queued=0 max_fifo=6
port_busy 6 1 0 0 0 0
faults crashes=0 suppressed=0 drop_crash=0 drop_loss=0 spikes=0
)";

/// TwoTimersProtocol, n = 8, lambda = 3/2, crash_and_spike_plan().
inline constexpr const char* kTwoTimersReference = R"(send p0->p7 M0 @0
send p0->p1 M0 @1
send p7->p3 M0 @3/2
send p0->p2 M0 @2
send p0->p3 M0 @3
send p1->p0 M0 @3
send p0->p4 M0 @4
send p0->p5 M0 @5
send p0->p6 M0 @6
send p0->p7 M0 @7
send p0->p2 M0 @8
deliver p0->p7 M0 sent 0 arrived 3/2
deliver p0->p1 M0 sent 1 arrived 3
deliver p0->p2 M0 sent 2 arrived 4
deliver p1->p0 M0 sent 3 arrived 5
deliver p0->p4 M0 sent 4 arrived 11/2
deliver p0->p5 M0 sent 5 arrived 13/2
deliver p0->p6 M0 sent 6 arrived 15/2
deliver p0->p2 M0 sent 8 arrived 19/2
stats events=8 sends=11 deferred=8 timers_set=2 timers_fired=2 receives_queued=0 max_fifo=9
port_busy 9 1 0 0 0 0 0 1
faults crashes=2 suppressed=0 drop_crash=3 drop_loss=0 spikes=5
fault crash @7/2 p3 peer p3
fault crash @5/2 p7 peer p7
fault spike @1 p0 peer p1
fault spike @2 p0 peer p2
fault spike @3 p0 peer p3
fault spike @3/2 p7 peer p3
fault spike @3 p1 peer p0
fault drop-crash @7/2 p3 peer p7
fault drop-crash @5 p3 peer p0
fault drop-crash @17/2 p7 peer p0
)";

}  // namespace postal::offgrid
