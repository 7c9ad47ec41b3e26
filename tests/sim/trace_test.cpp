// Tests for Trace: coverage, order preservation, arrival bookkeeping, and
// the tick-record storage under the Rational accessors.
#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "sim/machine.hpp"
#include "test_util.hpp"

namespace postal {
namespace {

/// A delivery record; times in ticks of the trace's grid (1/1 unless the
/// test names another q).
TickDelivery mk(ProcId src, ProcId dst, MsgId msg, Tick start, Tick arrive) {
  return TickDelivery{src, dst, msg, start, arrive};
}

/// The view's Delivery values, copied out.
std::vector<Delivery> values(const DeliveryView& view) {
  return {view.begin(), view.end()};
}

TEST(Trace, StartsEmpty) {
  const Trace t(3, 2);
  EXPECT_EQ(t.makespan(), Rational(0));
  EXPECT_FALSE(t.covers_all(0));
  EXPECT_TRUE(t.order_preserving());
  EXPECT_FALSE(t.arrival(1, 0).has_value());
}

TEST(Trace, RecordsFirstArrival) {
  Trace t(3, 1);
  t.record(mk(0, 1, 0, 0, 2));
  t.record(mk(2, 1, 0, 3, 5));  // duplicate, later
  ASSERT_TRUE(t.arrival(1, 0).has_value());
  EXPECT_EQ(*t.arrival(1, 0), Rational(2));
  EXPECT_EQ(t.makespan(), Rational(5));
}

TEST(Trace, EarlierDuplicateWins) {
  Trace t(3, 1);
  t.record(mk(0, 1, 0, 3, 5));
  t.record(mk(2, 1, 0, 0, 2));
  EXPECT_EQ(*t.arrival(1, 0), Rational(2));
}

TEST(Trace, CoverageExcludesOrigin) {
  Trace t(3, 1);
  t.record(mk(0, 1, 0, 0, 2));
  EXPECT_FALSE(t.covers_all(0));
  t.record(mk(1, 2, 0, 2, 4));
  EXPECT_TRUE(t.covers_all(0));
  EXPECT_FALSE(t.covers_all(1)) << "p0 never received anything";
}

TEST(Trace, UncoveredListsMissingProcessors) {
  Trace t(4, 2);
  t.record(mk(0, 1, 0, 0, 2));
  t.record(mk(0, 1, 1, 1, 3));
  const auto missing = t.uncovered(0);
  EXPECT_EQ(missing, (std::vector<ProcId>{2, 3}));
}

TEST(Trace, OrderPreservationHolds) {
  Trace t(2, 3);
  t.record(mk(0, 1, 0, 0, 2));
  t.record(mk(0, 1, 1, 1, 3));
  t.record(mk(0, 1, 2, 2, 4));
  EXPECT_TRUE(t.order_preserving());
  EXPECT_TRUE(t.order_violations().empty());
}

TEST(Trace, OrderViolationDetected) {
  Trace t(2, 2);
  t.record(mk(0, 1, 1, 0, 2));  // M2 first
  t.record(mk(0, 1, 0, 1, 3));
  EXPECT_FALSE(t.order_preserving());
  const auto violations = t.order_violations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("p1"), std::string::npos);
  EXPECT_EQ(violations[0], "p1 received M2 at t=2 before M1 at t=3");
}

TEST(Trace, OrderViolationQuotesRationalTimes) {
  Trace t(2, 2, /*q=*/2);
  t.record(mk(0, 1, 1, 2, 5));  // M2 at 5/2
  t.record(mk(0, 1, 0, 3, 6));  // M1 at 3
  EXPECT_EQ(t.order_violations(),
            std::vector<std::string>{"p1 received M2 at t=5/2 before M1 at t=3"});
}

TEST(Trace, MissingEarlierMessageIsNoOrderViolation) {
  // Only first arrivals that both happened are compared: a never-arrived
  // M1 is not "later" than M2.
  Trace t(2, 2);
  t.record(mk(0, 1, 1, 0, 2));
  EXPECT_TRUE(t.order_preserving());
  EXPECT_FALSE(t.arrival(1, 0).has_value());
}

TEST(Trace, SimultaneousArrivalIsOrderPreserving) {
  // Equal first-arrival times do not violate order (not strictly earlier).
  Trace t(2, 2);
  t.record(mk(0, 1, 0, 0, 2));
  t.record(mk(0, 1, 1, 0, 2));
  EXPECT_TRUE(t.order_preserving());
}

TEST(Trace, RejectsOutOfRangeIds) {
  Trace t(2, 1);
  EXPECT_THROW(t.record(mk(0, 5, 0, 0, 1)), InvalidArgument);
  EXPECT_THROW(t.record(mk(0, 1, 3, 0, 1)), InvalidArgument);
  POSTAL_EXPECT_THROW(t.arrival(5, 0), InvalidArgument);
  POSTAL_EXPECT_THROW(t.arrival(0, 9), InvalidArgument);
}

TEST(Trace, RejectsMoreProcessorsThanProcIdRange) {
  // Ranks are 32-bit: n = 2^32 is the largest trace, and the check fires
  // before any table is allocated.
  POSTAL_EXPECT_THROW(Trace((std::uint64_t{1} << 32) + 1, 0), InvalidArgument);
  POSTAL_EXPECT_THROW(Trace(std::uint64_t{1} << 40, 1), InvalidArgument);
  const Trace widest(std::uint64_t{1} << 32, 0);
  EXPECT_TRUE(widest.covers_all(0));
  EXPECT_TRUE(widest.order_preserving());
}

TEST(Trace, ZeroMessagesAlwaysCovered) {
  const Trace t(5, 0);
  EXPECT_TRUE(t.covers_all(0));
  EXPECT_TRUE(t.order_preserving());
}

TEST(Trace, ZeroDeliveriesHasMakespanZero) {
  // The documented convention (see Trace::makespan): a trace with no
  // deliveries completes at t = 0. The canonical producer is broadcasting
  // among n = 1 processors -- the origin already holds the message, nothing
  // is sent, and the run is legitimately done at time zero.
  const Trace t(1, 1);
  EXPECT_TRUE(t.deliveries().empty());
  EXPECT_EQ(t.makespan(), Rational(0));
  EXPECT_TRUE(t.covers_all(0));  // no non-origin processor to reach
  EXPECT_TRUE(t.order_preserving());
}

TEST(Trace, ArrivalAtTickZeroIsNotNeverArrived) {
  Trace t(3, 1);
  t.record(mk(0, 1, 0, 0, 0));
  ASSERT_TRUE(t.arrival(1, 0).has_value());
  EXPECT_EQ(*t.arrival(1, 0), Rational(0));
  EXPECT_FALSE(t.arrival(2, 0).has_value());
  EXPECT_EQ(t.uncovered(0), std::vector<ProcId>{2});
  EXPECT_EQ(t.makespan(), Rational(0));
}

TEST(Trace, DeliveriesYieldRationalTimes) {
  Trace t(4, 1, /*q=*/2);
  t.record(mk(0, 3, 0, 5, 10));
  ASSERT_EQ(t.deliveries().size(), 1u);
  EXPECT_EQ(t.deliveries()[0], (Delivery{0, 3, 0, Rational(5, 2), Rational(5)}));
  EXPECT_EQ(t.deliveries().records()[0], mk(0, 3, 0, 5, 10));
  EXPECT_EQ(t.makespan(), Rational(5));
}

TEST(Trace, DeliveriesCompareByValueAcrossGrids) {
  Trace half(3, 1, /*q=*/2);
  Trace sixth(3, 1, /*q=*/6);
  half.record(mk(0, 1, 0, 1, 4));    // sent 1/2, arrived 2
  sixth.record(mk(0, 1, 0, 3, 12));  // the same times on 1/6
  EXPECT_EQ(half.deliveries(), sixth.deliveries());

  Trace late(3, 1, /*q=*/6);
  late.record(mk(0, 1, 0, 3, 13));  // arrives one tick later
  EXPECT_NE(half.deliveries(), late.deliveries());
  EXPECT_NE(sixth.deliveries(), late.deliveries());

  Trace other_dst(3, 1, /*q=*/6);
  other_dst.record(mk(0, 2, 0, 3, 12));
  EXPECT_NE(half.deliveries(), other_dst.deliveries());
  EXPECT_NE(half.deliveries(), Trace(3, 1, 2).deliveries());
}

TEST(Trace, RescaledTraceKeepsRationalValues) {
  Trace t(3, 2, /*q=*/2);
  t.record(mk(0, 1, 0, 1, 4));
  t.record(mk(1, 0, 1, 4, 7));
  const std::vector<Delivery> before = values(t.deliveries());
  t.rescale(6);
  EXPECT_EQ(t.q(), 6);
  EXPECT_EQ(t.deliveries().records()[0], mk(0, 1, 0, 3, 12));
  EXPECT_EQ(values(t.deliveries()), before);
  EXPECT_EQ(*t.arrival(1, 0), Rational(2));
  EXPECT_EQ(*t.arrival(0, 1), Rational(7, 2));
  EXPECT_FALSE(t.arrival(2, 0).has_value()) << "never-arrived cells stay unreached";
  EXPECT_EQ(t.makespan(), Rational(7, 2));
  POSTAL_EXPECT_THROW(t.rescale(9), InvalidArgument);  // not a multiple of 6
}

TEST(Trace, CountersMakespanSurvivesRescale) {
  Trace t(3, 1, /*q=*/2, TraceMode::kCounters);
  t.record(mk(0, 1, 0, 0, 3));
  t.rescale(6);
  EXPECT_EQ(t.makespan(), Rational(3, 2));
  EXPECT_EQ(t.delivery_count(), 1u);
  EXPECT_TRUE(t.deliveries().empty());
  t.counters_fold(1, 10);  // 10/6, on the new grid
  EXPECT_EQ(t.makespan(), Rational(5, 3));
}

TEST(Delivery, StreamsAsOneLine) {
  std::ostringstream os;
  os << Delivery{3, 7, 0, Rational(5, 2), Rational(5)};
  EXPECT_EQ(os.str(), "p3->p7 M0 sent 5/2 arrived 5");

  // A failed EXPECT_EQ on two views prints the deliveries themselves.
  Trace t(8, 1, /*q=*/2);
  t.record(mk(3, 7, 0, 5, 10));
  EXPECT_EQ(::testing::PrintToString(t.deliveries()), "{ p3->p7 M0 sent 5/2 arrived 5 }");
}

/// p0 sends M0 to p1 (lambda = 3/2, so the run starts on q = 2). p1's
/// receipt arms a timer 1/3 later, off that grid: the Machine rescales to
/// q = 6 with one delivery already in the trace. With `relay`, the timer
/// sends on to p2.
class LateOffGridTimer final : public Protocol {
 public:
  explicit LateOffGridTimer(bool relay) : relay_(relay) {}
  void on_start(MachineContext& ctx) override {
    if (ctx.self() == 0) ctx.send(1, Packet{0, 0, 0});
  }
  void on_receive(MachineContext& ctx, const Packet& packet) override {
    static_cast<void>(packet);
    if (ctx.self() == 1) ctx.set_timer(Rational(1, 3), 0);
  }
  void on_timer(MachineContext& ctx, std::uint64_t token) override {
    static_cast<void>(token);
    if (relay_) ctx.send(2, Packet{0, 0, 0});
  }

 private:
  bool relay_;
};

TEST(Trace, MachineRescalesRecordedDeliveries) {
  Machine machine(PostalParams(3, Rational(3, 2)), 1);
  LateOffGridTimer protocol(/*relay=*/true);
  const MachineResult r = machine.run(protocol);
  EXPECT_EQ(r.trace.q(), 6);
  const std::vector<Delivery> want{
      {0, 1, 0, Rational(0), Rational(3, 2)},
      {1, 2, 0, Rational(11, 6), Rational(10, 3)},
  };
  EXPECT_EQ(values(r.trace.deliveries()), want);
  EXPECT_EQ(*r.trace.arrival(1, 0), Rational(3, 2));
  EXPECT_EQ(r.trace.makespan(), Rational(10, 3));
}

TEST(Trace, MachineCountersMakespanAfterRescale) {
  // Without the relay the latest arrival lands before the rescale, so the
  // counters' makespan tick must move onto the finer grid with everything
  // else; with it, the latest arrival is recorded on the finer grid.
  for (const bool relay : {false, true}) {
    Machine machine(PostalParams(3, Rational(3, 2)), 1);
    machine.set_trace_mode(TraceMode::kCounters);
    LateOffGridTimer protocol(relay);
    const MachineResult r = machine.run(protocol);
    EXPECT_EQ(r.trace.q(), 6) << relay;
    EXPECT_EQ(r.trace.delivery_count(), relay ? 2u : 1u);
    EXPECT_EQ(r.trace.makespan(), relay ? Rational(10, 3) : Rational(3, 2));
    EXPECT_EQ(*r.trace.arrival(1, 0), Rational(3, 2));
  }
}

}  // namespace
}  // namespace postal
