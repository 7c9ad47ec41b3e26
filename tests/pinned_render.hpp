// Canonical text renderings of simulator outputs, for pinned-reference
// tests (tests/paper/tick_differential_test.cpp, par_differential_test.cpp,
// tests/sim/validator_order_test.cpp).
//
// Each render_* function writes every compared field of a result -- the
// schedule, trace deliveries, stats, fault counters and fault timeline,
// validator verdicts and violation strings, packet-network deliveries and
// wire use, sweep points -- one record per line with exact Rational
// rendering. A corpus is pinned as the FNV-1a digest of its concatenated
// renderings; small runs are pinned as the literal rendering itself. On a
// mismatch the tests print the rendering, so a diff against the recorded
// reference shows the first divergent field.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "net/packet_sim.hpp"
#include "par/sweep.hpp"
#include "sim/machine.hpp"
#include "sim/validator.hpp"

namespace postal::pinned {

/// 64-bit FNV-1a over the bytes of `text`.
inline std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline const char* fault_kind(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kCrash: return "crash";
    case FaultEvent::Kind::kSendSuppressed: return "suppressed";
    case FaultEvent::Kind::kDropCrash: return "drop-crash";
    case FaultEvent::Kind::kDropLoss: return "drop-loss";
    case FaultEvent::Kind::kSpike: return "spike";
  }
  return "?";
}

inline void render_faults(std::ostream& os, const FaultStats& f) {
  os << "faults crashes=" << f.crashes_applied << " suppressed=" << f.sends_suppressed
     << " drop_crash=" << f.drops_crash << " drop_loss=" << f.drops_loss
     << " spikes=" << f.spikes_applied << "\n";
  for (const FaultEvent& e : f.events) {
    os << "fault " << fault_kind(e.kind) << " @" << e.time << " p" << e.proc << " peer p"
       << e.peer << "\n";
  }
}

inline void render_deliveries(std::ostream& os, const DeliveryView& ds) {
  for (const Delivery& d : ds) os << "deliver " << d << "\n";
}

/// Everything a MachineResult exposes.
inline std::string render_run(const MachineResult& r) {
  std::ostringstream os;
  for (const SendEvent& e : r.schedule.events()) {
    os << "send p" << e.src << "->p" << e.dst << " M" << e.msg << " @" << e.t << "\n";
  }
  render_deliveries(os, r.trace.deliveries());
  const MachineStats& s = r.stats;
  os << "stats events=" << s.events_processed << " sends=" << s.sends_enqueued
     << " deferred=" << s.sends_deferred << " timers_set=" << s.timers_set
     << " timers_fired=" << s.timers_fired << " receives_queued=" << s.receives_queued
     << " max_fifo=" << s.max_fifo_depth << "\nport_busy";
  for (const Rational& b : s.port_busy) os << " " << b;
  os << "\n";
  render_faults(os, r.faults);
  return os.str();
}

/// Verdict, violation strings, makespan, order property, and deliveries.
inline std::string render_report(const SimReport& r) {
  std::ostringstream os;
  os << "report ok=" << r.ok << " makespan=" << r.makespan
     << " order_preserving=" << r.order_preserving << "\n";
  for (const std::string& v : r.violations) os << "violation " << v << "\n";
  render_deliveries(os, r.trace.deliveries());
  return os.str();
}

/// Deliveries plus every NetRunStats field.
inline std::string render_net(const std::vector<NetDelivery>& ds, const NetRunStats& s) {
  std::ostringstream os;
  for (const NetDelivery& d : ds) {
    os << "net p" << d.src << "->p" << d.dst << " M" << d.msg << " requested "
       << d.requested << " delivered " << d.delivered << "\n";
  }
  os << "net stats delivered=" << s.packets_delivered << " hops=" << s.hops_total
     << " jitter_draws=" << s.jitter_draws << " egress=" << s.egress_busy_total
     << " ingress=" << s.ingress_busy_total << " makespan=" << s.makespan << "\n";
  for (const WireUse& w : s.wires) {
    os << "wire " << w.from << "->" << w.to << " packets=" << w.packets
       << " busy=" << w.busy << "\n";
  }
  render_faults(os, s.faults);
  return os.str();
}

/// Every sweep point field except the wall times.
inline std::string render_sweep(const std::vector<par::SweepPointResult>& points) {
  std::ostringstream os;
  for (const par::SweepPointResult& r : points) {
    os << "point n=" << r.n << " lambda=" << r.lambda << " f=" << r.f << " dp=" << r.dp
       << " greedy=" << r.greedy << " makespan=" << r.makespan << " sends=" << r.sends
       << " ok=" << r.ok << "\n";
  }
  return os.str();
}

/// Assert `rendering` hashes to the pinned digest; print it on mismatch.
inline void expect_digest(const std::string& corpus, const std::string& rendering,
                          std::uint64_t pinned) {
  const std::uint64_t got = fnv1a(rendering);
  EXPECT_EQ(got, pinned) << corpus << ": digest 0x" << std::hex << got
                         << " differs from the pinned reference 0x" << pinned
                         << std::dec << "; rendering:\n"
                         << rendering;
}

}  // namespace postal::pinned
