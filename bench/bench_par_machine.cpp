// E24 (engineering) -- the sharded ParMachine vs. the sequential Machine
// (docs/SIMULATION.md).
//
// Every measured section runs one workload on the sequential reference and
// on the sharded engine at several lane counts, and the verdict is
// *correctness-based*: each sharded run must be byte-identical to the
// reference -- same Schedule, same Trace deliveries in the same order,
// same stats, same fault timeline. That is the determinism contract the
// lambda-barrier merge-replay exists to provide, checked here at bench
// scale (a 10^6-rank BCAST) on top of the randomized corpus in
// tests/paper/par_differential_test.cpp. Sections:
//
//   bcast_1m            BcastProtocol at n = 10^6, lanes 1 / 2 / 4;
//   bcast_1m_t4_ctr     the same at lanes 4 with TraceMode::kCounters
//                       (delivery list elided; schedule/stats/makespan/
//                       first arrivals still checked against the
//                       reference exactly);
//   faulted_64k         BcastProtocol at n = 2^16 under a crash+loss+
//                       spike plan, lanes 4 (the chaos shape, sharded).
//
// Wall times and speedups land in the bench record's extra fields but do
// not gate the verdict *here*: they are machine-dependent, and on a
// single-core box the lanes time-slice one CPU, so the sharded engine
// pays its barrier overhead with no parallel speedup to show for it. The
// speedup guard lives in scripts/compare_trajectory.py, keyed off the
// record's threads_hw so it only hard-fails on runners with >= 4
// hardware threads. The window/merge/flush/assemble wall split is
// recorded per section: merge_ms is the sequential barrier residue (slot
// assignment), flush_ms the parallel mailbox merge, assemble_ms the
// schedule assembly after the last window -- together they bound the
// speedup a multi-core box can reach (docs/PERFORMANCE.md). Each section
// also records what its engine keeps for a next run, as
// `_arena_bytes_per_rank` (ParRunInfo::arena_bytes over n); bytes do not
// depend on the host, and compare_trajectory.py holds a ceiling on the
// 2-lane figure everywhere. The record's `load1`
// extra is the host's one-minute load average when the bench started:
// speedups measured on a busy host read low, and the floor message quotes
// it so such a failure can be told from a regression.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "faults/fault_plan.hpp"
#include "model/genfib.hpp"
#include "obs/bench_record.hpp"
#include "sim/machine.hpp"
#include "sim/par_machine.hpp"
#include "sim/protocols/bcast_protocol.hpp"
#include "support/table.hpp"

namespace {

using namespace postal;

struct Section {
  std::string slug;   ///< stable bench-record key prefix, e.g. "bcast_1m_t2"
  std::string name;
  unsigned threads = 1;
  TraceMode mode = TraceMode::kFull;
  double seq_ms = 0.0;
  double par_ms = 0.0;
  double window_ms = 0.0;
  double merge_ms = 0.0;
  double flush_ms = 0.0;
  double assemble_ms = 0.0;
  std::uint64_t windows = 0;
  std::uint32_t shards = 0;
  std::uint64_t arena_growths = 0;
  double arena_bytes_per_rank = 0.0;
  std::uint64_t flush_fallback_sorts = 0;
  bool identical = false;
};

bool results_identical(const MachineResult& a, const MachineResult& b) {
  return a.schedule.events() == b.schedule.events() &&
         a.trace.deliveries() == b.trace.deliveries() &&
         a.stats.events_processed == b.stats.events_processed &&
         a.stats.sends_enqueued == b.stats.sends_enqueued &&
         a.stats.max_fifo_depth == b.stats.max_fifo_depth &&
         a.stats.port_busy == b.stats.port_busy &&
         a.faults.events == b.faults.events;
}

/// kCounters equivalence: everything except the (elided) delivery list,
/// which is replaced by its exact summary -- count, makespan, and every
/// per-(rank, message) first arrival.
bool results_identical_counters(const MachineResult& counters,
                                const MachineResult& reference) {
  if (!(counters.schedule.events() == reference.schedule.events() &&
        counters.stats.events_processed == reference.stats.events_processed &&
        counters.stats.sends_enqueued == reference.stats.sends_enqueued &&
        counters.stats.max_fifo_depth == reference.stats.max_fifo_depth &&
        counters.stats.port_busy == reference.stats.port_busy &&
        counters.faults.events == reference.faults.events)) {
    return false;
  }
  if (!counters.trace.deliveries().empty()) return false;
  if (counters.trace.delivery_count() != reference.trace.deliveries().size()) {
    return false;
  }
  if (!(counters.trace.makespan() == reference.trace.makespan())) return false;
  for (ProcId p = 0; p < reference.trace.n(); ++p) {
    if (counters.trace.arrival(p, 0) != reference.trace.arrival(p, 0)) {
      return false;
    }
  }
  return true;
}

MachineResult run_sequential(const PostalParams& params, const FaultPlan* plan,
                             double& ms) {
  Machine machine(params, /*messages=*/1);
  if (plan != nullptr) machine.attach_faults(*plan);
  BcastProtocol protocol(params);
  const obs::WallClock clock;
  MachineResult result = machine.run(protocol);
  ms = clock.elapsed_ms();
  return result;
}

Section run_sharded(const std::string& slug, const std::string& name,
                    const PostalParams& params, const FaultPlan* plan,
                    unsigned threads, TraceMode mode,
                    const MachineResult& reference, double seq_ms) {
  Section s;
  s.slug = slug;
  s.name = name;
  s.threads = threads;
  s.mode = mode;
  s.seq_ms = seq_ms;
  ParMachine machine(params, /*messages=*/1);
  machine.set_threads(threads);
  machine.set_trace_mode(mode);
  if (plan != nullptr) machine.attach_faults(*plan);
  auto factory = make_protocol_factory<BcastProtocol>(params);
  const obs::WallClock clock;
  const MachineResult result = machine.run(factory);
  s.par_ms = clock.elapsed_ms();
  const ParRunInfo& info = machine.last_run_info();
  s.window_ms = info.window_ms;
  s.merge_ms = info.merge_ms;
  s.flush_ms = info.flush_ms;
  s.assemble_ms = info.assemble_ms;
  s.windows = info.windows;
  s.shards = info.shards;
  s.arena_growths = info.arena_growths;
  s.arena_bytes_per_rank =
      static_cast<double>(info.arena_bytes) / static_cast<double>(params.n());
  s.flush_fallback_sorts = info.flush_fallback_sorts;
  s.identical = info.parallel_engine &&
                (mode == TraceMode::kFull
                     ? results_identical(result, reference)
                     : results_identical_counters(result, reference));
  return s;
}

}  // namespace

int main() {
  using namespace postal;
  double load1 = -1.0;
  if (getloadavg(&load1, 1) != 1) load1 = -1.0;
  const obs::WallClock wall;
  std::cout << "=== E24: sharded ParMachine vs. sequential Machine ===\n\n";

  std::vector<Section> sections;

  const std::uint64_t big_n = 1'000'000;
  const Rational lambda(5, 2);
  const PostalParams big(big_n, lambda);
  double big_seq_ms = 0.0;
  const MachineResult big_ref = run_sequential(big, nullptr, big_seq_ms);
  for (const unsigned threads : {1u, 2u, 4u}) {
    sections.push_back(run_sharded(
        "bcast_1m_t" + std::to_string(threads),
        "bcast n=10^6 lanes=" + std::to_string(threads), big, nullptr, threads,
        TraceMode::kFull, big_ref, big_seq_ms));
  }
  sections.push_back(run_sharded("bcast_1m_t4_ctr",
                                 "bcast n=10^6 lanes=4 counters", big, nullptr,
                                 4, TraceMode::kCounters, big_ref, big_seq_ms));

  const PostalParams faulted(std::uint64_t{1} << 16, Rational(2));
  RandomFaultOptions fopts;
  fopts.crashes = 5;
  fopts.lossy_links = 16;
  fopts.loss_p = Rational(1, 4);
  fopts.spikes = 2;
  const FaultPlan plan = random_fault_plan(faulted, /*seed=*/24, fopts);
  double faulted_seq_ms = 0.0;
  const MachineResult faulted_ref = run_sequential(faulted, &plan, faulted_seq_ms);
  sections.push_back(run_sharded("faulted_64k_t4",
                                 "bcast n=2^16 + faults lanes=4", faulted,
                                 &plan, 4, TraceMode::kFull, faulted_ref,
                                 faulted_seq_ms));

  bool all_identical = true;
  TextTable table({"section", "seq ms", "par ms", "speedup",
                   "window/merge/flush ms", "windows", "identical"});
  for (const Section& s : sections) {
    const double speedup = s.par_ms > 0.0 ? s.seq_ms / s.par_ms : 0.0;
    table.add_row({s.name, fmt(s.seq_ms, 1), fmt(s.par_ms, 1),
                   fmt(speedup, 2) + "x",
                   fmt(s.window_ms, 1) + " / " + fmt(s.merge_ms, 1) + " / " +
                       fmt(s.flush_ms, 1),
                   std::to_string(s.windows), s.identical ? "yes" : "NO"});
    all_identical = all_identical && s.identical;
  }
  table.print(std::cout);

  std::cout << "\nE24 verdict: " << (all_identical ? "CONSISTENT" : "MISMATCH")
            << "  (byte-identity-gated; wall times recorded, machine- and "
               "core-count-dependent)\n";

  obs::BenchRecord rec;
  rec.bench = "bench_par_machine";
  rec.n = big_n;
  rec.lambda = lambda;
  rec.makespan = GenFib(lambda).f(big_n);
  rec.wall_ms = wall.elapsed_ms();
  rec.verdict = all_identical ? "CONSISTENT" : "MISMATCH";
  if (load1 >= 0.0) rec.extra.emplace_back("load1", fmt(load1, 2));
  for (const Section& s : sections) {
    rec.extra.emplace_back(s.slug + "_seq_ms", fmt(s.seq_ms, 2));
    rec.extra.emplace_back(s.slug + "_par_ms", fmt(s.par_ms, 2));
    rec.extra.emplace_back(
        s.slug + "_speedup",
        fmt(s.par_ms > 0.0 ? s.seq_ms / s.par_ms : 0.0, 2));
    rec.extra.emplace_back(s.slug + "_window_ms", fmt(s.window_ms, 2));
    rec.extra.emplace_back(s.slug + "_merge_ms", fmt(s.merge_ms, 2));
    rec.extra.emplace_back(s.slug + "_flush_ms", fmt(s.flush_ms, 2));
    rec.extra.emplace_back(s.slug + "_assemble_ms", fmt(s.assemble_ms, 2));
    rec.extra.emplace_back(s.slug + "_windows", std::to_string(s.windows));
    rec.extra.emplace_back(s.slug + "_shards", std::to_string(s.shards));
    rec.extra.emplace_back(s.slug + "_threads", std::to_string(s.threads));
    rec.extra.emplace_back(s.slug + "_arena_growths",
                           std::to_string(s.arena_growths));
    rec.extra.emplace_back(s.slug + "_arena_bytes_per_rank",
                           fmt(s.arena_bytes_per_rank, 1));
    rec.extra.emplace_back(s.slug + "_flush_fallback_sorts",
                           std::to_string(s.flush_fallback_sorts));
    rec.extra.emplace_back(
        s.slug + "_trace_mode",
        s.mode == TraceMode::kCounters ? "counters" : "full");
  }
  obs::emit_bench_record(rec);
  return all_identical ? 0 : 1;
}
