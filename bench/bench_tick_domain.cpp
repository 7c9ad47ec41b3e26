// E22 (engineering) -- the tick engines timed against independent
// references (docs/PERFORMANCE.md).
//
// Every hot loop runs on int64 ticks only. Each section times one workload
// once and checks its result against a reference that shares no tick code
// with it:
//
//   dp_table     optimal_broadcast_dp_table, the O(n^2) split recursion
//                that dominates par::sweep_grid: every entry equals
//                GenFib's f_lambda(k), and the greedy search agrees at n;
//   greedy       optimal_broadcast_greedy frontier expansion: equals
//                f_lambda(n);
//   validator    validate_schedule over BCAST and PIPELINE-2 schedules:
//                both pass, the BCAST makespan equals f_lambda(n);
//   machine      the event-driven Machine under BcastProtocol: its
//                schedule equals bcast_schedule, its makespan f_lambda(n);
//   machine_f    the Machine under BcastProtocol with a crash+loss+spike
//                fault plan attached: the crash-aware validator accepts
//                the truncated schedule;
//   sweep        par::sweep_grid itself, cold caches, 1 thread: every point
//                has f == dp == greedy == validated makespan.
//
// The verdict is correctness-based. Wall-clock times are recorded per
// section in the bench record's extra fields (`<section>_tick_ms`); they
// are machine-dependent and do not gate the verdict.
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "brute/optimal_search.hpp"
#include "faults/fault_plan.hpp"
#include "model/genfib.hpp"
#include "obs/bench_record.hpp"
#include "par/sweep.hpp"
#include "sched/bcast.hpp"
#include "sched/pipeline.hpp"
#include "sim/machine.hpp"
#include "sim/protocols/bcast_protocol.hpp"
#include "sim/validator.hpp"
#include "support/table.hpp"

namespace {

using namespace postal;

struct Section {
  std::string slug;  ///< stable bench-record key prefix, e.g. "dp_table"
  std::string name;
  double tick_ms = 0.0;
  bool consistent = false;
};

/// Time `run` once and judge its result with `check`.
template <typename Run, typename Check>
Section measure(const std::string& slug, const std::string& name, Run&& run,
                Check&& check) {
  Section s;
  s.slug = slug;
  s.name = name;
  const obs::WallClock clock;
  const auto result = run();
  s.tick_ms = clock.elapsed_ms();
  s.consistent = check(result);
  return s;
}

MachineResult run_machine(const PostalParams& params, const FaultPlan* plan) {
  Machine machine(params, /*messages=*/1);
  if (plan != nullptr) machine.attach_faults(*plan);
  BcastProtocol protocol(params);
  return machine.run(protocol);
}

}  // namespace

int main() {
  using namespace postal;
  const obs::WallClock wall;
  std::cout << "=== E22: tick engines vs. independent references ===\n\n";

  std::vector<Section> sections;
  const Rational lambda(5, 2);
  GenFib fib(lambda);

  // The sweep-dominated DP table: the loop par::sweep_grid spends most of
  // its time in. One large instance, repeated so the measured section is
  // well above timer noise.
  const std::uint64_t dp_n = 4096;
  sections.push_back(measure(
      "dp_table", "dp_table n=4096",
      [&] {
        std::vector<Rational> table;
        for (int rep = 0; rep < 4; ++rep) {
          table = optimal_broadcast_dp_table(dp_n, lambda);
        }
        return table;
      },
      [&](const std::vector<Rational>& table) {
        for (std::uint64_t k = 1; k <= dp_n; ++k) {
          if (table[k] != fib.f(k)) return false;
        }
        return table[dp_n] == optimal_broadcast_greedy(dp_n, lambda);
      }));

  const std::uint64_t greedy_n = std::uint64_t{1} << 20;
  sections.push_back(measure(
      "greedy", "greedy n=2^20",
      [&] { return optimal_broadcast_greedy(greedy_n, lambda); },
      [&](const Rational& t) { return t == fib.f(greedy_n); }));

  const PostalParams bcast_params(std::uint64_t{1} << 16, lambda);
  const Schedule bcast = bcast_schedule(bcast_params);
  const PostalParams pipe_params(std::uint64_t{1} << 12, Rational(2));
  const Schedule pipe = pipeline_schedule(pipe_params, /*m=*/16);
  sections.push_back(measure(
      "validator", "validator bcast n=2^16 + pipeline2 m=16",
      [&] {
        ValidatorOptions popts;
        popts.messages = 16;
        return std::pair<SimReport, SimReport>{
            validate_schedule(bcast, bcast_params),
            validate_schedule(pipe, pipe_params, popts)};
      },
      [&](const std::pair<SimReport, SimReport>& r) {
        return r.first.ok && r.second.ok &&
               r.first.makespan == fib.f(bcast_params.n());
      }));

  const PostalParams machine_params(std::uint64_t{1} << 14, lambda);
  sections.push_back(measure(
      "machine", "machine bcast n=2^14",
      [&] { return run_machine(machine_params, nullptr); },
      [&](const MachineResult& r) {
        return r.schedule.events() == bcast_schedule(machine_params).events() &&
               r.trace.makespan() == fib.f(machine_params.n());
      }));

  const PostalParams faulted_params(std::uint64_t{1} << 12, lambda);
  RandomFaultOptions fopts;
  fopts.crashes = 3;
  fopts.lossy_links = 8;
  fopts.loss_p = Rational(1, 4);
  fopts.spikes = 2;
  const FaultPlan plan = random_fault_plan(faulted_params, /*seed=*/42, fopts);
  sections.push_back(measure(
      "machine_faulted", "machine bcast n=2^12 + faults",
      [&] { return run_machine(faulted_params, &plan); },
      [&](const MachineResult& r) {
        ValidatorOptions vopts;
        vopts.crashes = plan.crashes;
        vopts.fifo_receive = true;
        vopts.require_coverage = false;
        return validate_schedule(r.schedule, faulted_params, vopts).ok &&
               r.faults.total() > 0;
      }));

  // The sweep engine end to end: cold caches, one thread, DP cross-check
  // on.
  const std::vector<Rational> sweep_lambdas = {Rational(1), Rational(3, 2),
                                               Rational(5, 2), Rational(4)};
  const std::vector<std::uint64_t> sweep_ns = {64, 128, 256, 512, 1024, 2048};
  sections.push_back(measure(
      "sweep", "sweep 4 lambdas x 6 ns",
      [&] {
        par::GenFibCache fib_cache;
        par::ScheduleCache sched_cache;
        par::SweepOptions opts;
        opts.threads = 1;
        opts.genfib_cache = &fib_cache;
        opts.schedule_cache = &sched_cache;
        return par::sweep_grid(sweep_ns, sweep_lambdas, opts);
      },
      [&](const std::vector<par::SweepPointResult>& points) {
        for (const par::SweepPointResult& p : points) {
          if (!p.ok || p.f != GenFib(p.lambda).f(p.n)) return false;
        }
        return points.size() == sweep_ns.size() * sweep_lambdas.size();
      }));

  bool all_ok = true;
  TextTable table({"section", "tick ms", "matches reference"});
  for (const Section& s : sections) {
    table.add_row({s.name, fmt(s.tick_ms, 1), s.consistent ? "yes" : "NO"});
    all_ok = all_ok && s.consistent;
  }
  table.print(std::cout);

  std::cout << "\nE22 verdict: " << (all_ok ? "CONSISTENT" : "MISMATCH")
            << "  (correctness-gated; times recorded, machine-dependent)\n";

  obs::BenchRecord rec;
  rec.bench = "bench_tick_domain";
  rec.n = dp_n;
  rec.lambda = lambda;
  rec.makespan = fib.f(dp_n);
  rec.wall_ms = wall.elapsed_ms();
  rec.verdict = all_ok ? "CONSISTENT" : "MISMATCH";
  for (const Section& s : sections) {
    rec.extra.emplace_back(s.slug + "_tick_ms", fmt(s.tick_ms, 2));
  }
  obs::emit_bench_record(rec);
  return all_ok ? 0 : 1;
}
