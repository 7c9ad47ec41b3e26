// postal_cli: a single command-line entry point to the library.
//
//   postal_cli tree <n> <lambda>                render the optimal broadcast tree
//   postal_cli plan <n> <m> <lambda>            pick the best multi-message algorithm
//   postal_cli collectives <n> <lambda>         exact times for every collective
//   postal_cli calibrate <rows> <cols> <kind>   measure lambda on a packet network
//   postal_cli bounds <n> <lambda>              Theorem 7 numbers for one point
//   postal_cli trace-export <n> <lambda> [out]  BCAST run -> Chrome trace JSON
//                                               (chrome://tracing / Perfetto;
//                                               out defaults to stdout)
//   postal_cli metrics <n> <lambda>             run metrics as JSON lines
//   postal_cli simulate <n> <lambda> [--threads T]
//                                               event-driven BCAST run on the
//                                               sharded ParMachine + validate;
//                                               prints the engine/shard/window
//                                               breakdown (docs/SIMULATION.md)
//   postal_cli sweep <ns> <lambdas> [threads]   fan a (n, lambda) grid across
//                                               cores; cross-check Theorem 6
//                                               at every point (comma lists,
//                                               e.g. sweep 2,64,512 1,5/2,4 8)
//   postal_cli faults <n> <lambda> <seed> <crashes> [loss_p]
//                                               reliable broadcast under a
//                                               seeded random fault plan
//   postal_cli faults <n> <lambda> --plan <file.json>
//                                               ... under an explicit plan
//     both forms accept [--trace out.json] fault-overlay export and
//     [--threads T] simulation lanes (results identical at every T)
//   postal_cli elect <n> <lambda> [--seed S [--crashes C]] [--plan file.json]
//                    [--crash R:T] [--policy rank|depth] [--threads T]
//                    [--trace out.json]
//                                               postal-model leader election
//                                               under an optional fault plan
//                                               (docs/COORDINATION.md)
//   postal_cli consensus <n> <lambda> [--seed S [--crashes C]]
//                    [--plan file.json] [--crash R:T] [--threads T]
//                    [--trace out.json]
//                                               broadcast-based view-change
//                                               consensus; exits non-zero
//                                               unless the coordination
//                                               validator certifies the run
//   postal_cli oracle <n> <lambda> makespan     f_lambda(n) + witness rank,
//                                               O(1) memory at any n
//   postal_cli oracle <n> <lambda> rank <r>     one rank's parent / inform
//                                               time / children
//   postal_cli oracle <n> <lambda> range <lo> <hi>
//                                               dump + streaming-validate
//                                               the receive events of ranks
//                                               [lo, hi) (docs/ORACLE.md)
//   postal_cli serve <workload> <seed> [--queue CAP] [--exec-every K]
//                    [--fault-seed S] [--threads T]
//                                               open-loop broadcast service
//                                               over a seeded workload spec
//                                               (docs/SERVICE.md); stdout is
//                                               a pure function of the
//                                               arguments -- byte-identical
//                                               across reruns and thread
//                                               counts (wall time on stderr)
//
// Latencies accept integers, fractions ("5/2"), or decimals ("2.5").
// With POSTAL_BENCH_JSON set, sweep appends one bench record per grid point
// (thread count and per-point wall time in extra; docs/PARALLELISM.md),
// faults appends one "postal_cli_faults" record (faults_injected,
// retransmissions, repair_time in extra; docs/FAULTS.md), and oracle range
// appends one "postal_cli_oracle" record (stream verdict in extra).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/communicator.hpp"
#include "coord/consensus.hpp"
#include "coord/election.hpp"
#include "coord/log.hpp"
#include "coord/metrics.hpp"
#include "faults/fault_plan.hpp"
#include "model/bounds.hpp"
#include "net/calibrate.hpp"
#include "obs/bench_record.hpp"
#include "obs/instrument.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "oracle/oracle.hpp"
#include "par/sweep.hpp"
#include "sched/bcast.hpp"
#include "sched/broadcast_tree.hpp"
#include "sim/machine.hpp"
#include "sim/par_machine.hpp"
#include "sim/protocols/bcast_protocol.hpp"
#include "sim/protocols/reliable_bcast.hpp"
#include "sim/validator.hpp"
#include "support/table.hpp"

namespace {

using namespace postal;

int usage() {
  std::cerr << "usage:\n"
            << "  postal_cli tree <n> <lambda>\n"
            << "  postal_cli plan <n> <m> <lambda>\n"
            << "  postal_cli collectives <n> <lambda>\n"
            << "  postal_cli calibrate <rows> <cols> <mesh|torus|complete>\n"
            << "  postal_cli bounds <n> <lambda>\n"
            << "  postal_cli trace-export <n> <lambda> [out.json]\n"
            << "  postal_cli metrics <n> <lambda>\n"
            << "  postal_cli simulate <n> <lambda> [--threads T] "
               "[--trace-mode full|counters]\n"
            << "  postal_cli sweep <n,n,...> <lambda,lambda,...> [threads]\n"
            << "  postal_cli faults <n> <lambda> <seed> <crashes> [loss_p] "
               "[--trace out.json] [--threads T]\n"
            << "  postal_cli faults <n> <lambda> --plan <file.json> "
               "[--trace out.json] [--threads T]\n"
            << "  postal_cli elect <n> <lambda> [--seed S [--crashes C]] "
               "[--plan file.json]\n"
            << "             [--crash R:T] [--policy rank|depth] [--threads T] "
               "[--trace out.json]\n"
            << "  postal_cli consensus <n> <lambda> [--seed S [--crashes C]] "
               "[--plan file.json]\n"
            << "             [--crash R:T] [--threads T] [--trace out.json]\n"
            << "  postal_cli log <n> <lambda> [--seed S [--crashes C]] "
               "[--plan file.json]\n"
            << "             [--crash R:T] [--reconfig R:T[,R:T...]] "
               "[--commands K] [--threads T]\n"
            << "             [--trace out.json]\n"
            << "  postal_cli oracle <n> <lambda> makespan\n"
            << "  postal_cli oracle <n> <lambda> rank <r>\n"
            << "  postal_cli oracle <n> <lambda> range <lo> <hi>\n"
            << "  postal_cli serve <workload> <seed> [--queue CAP] "
               "[--exec-every K]\n"
            << "             [--fault-seed S] [--threads T]\n"
            << "    e.g. serve 'poisson;grid=16;rate=1/4;jobs=1000;"
               "mix=w1:n64:l2:m1' 7\n";
  return 2;
}

/// Remove "<flag> <value>" from `rest` wherever it appears; returns the
/// value, or "" if the flag is absent.
std::string take_flag(std::vector<std::string>& rest, const std::string& flag) {
  for (std::size_t i = 0; i + 1 < rest.size(); ++i) {
    if (rest[i] == flag) {
      std::string value = rest[i + 1];
      rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i),
                 rest.begin() + static_cast<std::ptrdiff_t>(i + 2));
      return value;
    }
  }
  return std::string();
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    out.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

// Generate + validate the optimal broadcast with wall-clock timing folded
// into `registry` ("sched.generate", "sim.validate") alongside the machine
// and validation metrics.
SimReport timed_bcast_run(const PostalParams& params, obs::MetricsRegistry& registry,
                          Schedule& schedule) {
  {
    obs::ScopedTimer timer(registry.timer("sched.generate"));
    schedule = bcast_schedule(params);
  }
  SimReport report;
  {
    obs::ScopedTimer timer(registry.timer("sim.validate"));
    report = validate_schedule(schedule, params);
  }
  obs::record_sim_report(registry, report);
  return report;
}

int cmd_trace_export(std::uint64_t n, const Rational& lambda,
                     const std::string& out_path) {
  const PostalParams params(n, lambda);
  obs::MetricsRegistry registry;
  Schedule schedule;
  const SimReport report = timed_bcast_run(params, registry, schedule);

  std::string trace_json;
  {
    obs::ScopedTimer timer(registry.timer("obs.trace_export"));
    trace_json = obs::trace_to_chrome_json(report.trace, params);
  }
  if (out_path.empty() || out_path == "-") {
    std::cout << trace_json << "\n";
  } else {
    std::ofstream out(out_path);
    if (!out.good()) {
      std::cerr << "error: cannot open '" << out_path << "' for writing\n";
      return 1;
    }
    out << trace_json << "\n";
    std::cerr << "wrote " << trace_json.size() << " bytes to " << out_path
              << "  (open in chrome://tracing or ui.perfetto.dev)\n"
              << "run: " << report.trace.deliveries().size()
              << " deliveries, makespan " << report.makespan << ", validation "
              << (report.ok ? "PASS" : "FAIL") << "\n";
  }
  return report.ok ? 0 : 1;
}

int cmd_metrics(std::uint64_t n, const Rational& lambda) {
  const PostalParams params(n, lambda);
  obs::MetricsRegistry registry;
  Schedule schedule;
  const SimReport report = timed_bcast_run(params, registry, schedule);

  // Re-run event-driven to surface the Machine's occupancy counters too.
  Machine machine(params, 1);
  BcastProtocol protocol(params);
  const MachineResult result = machine.run(protocol);
  obs::record_machine_stats(registry, result.stats);

  std::cout << registry.to_jsonl();
  return report.ok ? 0 : 1;
}

int cmd_simulate(std::uint64_t n, const Rational& lambda, unsigned threads,
                 TraceMode trace_mode) {
  const PostalParams params(n, lambda);
  const obs::WallClock clock;
  ParMachine machine(params, 1);
  machine.set_threads(threads);
  machine.set_trace_mode(trace_mode);
  auto factory = make_protocol_factory<BcastProtocol>(params);
  const MachineResult result = machine.run(factory);
  const double wall_ms = clock.elapsed_ms();
  const ParRunInfo& info = machine.last_run_info();
  const SimReport report = validate_schedule(result.schedule, params);

  std::cout << "event-driven BCAST on MPS(" << n << ", " << lambda << "), "
            << threads << " lane(s):\n";
  TextTable table({"quantity", "value"});
  table.add_row({"engine", info.parallel_engine
                               ? "sharded (" + std::to_string(info.shards) + " shard(s))"
                               : "sequential fallback: " + info.fallback_reason});
  if (info.parallel_engine) {
    table.add_row({"windows", std::to_string(info.windows)});
    table.add_row({"barrier events", std::to_string(info.barrier_events)});
    table.add_row({"cross-shard events", std::to_string(info.cross_shard_events)});
    table.add_row({"replayed pops", std::to_string(info.replayed_pops)});
    table.add_row({"window / merge / flush ms",
                   fmt(info.window_ms, 2) + " / " + fmt(info.merge_ms, 2) +
                       " / " + fmt(info.flush_ms, 2)});
  }
  table.add_row({"trace mode", trace_mode == TraceMode::kCounters
                               ? "counters (" +
                                     std::to_string(result.trace.delivery_count()) +
                                     " deliveries elided)"
                               : "full"});
  table.add_row({"events processed", std::to_string(result.stats.events_processed)});
  table.add_row({"sends enqueued", std::to_string(result.stats.sends_enqueued)});
  table.add_row({"makespan", report.makespan.str()});
  table.add_row({"validation", report.ok ? "PASS" : "FAIL"});
  table.print(std::cout);
  for (std::size_t s = 0; s < info.shard.size(); ++s) {
    const ParShardInfo& sh = info.shard[s];
    std::cout << "  shard " << s << ": " << sh.pops << " pop(s), "
              << sh.mailbox_in << " mailbox-in, " << sh.stalled_windows
              << " stalled window(s)\n";
  }

  obs::BenchRecord rec;
  rec.bench = "postal_cli_simulate";
  rec.n = n;
  rec.lambda = lambda;
  rec.makespan = report.makespan;
  rec.wall_ms = wall_ms;
  rec.verdict = report.ok ? "CONSISTENT" : "MISMATCH";
  rec.extra = {{"threads", std::to_string(threads)},
               {"shards", std::to_string(info.shards)},
               {"windows", std::to_string(info.windows)},
               {"engine", info.parallel_engine ? "sharded" : "sequential"},
               {"trace_mode",
                trace_mode == TraceMode::kCounters ? "counters" : "full"}};
  obs::emit_bench_record(rec);
  return report.ok ? 0 : 1;
}

int cmd_tree(std::uint64_t n, const Rational& lambda) {
  const BroadcastTree tree = BroadcastTree::fibonacci(n, lambda);
  std::cout << "optimal broadcast tree for MPS(" << n << ", " << lambda
            << "), completion t = " << tree.completion_time(lambda) << ":\n"
            << tree.render(lambda);
  return 0;
}

int cmd_plan(std::uint64_t n, std::uint64_t m, const Rational& lambda) {
  Communicator comm(n, lambda);
  const PostalParams params(n, lambda);
  TextTable table({"algorithm", "predicted T"});
  for (const MultiAlgo algo : all_multi_algos()) {
    table.add_row({algo_name(algo), predict_multi(algo, params, m).str()});
  }
  table.print(std::cout);
  const CollectivePlan plan = comm.broadcast(m);
  std::cout << "\nrecommended: " << plan.algorithm << "  (T = " << plan.completion
            << ", lower bound " << plan.lower_bound << ", verified "
            << (plan.verified ? "yes" : "no") << ")\n";
  return 0;
}

int cmd_collectives(std::uint64_t n, const Rational& lambda) {
  Communicator comm(n, lambda);
  TextTable table({"collective", "algorithm", "T", "lower bound"});
  struct Row {
    const char* name;
    CollectivePlan plan;
  };
  const Row rows[] = {
      {"broadcast", comm.broadcast()}, {"reduce", comm.reduce()},
      {"scatter", comm.scatter()},     {"gather", comm.gather()},
      {"allgather", comm.allgather()}, {"alltoall", comm.alltoall()},
      {"barrier", comm.barrier()},     {"scan", comm.scan()},
  };
  for (const Row& row : rows) {
    table.add_row({row.name, row.plan.algorithm, row.plan.completion.str(),
                   row.plan.lower_bound.str()});
  }
  table.print(std::cout);
  return 0;
}

int cmd_calibrate(std::uint64_t rows, std::uint64_t cols, const std::string& kind) {
  Topology topology = kind == "torus"      ? Topology::torus2d(rows, cols, Rational(1))
                      : kind == "complete" ? Topology::complete(rows * cols, Rational(3))
                                           : Topology::mesh2d(rows, cols, Rational(1));
  PacketNetwork net(std::move(topology), NetConfig{});
  const CalibrationReport cal = calibrate_lambda(net, 128, 1);
  std::cout << "effective lambda on " << rows << "x" << cols << " " << kind
            << ": min " << cal.lambda_min << ", mean " << cal.lambda_mean
            << ", max " << cal.lambda_max << ", snapped " << cal.lambda_snapped
            << "\n";
  const NetRunStats& stats = net.last_run_stats();
  std::cout << "last probe run: " << stats.packets_delivered << " packets, "
            << stats.hops_total << " hops, " << stats.wires.size()
            << " wires used";
  if (!stats.wires.empty()) {
    const WireUse* busiest = &stats.wires.front();
    for (const WireUse& use : stats.wires) {
      if (use.busy > busiest->busy) busiest = &use;
    }
    std::cout << "; busiest wire " << busiest->from << "->" << busiest->to
              << " busy " << busiest->busy << " of " << stats.makespan;
  }
  std::cout << "\n";
  return 0;
}

int cmd_sweep(const std::string& ns_csv, const std::string& lambdas_csv,
              unsigned threads) {
  std::vector<std::uint64_t> ns;
  for (const std::string& item : split_csv(ns_csv)) ns.push_back(std::stoull(item));
  std::vector<Rational> lambdas;
  for (const std::string& item : split_csv(lambdas_csv)) {
    lambdas.push_back(Rational::parse(item));
  }

  const obs::WallClock clock;
  par::SweepOptions options;
  options.threads = threads;
  const std::vector<par::SweepPointResult> results =
      par::sweep_grid(ns, lambdas, options);
  const double total_ms = clock.elapsed_ms();

  TextTable table({"lambda", "n", "f_lambda(n)", "DP", "greedy", "sim", "sends", "ok"});
  bool all_ok = true;
  for (const par::SweepPointResult& r : results) {
    all_ok = all_ok && r.ok;
    table.add_row({r.lambda.str(), std::to_string(r.n), r.f.str(), r.dp.str(),
                   r.greedy.str(), r.makespan.str(), std::to_string(r.sends),
                   r.ok ? "yes" : "NO"});
    obs::BenchRecord rec;
    rec.bench = "postal_cli_sweep";
    rec.n = r.n;
    rec.lambda = r.lambda;
    rec.makespan = r.makespan;
    rec.wall_ms = r.wall_ms;
    rec.verdict = r.ok ? "CONSISTENT" : "MISMATCH";
    rec.extra = {{"threads", std::to_string(threads)},
                 {"f", r.f.str()},
                 {"dp", r.dp.str()},
                 {"greedy", r.greedy.str()},
                 {"sends", std::to_string(r.sends)},
                 {"dp_table_ms", fmt(r.dp_table_ms, 3)}};
    obs::emit_bench_record(rec);
  }
  table.print(std::cout);
  std::cout << "\nswept " << results.size() << " points with " << threads
            << " thread(s) in " << fmt(total_ms, 1) << " ms; "
            << (all_ok ? "all points consistent (Theorem 6 holds on the grid)"
                       : "MISMATCH: at least one point failed the cross-check")
            << "\n";
  return all_ok ? 0 : 1;
}

int cmd_faults(std::uint64_t n, const Rational& lambda, const FaultPlan& plan,
               const std::string& trace_path, unsigned threads) {
  const PostalParams params(n, lambda);
  ReliableBcastOptions options;
  options.threads = threads;
  const obs::WallClock clock;
  const ReliableBcastReport report = run_reliable_bcast(params, &plan, options);
  const double wall_ms = clock.elapsed_ms();

  std::cout << "fault plan: " << plan.crashes.size() << " crash(es), "
            << plan.losses.size() << " lossy link(s), " << plan.spikes.size()
            << " spike window(s)  [seed " << plan.seed << "]\n";
  if (threads > 1) {
    std::cout << "simulation lanes: " << threads
              << " (sharded engine; report identical at every count)\n";
  }
  for (const CrashFault& c : plan.crashes) {
    std::cout << "  crash p" << c.proc << " at t = " << c.time << "\n";
  }
  const FaultStats& faults = report.result.faults;
  std::cout << "\nreliable broadcast on MPS(" << n << ", " << lambda << "):\n";
  TextTable table({"quantity", "value"});
  table.add_row({"baseline f_lambda(n)", report.baseline.str()});
  table.add_row({"completion (live procs)", report.completion.str()});
  table.add_row({"recovery overhead", report.recovery_overhead.str()});
  table.add_row({"faults injected", std::to_string(faults.total())});
  table.add_row({"data sends", std::to_string(report.counters.data_sends)});
  table.add_row({"retransmissions", std::to_string(report.counters.retransmissions)});
  table.add_row({"dead declared", std::to_string(report.counters.dead_declared)});
  table.add_row({"repairs", std::to_string(report.counters.repairs)});
  table.print(std::cout);

  const bool pass = report.covered && report.validation.ok;
  std::cout << "\ncoverage: "
            << (report.covered ? "every live processor reached"
                               : std::to_string(report.uncovered_alive.size()) +
                                     " live processor(s) NOT reached")
            << " (" << report.crashed.size() << " crashed, exempt)\n"
            << "validation: " << report.validation.summary() << "\n"
            << "verdict: " << (pass ? "PASS" : "FAIL") << "\n";
  if (!report.validation.ok) {
    // Rejected runs spell out every violation string on stderr (one per
    // line) so scripts can capture the validator's exact complaint.
    for (const std::string& v : report.validation.violations) {
      std::cerr << "violation: " << v << "\n";
    }
  }

  if (!trace_path.empty()) {
    const std::string trace_json =
        obs::trace_to_chrome_json(report.result.trace, params, faults);
    std::ofstream out(trace_path);
    if (!out.good()) {
      std::cerr << "error: cannot open '" << trace_path << "' for writing\n";
      return 1;
    }
    out << trace_json << "\n";
    std::cerr << "wrote " << trace_json.size() << " bytes to " << trace_path
              << " (fault markers overlaid; open in ui.perfetto.dev)\n";
  }

  obs::BenchRecord rec;
  rec.bench = "postal_cli_faults";
  rec.n = n;
  rec.lambda = lambda;
  rec.makespan = report.completion;
  rec.wall_ms = wall_ms;
  rec.verdict = pass ? "RECOVERED" : "FAIL";
  rec.extra = {{"faults_injected", std::to_string(faults.total())},
               {"retransmissions", std::to_string(report.counters.retransmissions)},
               {"repair_time", report.recovery_overhead.str()},
               {"crashes", std::to_string(plan.crashes.size())},
               {"seed", std::to_string(plan.seed)},
               {"threads", std::to_string(threads == 0 ? 1 : threads)}};
  obs::emit_bench_record(rec);
  return pass ? 0 : 1;
}

void print_plan_header(const FaultPlan& plan, bool have_plan) {
  if (!have_plan) {
    std::cout << "fault plan: none (fault-free run)\n";
    return;
  }
  std::cout << "fault plan: " << plan.crashes.size() << " crash(es), "
            << plan.losses.size() << " lossy link(s), " << plan.spikes.size()
            << " spike window(s)  [seed " << plan.seed << "]\n";
  for (const CrashFault& c : plan.crashes) {
    std::cout << "  crash p" << c.proc << " at t = " << c.time << "\n";
  }
}

/// Shared tail of elect/consensus: the judged verdict lines (violations on
/// stderr), the optional marker-overlaid Chrome trace, one bench record.
int finish_coord_run(const PostalParams& params, const SimReport& validation,
                     const coord::CoordCheck& check, const Trace& trace,
                     const FaultStats& faults,
                     const std::vector<obs::TraceMarker>& markers,
                     const std::string& trace_path, obs::BenchRecord rec,
                     double wall_ms) {
  const bool pass = validation.ok && check.ok;
  std::cout << "\nvalidation: " << validation.summary() << "\n"
            << "coordination check: " << check.summary() << "\n"
            << "verdict: " << (pass ? "PASS" : "FAIL") << "\n";
  if (!validation.ok) {
    for (const std::string& v : validation.violations) {
      std::cerr << "violation: " << v << "\n";
    }
  }
  if (!check.ok) {
    for (const std::string& v : check.violations) {
      std::cerr << "violation: " << v << "\n";
    }
  }
  if (!trace_path.empty()) {
    const std::string trace_json =
        obs::trace_to_chrome_json(trace, params, faults, markers);
    std::ofstream out(trace_path);
    if (!out.good()) {
      std::cerr << "error: cannot open '" << trace_path << "' for writing\n";
      return 1;
    }
    out << trace_json << "\n";
    std::cerr << "wrote " << trace_json.size() << " bytes to " << trace_path
              << " (" << markers.size()
              << " coordination marker(s) overlaid; open in ui.perfetto.dev)\n";
  }
  rec.wall_ms = wall_ms;
  obs::emit_bench_record(rec);
  return pass ? 0 : 1;
}

int cmd_elect(std::uint64_t n, const Rational& lambda, const FaultPlan& plan,
              bool have_plan, coord::ElectionPolicy policy,
              const std::string& trace_path, unsigned threads) {
  const PostalParams params(n, lambda);
  coord::ElectionOptions options;
  options.policy = policy;
  options.threads = threads;
  const obs::WallClock clock;
  const coord::ElectionReport report =
      coord::run_election(params, have_plan ? &plan : nullptr, options);
  const double wall_ms = clock.elapsed_ms();

  print_plan_header(plan, have_plan);
  std::cout << "\nleader election on MPS(" << n << ", " << lambda << "), policy "
            << (policy == coord::ElectionPolicy::kOracleDepth ? "oracle-depth"
                                                              : "highest-rank")
            << ":\n";
  TextTable table({"quantity", "value"});
  table.add_row({"leader", "p" + std::to_string(report.leader)});
  table.add_row({"heartbeat period", report.options.heartbeat_period.str()});
  table.add_row({"watchdog patience", report.watchdog.str()});
  table.add_row({"horizon", report.options.horizon.str()});
  table.add_row({"first suspicion", report.first_suspect.str()});
  table.add_row({"elected at", report.elected_at.str()});
  table.add_row({"election latency", report.election_latency.str()});
  table.add_row({"heartbeats", std::to_string(report.counters.heartbeats_sent)});
  table.add_row({"probes", std::to_string(report.counters.probes_sent)});
  table.add_row({"victories", std::to_string(report.counters.victories_sent)});
  table.add_row({"suspicions", std::to_string(report.counters.suspicions)});
  table.add_row({"adoptions", std::to_string(report.counters.adoptions)});
  table.add_row({"settled", report.settled ? "yes" : "no"});
  table.print(std::cout);

  obs::BenchRecord rec;
  rec.bench = "postal_cli_elect";
  rec.n = n;
  rec.lambda = lambda;
  rec.makespan = report.elected_at;
  rec.verdict = report.validation.ok && report.check.ok ? "ELECTED" : "FAIL";
  rec.extra = {{"leader", std::to_string(report.leader)},
               {"latency", report.election_latency.str()},
               {"suspicions", std::to_string(report.counters.suspicions)},
               {"seed", std::to_string(plan.seed)},
               {"threads", std::to_string(threads == 0 ? 1 : threads)}};
  return finish_coord_run(params, report.validation, report.check,
                          report.result.trace, report.result.faults,
                          coord::election_markers(report), trace_path,
                          std::move(rec), wall_ms);
}

int cmd_consensus(std::uint64_t n, const Rational& lambda, const FaultPlan& plan,
                  bool have_plan, const std::string& trace_path,
                  unsigned threads) {
  const PostalParams params(n, lambda);
  coord::ConsensusOptions options;
  options.threads = threads;
  const obs::WallClock clock;
  const coord::ConsensusReport report =
      coord::run_consensus(params, have_plan ? &plan : nullptr, options);
  const double wall_ms = clock.elapsed_ms();

  print_plan_header(plan, have_plan);
  std::uint64_t decides = 0;
  std::string value = "(none)";
  for (const coord::RankDecision& d : report.decisions) {
    if (!d.decided) continue;
    ++decides;
    value = std::to_string(d.value);
  }
  std::cout << "\nview-change consensus on MPS(" << n << ", " << lambda << "):\n";
  TextTable table({"quantity", "value"});
  table.add_row({"decided value", value});
  table.add_row({"ranks decided", std::to_string(decides)});
  table.add_row({"quorum", std::to_string(report.quorum)});
  table.add_row({"view length", report.options.view_length.str()});
  table.add_row({"views used", std::to_string(report.views_used + 1)});
  table.add_row({"decision latency", report.decision_latency.str()});
  table.add_row({"fault-free baseline", report.baseline.str()});
  table.add_row({"recovery time", report.recovery_time.str()});
  table.add_row({"view-changes", std::to_string(report.counters.view_changes_sent)});
  table.add_row({"proposals", std::to_string(report.counters.proposals)});
  table.add_row({"acks", std::to_string(report.counters.acks_sent)});
  table.add_row({"repairs", std::to_string(report.counters.proposal_repairs)});
  table.add_row({"heal replies", std::to_string(report.counters.heal_replies)});
  table.add_row({"settled", report.settled ? "yes" : "no"});
  table.print(std::cout);

  obs::BenchRecord rec;
  rec.bench = "postal_cli_consensus";
  rec.n = n;
  rec.lambda = lambda;
  rec.makespan = report.decision_latency;
  rec.verdict = report.validation.ok && report.check.ok ? "DECIDED" : "FAIL";
  rec.extra = {{"value", value},
               {"views", std::to_string(report.views_used + 1)},
               {"recovery", report.recovery_time.str()},
               {"seed", std::to_string(plan.seed)},
               {"threads", std::to_string(threads == 0 ? 1 : threads)}};
  return finish_coord_run(params, report.validation, report.check,
                          report.result.trace, report.result.faults,
                          coord::consensus_markers(report), trace_path,
                          std::move(rec), wall_ms);
}

int cmd_log(std::uint64_t n, const Rational& lambda, const FaultPlan& plan,
            bool have_plan, const coord::LogOptions& log_options,
            const std::string& trace_path, unsigned threads) {
  const PostalParams params(n, lambda);
  coord::LogOptions options = log_options;
  options.threads = threads;
  const obs::WallClock clock;
  const coord::LogReport report =
      coord::run_log(params, have_plan ? &plan : nullptr, options);
  const double wall_ms = clock.elapsed_ms();

  print_plan_header(plan, have_plan);
  std::uint64_t full_prefixes = 0;
  for (const coord::RankLog& rl : report.ranks) {
    if (rl.started && rl.commit_prefix == report.slots) ++full_prefixes;
  }
  std::cout << "\nreplicated log on MPS(" << n << ", " << lambda << "):\n";
  TextTable table({"quantity", "value"});
  table.add_row({"slots", std::to_string(report.slots)});
  table.add_row({"quorum", std::to_string(report.quorum)});
  table.add_row({"final members", std::to_string(report.final_members.size())});
  table.add_row({"full prefixes", std::to_string(full_prefixes)});
  table.add_row({"view length", report.options.view_length.str()});
  table.add_row({"lease length", report.options.lease_length.str()});
  table.add_row({"heartbeat period", report.options.heartbeat_period.str()});
  table.add_row({"views used", std::to_string(report.views_used + 1)});
  table.add_row({"commit latency", report.commit_latency.str()});
  table.add_row({"fault-free baseline", report.baseline.str()});
  table.add_row({"recovery time", report.recovery_time.str()});
  table.add_row({"proposals", std::to_string(report.counters.proposals)});
  table.add_row({"commits", std::to_string(report.counters.commits)});
  table.add_row({"catch-up commits",
                 std::to_string(report.counters.catchup_commits)});
  table.add_row({"lease acquisitions",
                 std::to_string(report.counters.lease_acquisitions)});
  table.add_row({"lease renewals",
                 std::to_string(report.counters.lease_renewals)});
  table.add_row({"lease expiries",
                 std::to_string(report.counters.lease_expiries)});
  table.add_row({"stale rejects",
                 std::to_string(report.counters.stale_rejects)});
  table.add_row({"config applies",
                 std::to_string(report.counters.config_applies)});
  table.add_row({"settled", report.settled ? "yes" : "no"});
  table.print(std::cout);

  obs::BenchRecord rec;
  rec.bench = "postal_cli_log";
  rec.n = n;
  rec.lambda = lambda;
  rec.makespan = report.commit_latency;
  rec.verdict = report.validation.ok && report.check.ok ? "COMMITTED" : "FAIL";
  rec.extra = {{"slots", std::to_string(report.slots)},
               {"views", std::to_string(report.views_used + 1)},
               {"members", std::to_string(report.final_members.size())},
               {"expiries", std::to_string(report.counters.lease_expiries)},
               {"stale_rejects", std::to_string(report.counters.stale_rejects)},
               {"recovery", report.recovery_time.str()},
               {"seed", std::to_string(plan.seed)},
               {"threads", std::to_string(threads == 0 ? 1 : threads)}};
  return finish_coord_run(params, report.validation, report.check,
                          report.result.trace, report.result.faults,
                          coord::log_markers(report), trace_path,
                          std::move(rec), wall_ms);
}

int cmd_oracle_makespan(std::uint64_t n, const Rational& lambda) {
  const oracle::ScheduleOracle oracle(n, lambda);
  const oracle::Rank witness = oracle.last_informed_rank();
  std::cout << "implicit BCAST oracle for MPS(" << n << ", " << lambda << "):\n"
            << "  f_lambda(n)        = " << oracle.makespan() << "\n"
            << "  last informed rank = " << witness << "\n"
            << "  its inform time    = " << oracle.inform_time(witness)
            << "  (the Theorem 6 certificate: equals f_lambda(n))\n";
  return 0;
}

int cmd_oracle_rank(std::uint64_t n, const Rational& lambda, std::uint64_t r) {
  const oracle::ScheduleOracle oracle(n, lambda);
  const oracle::RankInfo info = oracle.info(r);
  TextTable table({"quantity", "value"});
  table.add_row({"rank", std::to_string(info.rank)});
  table.add_row({"parent", info.depth == 0 ? "(origin)" : std::to_string(info.parent)});
  table.add_row({"inform time", info.inform_time.str()});
  table.add_row({"parent send start", info.parent_send.str()});
  table.add_row({"subtree size", std::to_string(info.subtree)});
  table.add_row({"depth", std::to_string(info.depth)});
  table.add_row({"out-degree", std::to_string(info.out_degree)});
  table.print(std::cout);
  constexpr std::uint64_t kMaxChildren = 24;
  std::uint64_t shown = 0;
  for (const oracle::Child& child : oracle.children(r)) {
    if (shown == 0) std::cout << "\nchildren (send order):\n";
    if (shown == kMaxChildren) {
      std::cout << "  ... " << (info.out_degree - shown) << " more\n";
      break;
    }
    std::cout << "  -> p" << child.rank << " at t = " << child.send_time
              << "  (subtree " << child.subtree << ")\n";
    ++shown;
  }
  return 0;
}

int cmd_oracle_range(std::uint64_t n, const Rational& lambda, std::uint64_t lo,
                     std::uint64_t hi) {
  const oracle::ScheduleOracle oracle(n, lambda);
  const obs::WallClock clock;
  const std::vector<StreamEvent> events = oracle.events(lo, hi);
  StreamingValidator validator(oracle, lo, hi);
  validator.feed(events);
  const StreamReport report = validator.finish();
  const double wall_ms = clock.elapsed_ms();

  constexpr std::size_t kMaxPrinted = 64;
  for (std::size_t i = 0; i < events.size() && i < kMaxPrinted; ++i) {
    std::cout << "p" << events[i].src << " -> p" << events[i].dst
              << " at t = " << events[i].t << "\n";
  }
  if (events.size() > kMaxPrinted) {
    std::cout << "... " << (events.size() - kMaxPrinted) << " more\n";
  }
  std::cout << "\nranks [" << lo << ", " << hi << ") of MPS(" << n << ", "
            << lambda << "): " << report.events_checked
            << " receive event(s), streaming validation "
            << (report.ok ? "PASS" : "FAIL") << "\n";
  if (!report.ok) std::cout << report.summary() << "\n";

  obs::BenchRecord rec;
  rec.bench = "postal_cli_oracle";
  rec.n = n;
  rec.lambda = lambda;
  rec.makespan = oracle.makespan();
  rec.wall_ms = wall_ms;
  rec.verdict = report.ok ? "CONSISTENT" : "MISMATCH";
  rec.extra = {{"lo", std::to_string(lo)},
               {"hi", std::to_string(hi)},
               {"events_checked", std::to_string(report.events_checked)},
               {"last_arrival", report.last_arrival.str()}};
  obs::emit_bench_record(rec);
  return report.ok ? 0 : 1;
}

int cmd_serve(const svc::WorkloadSpec& spec, std::uint64_t seed,
              const svc::ServiceOptions& options) {
  const obs::WallClock clock;
  const svc::ServiceReport report = svc::run_service(spec, seed, options);
  const double wall_ms = clock.elapsed_ms();
  const svc::ServiceCounters& c = report.counters;

  // stdout carries only virtual-time quantities: byte-identical across
  // reruns and thread counts (the determinism contract, docs/SERVICE.md).
  std::cout << "broadcast service over '" << report.spec << "' [seed " << seed
            << "]\n";
  TextTable table({"quantity", "value"});
  table.add_row({"jobs generated", std::to_string(c.generated)});
  table.add_row({"admitted", std::to_string(c.admitted)});
  table.add_row({"shed (back-pressure)", std::to_string(c.shed)});
  table.add_row({"completed", std::to_string(c.completed)});
  table.add_row({"queue depth max", std::to_string(c.depth_max)});
  table.add_row({"planned via oracle", std::to_string(c.planned_oracle)});
  table.add_row({"planned materialized", std::to_string(c.planned_materialized)});
  table.add_row({"planned via registry", std::to_string(c.planned_registry)});
  table.add_row({"executed event-driven", std::to_string(c.exec_runs)});
  table.add_row({"exec verified", std::to_string(c.exec_verified)});
  table.add_row({"exec under faults", std::to_string(c.exec_faulted)});
  table.add_row({"sojourn p50", report.p50.str()});
  table.add_row({"sojourn p99", report.p99.str()});
  table.add_row({"sojourn p999", report.p999.str()});
  table.add_row({"sojourn max", report.sojourn_max.str()});
  table.add_row({"horizon (model time)", report.horizon.str()});
  table.add_row({"throughput (jobs/unit)", report.throughput.str()});
  table.print(std::cout);
  std::cout << "\n" << report.to_json() << "\n";

  std::cerr << "wall: " << wall_ms << " ms, threads: "
            << (options.threads == 0 ? 1 : options.threads) << "\n";

  std::uint64_t headline_n = 0;
  for (const svc::MixEntry& entry : spec.mix) {
    if (entry.n > headline_n) headline_n = entry.n;
  }
  obs::BenchRecord rec;
  rec.bench = "postal_cli_serve";
  rec.n = headline_n;
  rec.lambda = spec.mix.front().lambda;
  rec.makespan = report.horizon;
  rec.wall_ms = wall_ms;
  rec.verdict = "SERVED";
  rec.extra = {{"seed", std::to_string(seed)},
               {"jobs", std::to_string(c.generated)},
               {"shed", std::to_string(c.shed)},
               {"p50", report.p50.str()},
               {"p99", report.p99.str()},
               {"p999", report.p999.str()},
               {"throughput", report.throughput.str()},
               {"threads", std::to_string(options.threads == 0 ? 1 : options.threads)}};
  obs::emit_bench_record(rec);
  return 0;
}

int cmd_bounds(std::uint64_t n, const Rational& lambda) {
  GenFib fib(lambda);
  std::cout << "f_lambda(n)          = " << fib.f(n) << "\n";
  std::cout << "Theorem 7 lower      = " << fmt(thm7_f_lower(lambda, n)) << "\n";
  std::cout << "Theorem 7 upper      = " << fmt(thm7_f_upper(lambda, n)) << "\n";
  std::cout << "Lemma 8 (m=1) lower  = " << lemma8_lower(fib, n, 1) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "tree" && args.size() == 2) {
      return cmd_tree(std::stoull(args[0]), Rational::parse(args[1]));
    }
    if (cmd == "plan" && args.size() == 3) {
      return cmd_plan(std::stoull(args[0]), std::stoull(args[1]),
                      Rational::parse(args[2]));
    }
    if (cmd == "collectives" && args.size() == 2) {
      return cmd_collectives(std::stoull(args[0]), Rational::parse(args[1]));
    }
    if (cmd == "calibrate" && args.size() == 3) {
      return cmd_calibrate(std::stoull(args[0]), std::stoull(args[1]), args[2]);
    }
    if (cmd == "bounds" && args.size() == 2) {
      return cmd_bounds(std::stoull(args[0]), Rational::parse(args[1]));
    }
    if (cmd == "trace-export" && (args.size() == 2 || args.size() == 3)) {
      return cmd_trace_export(std::stoull(args[0]), Rational::parse(args[1]),
                              args.size() == 3 ? args[2] : std::string());
    }
    if (cmd == "metrics" && args.size() == 2) {
      return cmd_metrics(std::stoull(args[0]), Rational::parse(args[1]));
    }
    if (cmd == "simulate" && args.size() >= 2) {
      const std::uint64_t n = std::stoull(args[0]);
      const Rational lambda = Rational::parse(args[1]);
      std::vector<std::string> rest(args.begin() + 2, args.end());
      const std::string t = take_flag(rest, "--threads");
      const std::string mode = take_flag(rest, "--trace-mode");
      if (!rest.empty()) return usage();
      if (!mode.empty() && mode != "full" && mode != "counters") return usage();
      const unsigned threads =
          t.empty() ? par::threads_from_env(par::default_threads())
                    : static_cast<unsigned>(std::stoul(t));
      return cmd_simulate(n, lambda, threads,
                          mode == "counters" ? TraceMode::kCounters
                                             : TraceMode::kFull);
    }
    if (cmd == "sweep" && (args.size() == 2 || args.size() == 3)) {
      const unsigned threads =
          args.size() == 3 ? static_cast<unsigned>(std::stoul(args[2]))
                           : par::threads_from_env(par::default_threads());
      return cmd_sweep(args[0], args[1], threads);
    }
    if (cmd == "oracle" && args.size() >= 3) {
      const std::uint64_t n = std::stoull(args[0]);
      const Rational lambda = Rational::parse(args[1]);
      const std::string& sub = args[2];
      if (sub == "makespan" && args.size() == 3) {
        return cmd_oracle_makespan(n, lambda);
      }
      if (sub == "rank" && args.size() == 4) {
        return cmd_oracle_rank(n, lambda, std::stoull(args[3]));
      }
      if (sub == "range" && args.size() == 5) {
        return cmd_oracle_range(n, lambda, std::stoull(args[3]),
                                std::stoull(args[4]));
      }
      return usage();
    }
    if (cmd == "serve" && args.size() >= 2) {
      const svc::WorkloadSpec spec = svc::WorkloadSpec::parse(args[0]);
      const std::uint64_t seed = std::stoull(args[1]);
      std::vector<std::string> rest(args.begin() + 2, args.end());
      svc::ServiceOptions options;
      options.exec_every = 32;  // sample the event-driven tier by default
      const std::string queue_arg = take_flag(rest, "--queue");
      if (!queue_arg.empty()) options.queue_capacity = std::stoull(queue_arg);
      const std::string exec_arg = take_flag(rest, "--exec-every");
      if (!exec_arg.empty()) options.exec_every = std::stoull(exec_arg);
      const std::string fault_arg = take_flag(rest, "--fault-seed");
      if (!fault_arg.empty()) options.fault_seed = std::stoull(fault_arg);
      const std::string threads_arg = take_flag(rest, "--threads");
      if (!threads_arg.empty()) {
        options.threads = static_cast<unsigned>(std::stoul(threads_arg));
      }
      if (!rest.empty()) return usage();
      return cmd_serve(spec, seed, options);
    }
    if ((cmd == "elect" || cmd == "consensus" || cmd == "log") &&
        args.size() >= 2) {
      const std::uint64_t n = std::stoull(args[0]);
      const Rational lambda = Rational::parse(args[1]);
      std::vector<std::string> rest(args.begin() + 2, args.end());
      const std::string threads_arg = take_flag(rest, "--threads");
      const unsigned threads =
          threads_arg.empty() ? 1
                              : static_cast<unsigned>(std::stoul(threads_arg));
      const std::string trace_path = take_flag(rest, "--trace");
      const std::string plan_path = take_flag(rest, "--plan");
      const std::string seed_arg = take_flag(rest, "--seed");
      const std::string crashes_arg = take_flag(rest, "--crashes");
      const std::string crash_arg = take_flag(rest, "--crash");
      std::string policy_arg;
      if (cmd == "elect") policy_arg = take_flag(rest, "--policy");
      coord::LogOptions log_options;
      if (cmd == "log") {
        const std::string commands_arg = take_flag(rest, "--commands");
        if (!commands_arg.empty()) {
          log_options.commands =
              static_cast<std::uint32_t>(std::stoul(commands_arg));
        }
        const std::string reconfig_arg = take_flag(rest, "--reconfig");
        if (!reconfig_arg.empty()) {
          // "--reconfig R:T[,R:T...]": toggle rank R's membership at model
          // time T (remove if present, re-add if previously removed).
          for (const std::string& op : split_csv(reconfig_arg)) {
            const std::size_t colon = op.find(':');
            if (colon == std::string::npos) return usage();
            log_options.reconfig.push_back(coord::ReconfigRequest{
                static_cast<ProcId>(std::stoul(op.substr(0, colon))),
                Rational::parse(op.substr(colon + 1))});
          }
        }
      }
      if (!rest.empty() || (!plan_path.empty() && !seed_arg.empty())) {
        return usage();
      }
      FaultPlan plan;
      bool have_plan = false;
      if (!plan_path.empty()) {
        std::ifstream in(plan_path);
        if (!in.good()) {
          std::cerr << "error: cannot read plan file '" << plan_path << "'\n";
          return 1;
        }
        std::ostringstream contents;
        contents << in.rdbuf();
        plan = parse_fault_plan(contents.str());
        have_plan = true;
      } else if (!seed_arg.empty()) {
        RandomFaultOptions fopts;
        fopts.crashes = crashes_arg.empty() ? 1 : std::stoull(crashes_arg);
        plan = random_fault_plan(PostalParams(n, lambda),
                                 std::stoull(seed_arg), fopts);
        have_plan = true;
      }
      if (!crash_arg.empty()) {
        // "--crash R:T" appends one explicit crash (e.g. the incumbent
        // leader, which seeded plans never crash).
        const std::size_t colon = crash_arg.find(':');
        if (colon == std::string::npos) return usage();
        plan.crashes.push_back(
            CrashFault{static_cast<ProcId>(std::stoul(crash_arg.substr(0, colon))),
                       Rational::parse(crash_arg.substr(colon + 1))});
        have_plan = true;
      }
      if (have_plan) plan.validate(n);
      coord::ElectionPolicy policy = coord::ElectionPolicy::kHighestRank;
      if (policy_arg == "depth" || policy_arg == "oracle") {
        policy = coord::ElectionPolicy::kOracleDepth;
      } else if (!policy_arg.empty() && policy_arg != "rank") {
        return usage();
      }
      if (cmd == "elect") {
        return cmd_elect(n, lambda, plan, have_plan, policy, trace_path, threads);
      }
      if (cmd == "log") {
        return cmd_log(n, lambda, plan, have_plan, log_options, trace_path,
                       threads);
      }
      return cmd_consensus(n, lambda, plan, have_plan, trace_path, threads);
    }
    if (cmd == "faults" && args.size() >= 3) {
      const std::uint64_t n = std::stoull(args[0]);
      const Rational lambda = Rational::parse(args[1]);
      std::vector<std::string> rest(args.begin() + 2, args.end());
      const std::string threads_arg = take_flag(rest, "--threads");
      const unsigned threads =
          threads_arg.empty() ? 1
                              : static_cast<unsigned>(std::stoul(threads_arg));
      const std::string trace_path = take_flag(rest, "--trace");
      FaultPlan plan;
      if (rest.size() == 2 && rest[0] == "--plan") {
        std::ifstream in(rest[1]);
        if (!in.good()) {
          std::cerr << "error: cannot read plan file '" << rest[1] << "'\n";
          return 1;
        }
        std::ostringstream contents;
        contents << in.rdbuf();
        plan = parse_fault_plan(contents.str());
        plan.validate(n);
      } else if (rest.size() == 2 || rest.size() == 3) {
        const std::uint64_t seed = std::stoull(rest[0]);
        RandomFaultOptions fopts;
        fopts.crashes = std::stoull(rest[1]);
        if (rest.size() == 3) {
          fopts.loss_p = Rational::parse(rest[2]);
          fopts.lossy_links = n;  // sprinkle loss widely; per-link cap holds
        }
        plan = random_fault_plan(PostalParams(n, lambda), seed, fopts);
      } else {
        return usage();
      }
      return cmd_faults(n, lambda, plan, trace_path, threads);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
