// E26 (engineering) -- the coordination layer under leader failure
// (docs/COORDINATION.md).
//
// For a grid of machine sizes, crash the incumbent coordinator and
// measure, in exact model time:
//
//   * election latency -- from the leader's crash to the last live rank
//     adopting the deterministic successor (bully election,
//     lambda-scaled heartbeat watchdogs);
//   * view-change recovery -- the extra decision latency single-decree
//     consensus (the replicated log with one command, coord/consensus.hpp)
//     pays when the view-0 leader crashes at t = 0, versus the fault-free
//     baseline of the same resolved options.
//
// Both are reported as exact multiples of lambda (the postal latency is
// the natural unit of every timeout in the layer), which is what the
// trajectory baseline tracks: the multiples are a pure function of
// (n, lambda, plan), so any drift is an algorithmic change, never noise.
//
// The verdict is *correctness-gated*; wall times are recorded but never
// gate. Every point must pass:
//
//   * the crash-aware machine validation AND the coordination validator
//     (election legitimacy; the log's agreement / validity / prefix
//     durability / lease exclusion) on every run;
//   * settled runs (disturbances bounded inside the derived horizon);
//   * fault-free identity: with no plan, the election keeps the initial
//     leader with zero latency and consensus decides in view 0 with zero
//     recovery;
//   * thread invariance: a threads=4 sharded run produces byte-identical
//     events, beliefs / per-rank logs, and counters.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "coord/consensus.hpp"
#include "coord/election.hpp"
#include "faults/fault_plan.hpp"
#include "obs/bench_record.hpp"
#include "obs/instrument.hpp"
#include "support/table.hpp"

namespace {

using namespace postal;

struct Point {
  std::uint64_t n = 0;
  Rational lambda;
  // Results.
  Rational elect_latency;      ///< crash -> last live adoption
  Rational elect_over_lambda;  ///< elect_latency / lambda
  Rational decision_latency;   ///< fault-free consensus decision latency
  Rational recovery;           ///< consensus decision latency - baseline
  Rational recovery_over_lambda;
  double wall_ms = 0.0;
  bool gates_ok = false;
  std::string failure;  ///< first failed gate, for the table
};

/// Every judged clause of one coordination run, as a single gate.
template <typename Report>
bool judged_ok(const Report& report) {
  return report.validation.ok && report.check.ok && report.settled;
}

void run_point(Point& p) {
  const PostalParams params(p.n, p.lambda);
  const obs::WallClock clock;

  // Fault-free identity gates.
  const coord::ElectionReport quiet = coord::run_election(params);
  if (!judged_ok(quiet) || quiet.leader != 0 ||
      quiet.election_latency != Rational(0)) {
    p.failure = "fault-free election";
    return;
  }
  const coord::ConsensusReport agree = coord::run_consensus(params);
  if (!judged_ok(agree) || agree.recovery_time != Rational(0)) {
    p.failure = "fault-free consensus";
    return;
  }
  p.decision_latency = agree.commit_latency;

  // Leader-crash election: kill p0 mid-run (after two heartbeat periods,
  // so the cluster is in steady state when the watchdogs take over).
  FaultPlan crash;
  crash.crashes.push_back(
      CrashFault{0, quiet.options.heartbeat_period * Rational(2)});
  const coord::ElectionReport elect = coord::run_election(params, &crash);
  if (!judged_ok(elect) || elect.leader != p.n - 1) {
    p.failure = "crash election";
    return;
  }
  p.elect_latency = elect.election_latency;
  p.elect_over_lambda = elect.election_latency / p.lambda;

  // View-change consensus: the view-0 leader is dead on arrival, so every
  // decision pays at least one full view of recovery.
  FaultPlan doa;
  doa.crashes.push_back(CrashFault{0, Rational(0)});
  const coord::ConsensusReport cons = coord::run_consensus(params, &doa);
  if (!judged_ok(cons)) {
    p.failure = "crash consensus";
    return;
  }
  p.recovery = cons.recovery_time;
  p.recovery_over_lambda = cons.recovery_time / p.lambda;

  // Thread invariance: the sharded engine must reproduce both runs byte
  // for byte.
  coord::ElectionOptions eopts;
  eopts.threads = 4;
  const coord::ElectionReport elect4 = coord::run_election(params, &crash, eopts);
  if (elect4.events != elect.events || elect4.beliefs != elect.beliefs ||
      elect4.counters != elect.counters || elect4.leader != elect.leader) {
    p.failure = "election threads=4 drift";
    return;
  }
  const coord::ConsensusReport cons4 = coord::run_consensus(params, &doa, 4);
  if (cons4.events != cons.events || cons4.ranks != cons.ranks ||
      cons4.counters != cons.counters) {
    p.failure = "consensus threads=4 drift";
    return;
  }

  p.wall_ms = clock.elapsed_ms();
  p.gates_ok = true;
}

}  // namespace

int main() {
  using namespace postal;
  const obs::WallClock wall;
  std::cout << "=== E26: coordination under leader failure ===\n\n";

  std::vector<Point> points;
  for (const std::uint64_t n : {8ULL, 16ULL, 32ULL, 64ULL}) {
    Point p;
    p.n = n;
    p.lambda = Rational(5, 2);
    points.push_back(p);
  }
  Point integer_lambda;
  integer_lambda.n = 48;
  integer_lambda.lambda = Rational(2);
  points.push_back(integer_lambda);

  bool all_ok = true;
  TextTable table({"n", "lambda", "elect latency", "elect/lambda",
                   "decision latency", "recovery", "recovery/lambda", "gates"});
  for (Point& p : points) {
    run_point(p);
    table.add_row({std::to_string(p.n), p.lambda.str(), p.elect_latency.str(),
                   p.elect_over_lambda.str(), p.decision_latency.str(),
                   p.recovery.str(), p.recovery_over_lambda.str(),
                   p.gates_ok ? "pass" : "FAIL: " + p.failure});
    all_ok = all_ok && p.gates_ok;
  }
  table.print(std::cout);
  std::cout << "\nE26 verdict: " << (all_ok ? "CERTIFIED" : "MISMATCH")
            << "  (validator + settle + fault-free-identity + "
               "thread-invariance gated; wall times recorded, "
               "machine-dependent)\n";

  const Point& head = points.back();
  obs::BenchRecord rec;
  rec.bench = "bench_coord";
  rec.n = head.n;
  rec.lambda = head.lambda;
  rec.makespan = head.elect_latency;
  rec.wall_ms = wall.elapsed_ms();
  rec.verdict = all_ok ? "CERTIFIED" : "MISMATCH";
  for (const Point& p : points) {
    const std::string slug =
        "n" + std::to_string(p.n) + "_l" + p.lambda.str();
    rec.extra.emplace_back(slug + "_elect_latency", p.elect_latency.str());
    rec.extra.emplace_back(slug + "_elect_over_lambda",
                           p.elect_over_lambda.str());
    rec.extra.emplace_back(slug + "_decision_latency",
                           p.decision_latency.str());
    rec.extra.emplace_back(slug + "_recovery", p.recovery.str());
    rec.extra.emplace_back(slug + "_recovery_over_lambda",
                           p.recovery_over_lambda.str());
    rec.extra.emplace_back(slug + "_wall_ms", fmt(p.wall_ms, 2));
  }
  obs::emit_bench_record(rec);
  return all_ok ? 0 : 1;
}
