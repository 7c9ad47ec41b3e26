// The high-level facade: one object that plans, predicts, and verifies
// every collective this library implements -- the API a downstream user
// (e.g. an MPI-library implementor evaluating latency-aware collectives)
// would program against.
//
//   postal::Communicator comm(64, postal::Rational(5, 2));
//   auto plan = comm.broadcast(12);       // best multi-message plan
//   plan.schedule                          // the sends to execute
//   plan.completion                        // exact predicted finish time
//   plan.verified                          // certified by the simulator
//
// Every plan returned by a Communicator has already been validated against
// the full postal model; `verified` is recorded for transparency and the
// class throws LogicError if any internal plan ever fails validation
// (which would be a library bug).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coord/election.hpp"
#include "coord/log.hpp"
#include "faults/fault_plan.hpp"
#include "model/genfib.hpp"
#include "model/params.hpp"
#include "oracle/oracle.hpp"
#include "sched/registry.hpp"
#include "sched/schedule.hpp"
#include "sim/protocols/reliable_bcast.hpp"
#include "support/rational.hpp"
#include "svc/service.hpp"
#include "svc/workload.hpp"

namespace postal {

/// A planned collective: the schedule, its exact completion time, the
/// relevant lower bound, and the algorithm label.
struct CollectivePlan {
  Schedule schedule;
  Rational completion;
  Rational lower_bound;
  std::string algorithm;
  bool verified = false;
};

/// Plans optimal (or best-known) collectives for one MPS(n, lambda).
class Communicator {
 public:
  /// Throws InvalidArgument unless n >= 1 and lambda >= 1.
  Communicator(std::uint64_t n, Rational lambda);

  [[nodiscard]] std::uint64_t n() const noexcept { return params_.n(); }
  [[nodiscard]] const Rational& lambda() const noexcept { return params_.lambda(); }

  /// Simulation lanes for event-driven runs this Communicator launches
  /// (currently broadcast_reliable). Values > 1 select the sharded
  /// ParMachine engine (docs/SIMULATION.md); results are byte-identical at
  /// every setting. Clamped to >= 1. Planning calls are unaffected.
  void set_threads(unsigned threads) noexcept {
    threads_ = threads == 0 ? 1 : threads;
  }
  [[nodiscard]] unsigned threads() const noexcept { return threads_; }

  /// Optimal single-message broadcast (Algorithm BCAST, Theorem 6); for
  /// m > 1, the best algorithm in the registry for this (n, m, lambda).
  [[nodiscard]] CollectivePlan broadcast(std::uint64_t m = 1);

  /// Broadcast with a specific Section 4 algorithm.
  [[nodiscard]] CollectivePlan broadcast_with(MultiAlgo algo, std::uint64_t m);

  /// Optimal combining into p_0 (time-reversed BCAST).
  [[nodiscard]] CollectivePlan reduce();

  /// Optimal personalized one-to-all / all-to-one.
  [[nodiscard]] CollectivePlan scatter();
  [[nodiscard]] CollectivePlan gather();

  /// Optimal gossip (direct exchange).
  [[nodiscard]] CollectivePlan allgather();

  /// Optimal personalized all-to-all (rotated exchange).
  [[nodiscard]] CollectivePlan alltoall();

  /// Two-phase barrier (combine + release broadcast).
  [[nodiscard]] CollectivePlan barrier();

  /// Two-phase exclusive prefix (up-sweep + down-sweep).
  [[nodiscard]] CollectivePlan scan();

  /// k-source gossip: sources[i] holds message i; everyone gets all k
  /// (gather-to-hub + PIPELINE broadcast).
  [[nodiscard]] CollectivePlan multi_source(const std::vector<ProcId>& sources);

  /// The exact optimal broadcast time f_lambda(n) (Theorem 6).
  [[nodiscard]] Rational broadcast_time();

  /// Per-rank queries against the optimal broadcast without materializing
  /// its schedule (docs/ORACLE.md): O(1)-memory inform-time / parent /
  /// children / send-slot answers for n far beyond what broadcast() can
  /// hold. Cheap to construct; backed by the process-wide GenFibCache.
  [[nodiscard]] oracle::ScheduleOracle broadcast_oracle() const;

  /// Reliable broadcast under an optional fault plan (docs/FAULTS.md):
  /// ack/timeout/retransmit with subtree repair on the optimal BCAST tree,
  /// executed on the event-driven Machine and judged against the
  /// f_lambda(n) baseline. Fault-free (plan == nullptr) the run IS
  /// Algorithm BCAST and completes in exactly broadcast_time().
  /// options.threads == 0 inherits set_threads().
  [[nodiscard]] ReliableBcastReport broadcast_reliable(
      const FaultPlan* plan = nullptr,
      const ReliableBcastOptions& options = {});

  /// Postal-model leader election under an optional fault plan
  /// (docs/COORDINATION.md): lambda-scaled heartbeat watchdogs detect a
  /// dead leader and the bully protocol installs the deterministic
  /// successor (highest rank or smallest BCAST-tree depth). The report
  /// carries the crash-aware validation and the coordination validator's
  /// verdict. options.threads == 0 inherits set_threads().
  [[nodiscard]] coord::ElectionReport elect_leader(
      const FaultPlan* plan = nullptr,
      const coord::ElectionOptions& options = {});

  /// Multi-decree replicated log under an optional fault plan
  /// (docs/COORDINATION.md): per-slot consensus instances sharing one
  /// view/leader, batched PROPOSE/COMMIT over the view's BCAST tree,
  /// lambda-scaled leader leases with fencing tokens, catch-up transfer
  /// for stragglers, and membership reconfiguration decided like any
  /// other slot. Single-decree consensus is options.commands = 1. The
  /// report carries the crash-aware validation and the replicated-log
  /// validator's verdict. options.threads == 0 inherits set_threads().
  [[nodiscard]] coord::LogReport replicate_log(
      const FaultPlan* plan = nullptr, const coord::LogOptions& options = {});

  /// Submit one broadcast job with this Communicator's (n, lambda) to a
  /// running BroadcastService (docs/SERVICE.md): the job enters the
  /// admission queue at `arrival` (nondecreasing across submissions to
  /// `service`) and the outcome reports admit-or-shed, the exact start /
  /// completion / sojourn, and the planner used.
  [[nodiscard]] svc::JobOutcome broadcast_job(svc::BroadcastService& service,
                                              const Rational& arrival,
                                              std::uint64_t m = 1) const;

  /// Run the open-loop broadcast service over a seeded workload
  /// (docs/SERVICE.md): every job of (spec, seed) streamed through a fresh
  /// BroadcastService. The report is a pure function of
  /// (spec, seed, options) -- byte-replayable, no wall clock.
  [[nodiscard]] static svc::ServiceReport serve(
      const svc::WorkloadSpec& spec, std::uint64_t seed,
      const svc::ServiceOptions& options = {},
      obs::MetricsRegistry* metrics = nullptr);

 private:
  PostalParams params_;
  GenFib fib_;
  unsigned threads_ = 1;
};

}  // namespace postal
