// The broadcast service: a long-running frontend that admits a stream of
// broadcast jobs, plans each one, and reports tail latency + throughput
// (docs/SERVICE.md).
//
// Virtual-time semantics (the determinism contract): the service is a
// single-server FIFO queue over exact model time. A job arriving at a,
// when admitted, starts at s = max(a, server-free), completes at
// c = s + service-time, and its *sojourn* c - a (wait + service) is what
// the percentile report measures. Service time is the job's exact
// broadcast makespan: f_lambda(n) from the O(1)-memory ScheduleOracle
// where admissible, the materialized sched::bcast schedule as the reported
// fallback, and the Section 4 registry's best prediction for m > 1. No
// wall clock anywhere -- every number a run produces is a pure function of
// the submitted job sequence (for run_service: of (spec, seed)), which is
// what makes `postal_cli serve` byte-identical across reruns and thread
// counts.
//
// Back-pressure: a bounded AdmissionQueue caps the in-flight population;
// an arrival that finds it full is shed (counted, never queued). The
// conservation laws generated = admitted + shed and
// admitted = completed + in-flight hold at every instant (soak-tested).
//
// Execution tier: every exec_every-th admitted job (and under a fault
// seed, with a per-job seeded FaultPlan) is additionally run event-driven
// through run_reliable_bcast on the Machine -- or the sharded ParMachine
// when threads > 1 -- which is Algorithm BCAST exactly when fault-free;
// the run's completion must equal the planned makespan (LogicError
// otherwise), and under faults the crash-aware validator must certify the
// run. Executed-with-faults jobs bill their *actual* completion (recovery
// overhead inflates the sojourn), which is the honest service-level view
// of a failure.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "faults/fault_plan.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "sim/trace.hpp"
#include "support/rational.hpp"
#include "support/ticks.hpp"
#include "svc/queue.hpp"
#include "svc/workload.hpp"

namespace postal::svc {

/// Planner selection.
enum class PlannerPolicy : std::uint8_t {
  kAuto,          ///< oracle first, materialized fallback on overflow
  kMaterialized,  ///< always the materialized sched::bcast path (m == 1)
};

/// Service knobs. Everything here is part of the replay key: two runs over
/// the same job sequence with equal options produce identical reports.
struct ServiceOptions {
  /// Max in-flight jobs (waiting + in service); arrivals beyond it are
  /// shed. 0 = unbounded.
  std::uint64_t queue_capacity = 64;
  /// Run every k-th admitted job event-driven on the Machine/ParMachine
  /// (1 = every job, 0 = plan-only). The first admitted job is always in
  /// the sample when k >= 1.
  std::uint64_t exec_every = 0;
  PlannerPolicy planner = PlannerPolicy::kAuto;
  /// Simulation lanes for executed runs (docs/SIMULATION.md); results are
  /// byte-identical at every setting. Clamped to >= 1.
  unsigned threads = 1;
  /// Trace retention for executed runs (sim/trace.hpp). The service reads
  /// only first arrivals, completion, and the validated schedule -- all
  /// exact under kCounters -- so the exec tier can elide per-delivery
  /// traces on large jobs without changing any report byte.
  TraceMode trace_mode = TraceMode::kFull;
  /// != 0: executed jobs run under random_fault_plan(params, h(fault_seed,
  /// job.id), fault_options) and bill their actual (recovery-inflated)
  /// completion. 0 = fault-free execution.
  std::uint64_t fault_seed = 0;
  RandomFaultOptions fault_options{};
  /// Tick resolution for the sojourn histogram: sojourns are recorded as
  /// ticks of 1/sojourn_grid (run_service folds this from the spec).
  /// Off-grid sojourns are counted and ceil-rounded to the next tick.
  std::int64_t sojourn_grid = 1;
  /// Histogram precision (obs/histogram.hpp): relative error <= 2^-bits.
  unsigned histogram_bits = 7;
  /// Retain the full exact sojourn list in the report (certification
  /// tests); off by default -- the histogram is the scalable path.
  bool keep_sojourns = false;
  /// > 0: route admissions through a coordinator elected over an
  /// MPS(coord_ranks, coord_lambda) control plane (docs/COORDINATION.md).
  /// The election runs at construction; with coord_crash_at > 0 the
  /// elected coordinator crashes at that model time and a failover
  /// election installs the deterministic successor -- job starts that
  /// would land inside the leaderless window are deferred to its end
  /// (counted in ServiceCounters::coord_deferred). 0 = off; every coord
  /// field stays out of the report's JSON, so replays are unchanged.
  std::uint64_t coord_ranks = 0;
  /// Control-plane latency (>= 1) of coordination runs.
  Rational coord_lambda{2};
  /// > 0: crash the coordinator at this model time (mid-workload
  /// failover; requires coord_ranks >= 2). 0 = the coordinator never
  /// fails.
  Rational coord_crash_at{0};
  /// Route admissions through the replicated log on the coordination
  /// control plane (docs/COORDINATION.md; requires coord_ranks > 0): a
  /// fault-free log run over MPS(coord_ranks, coord_lambda) at
  /// construction certifies the control plane and measures its exact
  /// commit latency, and every admitted job is billed that latency (its
  /// start is granted only once the admission command commits). Strictly
  /// conditional: off (the default), no report byte changes.
  bool coord_log = false;
};

/// What the service decided and predicted for one submitted job.
struct JobOutcome {
  Job job;
  bool admitted = false;      ///< false = shed (every field below is zero)
  Rational start;             ///< service start (>= arrival)
  Rational completion;        ///< start + service time
  Rational sojourn;           ///< completion - arrival
  Rational planned_makespan;  ///< the planner's exact broadcast time
  std::string planner;        ///< "oracle", "materialized", "registry:<NAME>"
  bool executed = false;      ///< ran event-driven on Machine/ParMachine
  Rational exec_completion;   ///< executed run's completion (== planned fault-free)
  std::uint64_t exec_retransmissions = 0;
  std::uint64_t exec_crashed = 0;  ///< processors the per-job plan crashed
};

/// Monotone run counters; the conservation laws relating them are the
/// admission-queue invariants (docs/SERVICE.md).
struct ServiceCounters {
  std::uint64_t generated = 0;  ///< jobs submitted
  std::uint64_t admitted = 0;   ///< generated - shed
  std::uint64_t shed = 0;       ///< rejected by back-pressure
  std::uint64_t completed = 0;  ///< retired departures
  std::uint64_t depth_max = 0;  ///< queue high-water mark
  std::uint64_t planned_oracle = 0;
  std::uint64_t planned_materialized = 0;  ///< oracle-inadmissible fallbacks
  std::uint64_t planned_registry = 0;      ///< m > 1 jobs
  std::uint64_t exec_runs = 0;
  std::uint64_t exec_verified = 0;  ///< fault-free runs matching the plan exactly
  std::uint64_t exec_faulted = 0;   ///< runs under a per-job FaultPlan
  std::uint64_t exec_retransmissions = 0;
  std::uint64_t exec_repairs = 0;
  std::uint64_t exec_crashed = 0;
  std::uint64_t sojourn_offgrid = 0;  ///< sojourns ceil-rounded to the grid
  std::uint64_t coord_elections = 0;  ///< coordination elections run (0 = off)
  std::uint64_t coord_failovers = 0;  ///< coordinator crashes recovered from
  std::uint64_t coord_deferred = 0;   ///< starts pushed past the leaderless window
  std::uint64_t coord_log_commands = 0;  ///< admissions billed at commit latency
};

/// The drained run, ready for bench records and `serve` output. Contains
/// no wall-clock field: to_json() is the byte-replayable artifact the
/// golden tests diff.
struct ServiceReport {
  std::string spec;  ///< canonical workload spec ("" when driven manually)
  std::uint64_t seed = 0;
  ServiceCounters counters;
  Rational horizon;        ///< latest completion (model time; 0 if none)
  Rational sojourn_total;  ///< exact sum over completed jobs
  Rational sojourn_max;
  std::int64_t sojourn_grid = 1;
  unsigned histogram_bits = 7;
  /// Nearest-rank sojourn percentiles from the streaming histogram, as
  /// ticks of 1/sojourn_grid and as exact model time (ticks/grid). Zero
  /// when no job completed.
  std::uint64_t p50_ticks = 0;
  std::uint64_t p99_ticks = 0;
  std::uint64_t p999_ticks = 0;
  Rational p50;
  Rational p99;
  Rational p999;
  Rational throughput;  ///< completed / horizon (jobs per model-time unit)
  /// Full exact sojourn list in completion order; only populated under
  /// ServiceOptions::keep_sojourns (excluded from to_json()).
  std::vector<Rational> sojourns;
  /// Coordinator routing (docs/COORDINATION.md); meaningful -- and present
  /// in to_json() -- only when ServiceOptions::coord_ranks > 0. The window
  /// is the leaderless interval of the failover ([0, 0) when none).
  std::uint64_t coord_ranks = 0;
  std::uint64_t coord_leader = 0;
  Rational coord_window_start;
  Rational coord_window_end;
  /// Replicated-log admission routing (ServiceOptions::coord_log); the
  /// latency is the control plane's exact per-command commit latency.
  bool coord_log = false;
  Rational coord_log_latency;

  /// One deterministic JSON object (linted, stable key order, exact-string
  /// rationals, no wall times). See docs/SERVICE.md for the schema.
  [[nodiscard]] std::string to_json() const;
};

/// The long-running service. Jobs are submitted in arrival order; the
/// virtual clock is the arrivals themselves plus drain calls.
class BroadcastService {
 public:
  /// `metrics` != nullptr: svc.* metrics are maintained live in the
  /// registry (docs/OBSERVABILITY.md). The registry must outlive the
  /// service.
  explicit BroadcastService(ServiceOptions options = {},
                            obs::MetricsRegistry* metrics = nullptr);

  /// Admit-or-shed one job. Arrivals must be nondecreasing (InvalidArgument
  /// otherwise); job.n >= 1, job.lambda >= 1, job.m >= 1. Retires every
  /// departure up to the arrival first, so back-pressure sees the true
  /// in-flight population.
  JobOutcome submit(const Job& job);

  /// Advance the virtual clock to t, retiring departures.
  void drain_until(const Rational& t);

  /// Retire everything in flight and produce the final report.
  [[nodiscard]] ServiceReport drain();

  [[nodiscard]] const ServiceCounters& counters() const noexcept { return counters_; }
  /// In-flight jobs right now (admitted - completed).
  [[nodiscard]] std::uint64_t depth() const noexcept { return queue_.depth(); }
  [[nodiscard]] const obs::LatencyHistogram& histogram() const noexcept {
    return histogram_;
  }
  [[nodiscard]] const ServiceOptions& options() const noexcept { return options_; }

 private:
  struct PlanResult {
    Rational makespan;
    std::string planner;
  };

  [[nodiscard]] PlanResult plan_job(const Job& job);
  /// Elect the coordinator (and run the failover election when
  /// coord_crash_at > 0); called from the constructor under coord_ranks > 0.
  void init_coordinator();
  /// Event-driven execution of an admitted job; returns the actual
  /// completion to bill. Updates exec counters and `outcome`.
  [[nodiscard]] Rational execute_job(const Job& job, const Rational& planned,
                                     JobOutcome& outcome);
  void retire(std::uint64_t count);
  void record_sojourn(const Rational& sojourn);

  ServiceOptions options_;
  obs::MetricsRegistry* metrics_;
  TickDomain sojourn_domain_;
  AdmissionQueue queue_;
  std::deque<Rational> pending_sojourns_;  ///< in-flight, admission order
  ServiceCounters counters_;
  obs::LatencyHistogram histogram_;
  Rational server_free_;
  Rational last_arrival_;
  Rational horizon_;
  Rational sojourn_total_;
  Rational sojourn_max_;
  std::vector<Rational> sojourns_;  ///< only under keep_sojourns
  std::uint64_t coord_leader_ = 0;  ///< current coordinator (coord_ranks > 0)
  bool coord_window_open_ = false;  ///< a failover window exists
  Rational coord_window_start_;
  Rational coord_window_end_;
  Rational coord_log_latency_;  ///< per-command commit latency (coord_log)
};

/// The open-loop runner: stream every job of (spec, seed) through a fresh
/// BroadcastService and drain. When options.sojourn_grid is 1 (the
/// default), the histogram grid is folded from the spec
/// (WorkloadSpec::sojourn_grid) so fault-free sojourns land on it exactly.
[[nodiscard]] ServiceReport run_service(const WorkloadSpec& spec, std::uint64_t seed,
                                        const ServiceOptions& options = {},
                                        obs::MetricsRegistry* metrics = nullptr);

}  // namespace postal::svc
