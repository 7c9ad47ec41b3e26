#include "svc/service.hpp"

#include <limits>
#include <sstream>
#include <utility>

#include "coord/election.hpp"
#include "coord/log.hpp"
#include "model/params.hpp"
#include "obs/json_lint.hpp"
#include "oracle/oracle.hpp"
#include "par/schedule_cache.hpp"
#include "sched/registry.hpp"
#include "sim/json.hpp"
#include "sim/protocols/reliable_bcast.hpp"
#include "support/prng.hpp"

namespace postal::svc {

namespace {

/// Per-job fault seed: mixes the run's fault_seed with the job id so every
/// executed job sees an independent, reproducible plan.
std::uint64_t job_fault_seed(std::uint64_t fault_seed, std::uint64_t job_id) {
  SplitMix64 sm(fault_seed ^ (job_id * 0x9e3779b97f4a7c15ULL));
  return sm.next();
}

}  // namespace

BroadcastService::BroadcastService(ServiceOptions options,
                                   obs::MetricsRegistry* metrics)
    : options_(std::move(options)),
      metrics_(metrics),
      sojourn_domain_(options_.sojourn_grid),
      queue_(options_.queue_capacity),
      histogram_(options_.histogram_bits) {
  if (options_.threads == 0) options_.threads = 1;
  if (metrics_ != nullptr) {
    metrics_->gauge("svc.exec.trace_mode")
        .set(options_.trace_mode == TraceMode::kCounters ? 1 : 0);
  }
  POSTAL_REQUIRE(!options_.coord_log || options_.coord_ranks > 0,
                 "BroadcastService: coord_log requires coord_ranks > 0");
  if (options_.coord_ranks > 0) init_coordinator();
}

void BroadcastService::init_coordinator() {
  POSTAL_REQUIRE(options_.coord_ranks >= 2 || !(Rational(0) < options_.coord_crash_at),
                 "BroadcastService: coord_crash_at needs coord_ranks >= 2");
  const PostalParams params(options_.coord_ranks, options_.coord_lambda);
  if (options_.coord_log) {
    // Certify the control plane's replicated log fault-free and read off
    // the exact per-command commit latency every admission will be billed.
    coord::LogOptions lopts;
    lopts.commands = 1;
    lopts.threads = options_.threads;
    const coord::LogReport log = coord::run_log(params, nullptr, lopts);
    POSTAL_CHECK(log.validation.ok && log.check.ok);
    coord_log_latency_ = log.commit_latency;
    if (metrics_ != nullptr) {
      metrics_->rational("svc.coord.log_latency").add(coord_log_latency_);
    }
  }
  coord::ElectionOptions eopts;
  eopts.threads = options_.threads;
  // Fault-free seat of the initial coordinator. Both elections are judged
  // by the coordination validator; a failure is a library bug.
  const coord::ElectionReport initial = coord::run_election(params, nullptr, eopts);
  POSTAL_CHECK(initial.validation.ok && initial.check.ok);
  coord_leader_ = initial.leader;
  ++counters_.coord_elections;
  if (metrics_ != nullptr) metrics_->counter("svc.coord.elections").add();
  if (!(Rational(0) < options_.coord_crash_at)) return;
  FaultPlan plan;
  plan.crashes.push_back(
      CrashFault{static_cast<ProcId>(coord_leader_), options_.coord_crash_at});
  const coord::ElectionReport failover = coord::run_election(params, &plan, eopts);
  POSTAL_CHECK(failover.validation.ok && failover.check.ok && failover.settled);
  coord_leader_ = failover.leader;
  coord_window_start_ = options_.coord_crash_at;
  coord_window_end_ = failover.elected_at;
  coord_window_open_ = coord_window_start_ < coord_window_end_;
  ++counters_.coord_elections;
  ++counters_.coord_failovers;
  if (metrics_ != nullptr) {
    metrics_->counter("svc.coord.elections").add();
    metrics_->counter("svc.coord.failovers").add();
    metrics_->rational("svc.coord.window")
        .add(coord_window_end_ - coord_window_start_);
  }
}

BroadcastService::PlanResult BroadcastService::plan_job(const Job& job) {
  PlanResult out;
  if (job.m > 1) {
    // Best Section 4 multi-message algorithm by exact prediction. kRepeat
    // is valid for every (n, lambda, m), so the minimum always exists.
    bool found = false;
    MultiAlgo best = MultiAlgo::kRepeat;
    Rational best_time;
    const PostalParams params(job.n, job.lambda);
    for (const MultiAlgo algo : all_multi_algos()) {
      Rational predicted;
      try {
        predicted = predict_multi(algo, params, job.m);
      } catch (const InvalidArgument&) {
        continue;  // algorithm's regime excludes this (lambda, m)
      }
      if (!found || predicted < best_time) {
        found = true;
        best = algo;
        best_time = predicted;
      }
    }
    POSTAL_CHECK(found);
    out.makespan = best_time;
    out.planner = "registry:" + algo_name(best);
    ++counters_.planned_registry;
    if (metrics_ != nullptr) metrics_->counter("svc.plan.registry").add();
    return out;
  }
  if (options_.planner == PlannerPolicy::kAuto) {
    try {
      const oracle::ScheduleOracle oracle(job.n, job.lambda);
      out.makespan = oracle.makespan();
      out.planner = "oracle";
      ++counters_.planned_oracle;
      if (metrics_ != nullptr) metrics_->counter("svc.plan.oracle").add();
      return out;
    } catch (const OverflowError&) {
      // Oracle inadmissible (tick descent off the int64 grid); fall through
      // to the materialized path and report it.
    }
  }
  const PostalParams params(job.n, job.lambda);
  const auto schedule = par::ScheduleCache::global().bcast(params);
  out.makespan = schedule->makespan(job.lambda);
  out.planner = "materialized";
  ++counters_.planned_materialized;
  if (metrics_ != nullptr) metrics_->counter("svc.plan.materialized").add();
  return out;
}

Rational BroadcastService::execute_job(const Job& job, const Rational& planned,
                                       JobOutcome& outcome) {
  const PostalParams params(job.n, job.lambda);
  ReliableBcastOptions ropts;
  ropts.threads = options_.threads;
  ropts.trace_mode = options_.trace_mode;
  FaultPlan plan;
  const FaultPlan* plan_ptr = nullptr;
  if (options_.fault_seed != 0) {
    plan = random_fault_plan(params, job_fault_seed(options_.fault_seed, job.id),
                             options_.fault_options);
    if (!plan.empty()) plan_ptr = &plan;
  }
  const ReliableBcastReport report = run_reliable_bcast(params, plan_ptr, ropts);
  // The service's delivery guarantee rides on the protocol's: every live
  // processor covered, and the run certified by the crash-aware validator.
  POSTAL_CHECK(report.covered);
  POSTAL_CHECK(report.validation.ok);
  outcome.executed = true;
  outcome.exec_completion = report.completion;
  outcome.exec_retransmissions = report.counters.retransmissions;
  outcome.exec_crashed = static_cast<std::uint64_t>(report.crashed.size());
  ++counters_.exec_runs;
  counters_.exec_retransmissions += report.counters.retransmissions;
  counters_.exec_repairs += report.counters.repairs;
  counters_.exec_crashed += outcome.exec_crashed;
  if (metrics_ != nullptr) {
    metrics_->counter("svc.exec.runs").add();
    metrics_->counter("svc.exec.retransmissions").add(report.counters.retransmissions);
    metrics_->counter("svc.exec.repairs").add(report.counters.repairs);
  }
  if (plan_ptr == nullptr) {
    // Fault-free the run IS Algorithm BCAST: its completion must equal the
    // planner's f_lambda(n) exactly, or the library is broken.
    POSTAL_CHECK(report.completion == planned);
    ++counters_.exec_verified;
    if (metrics_ != nullptr) metrics_->counter("svc.exec.verified").add();
    return planned;
  }
  ++counters_.exec_faulted;
  if (metrics_ != nullptr) metrics_->counter("svc.exec.faulted").add();
  // Bill the actual completion: recovery overhead inflates the sojourn;
  // crashes can also finish the (smaller) live population early.
  return report.completion;
}

void BroadcastService::record_sojourn(const Rational& sojourn) {
  std::uint64_t ticks = 0;
  if (const auto exact = sojourn_domain_.to_ticks(sojourn)) {
    ticks = static_cast<std::uint64_t>(*exact);
  } else {
    ++counters_.sojourn_offgrid;
    if (metrics_ != nullptr) metrics_->counter("svc.sojourn.offgrid").add();
    try {
      const Rational scaled = sojourn * Rational(options_.sojourn_grid);
      ticks = static_cast<std::uint64_t>(scaled.ceil());
    } catch (const OverflowError&) {
      ticks = static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
    }
  }
  histogram_.record(ticks);
  sojourn_total_ += sojourn;
  sojourn_max_ = rmax(sojourn_max_, sojourn);
  if (options_.keep_sojourns) sojourns_.push_back(sojourn);
  if (metrics_ != nullptr) metrics_->rational("svc.sojourn_total").add(sojourn);
}

void BroadcastService::retire(std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) {
    POSTAL_CHECK(!pending_sojourns_.empty());
    record_sojourn(pending_sojourns_.front());
    pending_sojourns_.pop_front();
  }
  counters_.completed += count;
  if (metrics_ != nullptr && count > 0) {
    metrics_->counter("svc.completed").add(count);
    metrics_->gauge("svc.queue_depth").set(static_cast<std::int64_t>(queue_.depth()));
  }
}

JobOutcome BroadcastService::submit(const Job& job) {
  POSTAL_REQUIRE(job.n >= 1, "BroadcastService: job.n must be >= 1");
  POSTAL_REQUIRE(job.m >= 1, "BroadcastService: job.m must be >= 1");
  POSTAL_REQUIRE(!(job.lambda < Rational(1)),
                 "BroadcastService: job.lambda must be >= 1");
  POSTAL_REQUIRE(!(job.arrival < Rational(0)),
                 "BroadcastService: job.arrival must be >= 0");
  POSTAL_REQUIRE(!(job.arrival < last_arrival_),
                 "BroadcastService: arrivals must be nondecreasing");
  last_arrival_ = job.arrival;
  ++counters_.generated;
  if (metrics_ != nullptr) metrics_->counter("svc.generated").add();
  retire(queue_.retire_until(job.arrival));

  JobOutcome outcome;
  outcome.job = job;
  if (queue_.full()) {
    ++counters_.shed;
    if (metrics_ != nullptr) metrics_->counter("svc.shed").add();
    return outcome;
  }

  const PlanResult plan = plan_job(job);
  outcome.admitted = true;
  outcome.planned_makespan = plan.makespan;
  outcome.planner = plan.planner;
  ++counters_.admitted;

  Rational service_time = plan.makespan;
  const bool sampled =
      options_.exec_every != 0 && (counters_.admitted - 1) % options_.exec_every == 0;
  if (sampled && job.m == 1 && job.n >= 2) {
    service_time = execute_job(job, plan.makespan, outcome);
  }

  outcome.start = rmax(job.arrival, server_free_);
  if (coord_window_open_ && !(outcome.start < coord_window_start_) &&
      outcome.start < coord_window_end_) {
    // Leaderless window of the coordinator failover: nobody can grant the
    // start, so the job waits for the successor's victory.
    outcome.start = coord_window_end_;
    ++counters_.coord_deferred;
    if (metrics_ != nullptr) metrics_->counter("svc.coord.deferred").add();
  }
  if (options_.coord_log && options_.coord_ranks > 0) {
    // The admission is a log command: the start is granted only once it
    // commits on the control plane.
    outcome.start = outcome.start + coord_log_latency_;
    ++counters_.coord_log_commands;
    if (metrics_ != nullptr) metrics_->counter("svc.coord.log_commands").add();
  }
  outcome.completion = outcome.start + service_time;
  outcome.sojourn = outcome.completion - job.arrival;
  server_free_ = outcome.completion;
  horizon_ = rmax(horizon_, outcome.completion);
  queue_.push(outcome.completion);
  pending_sojourns_.push_back(outcome.sojourn);
  counters_.depth_max = queue_.depth_max();
  if (metrics_ != nullptr) {
    metrics_->counter("svc.admitted").add();
    metrics_->gauge("svc.queue_depth").set(static_cast<std::int64_t>(queue_.depth()));
  }
  return outcome;
}

void BroadcastService::drain_until(const Rational& t) {
  retire(queue_.retire_until(t));
}

ServiceReport BroadcastService::drain() {
  retire(queue_.retire_all());
  POSTAL_CHECK(pending_sojourns_.empty());
  POSTAL_CHECK(counters_.admitted == counters_.completed);
  POSTAL_CHECK(counters_.generated == counters_.admitted + counters_.shed);

  ServiceReport report;
  report.counters = counters_;
  report.horizon = horizon_;
  report.sojourn_total = sojourn_total_;
  report.sojourn_max = sojourn_max_;
  report.sojourn_grid = options_.sojourn_grid;
  report.histogram_bits = options_.histogram_bits;
  if (histogram_.count() > 0) {
    report.p50_ticks = histogram_.quantile(1, 2);
    report.p99_ticks = histogram_.quantile(99, 100);
    report.p999_ticks = histogram_.quantile(999, 1000);
    report.p50 = Rational(static_cast<std::int64_t>(report.p50_ticks),
                          options_.sojourn_grid);
    report.p99 = Rational(static_cast<std::int64_t>(report.p99_ticks),
                          options_.sojourn_grid);
    report.p999 = Rational(static_cast<std::int64_t>(report.p999_ticks),
                           options_.sojourn_grid);
  }
  if (counters_.completed > 0 && Rational(0) < horizon_) {
    report.throughput =
        Rational(static_cast<std::int64_t>(counters_.completed)) / horizon_;
  }
  if (options_.keep_sojourns) report.sojourns = sojourns_;
  if (options_.coord_ranks > 0) {
    report.coord_ranks = options_.coord_ranks;
    report.coord_leader = coord_leader_;
    report.coord_window_start = coord_window_start_;
    report.coord_window_end = coord_window_end_;
    report.coord_log = options_.coord_log;
    report.coord_log_latency = coord_log_latency_;
  }
  if (metrics_ != nullptr) metrics_->rational("svc.horizon").add(horizon_);
  return report;
}

std::string ServiceReport::to_json() const {
  std::ostringstream os;
  os << "{\"spec\":\"" << json_escape(spec) << "\"";
  os << ",\"seed\":" << seed;
  os << ",\"generated\":" << counters.generated;
  os << ",\"admitted\":" << counters.admitted;
  os << ",\"shed\":" << counters.shed;
  os << ",\"completed\":" << counters.completed;
  os << ",\"depth_max\":" << counters.depth_max;
  os << ",\"planned_oracle\":" << counters.planned_oracle;
  os << ",\"planned_materialized\":" << counters.planned_materialized;
  os << ",\"planned_registry\":" << counters.planned_registry;
  os << ",\"exec_runs\":" << counters.exec_runs;
  os << ",\"exec_verified\":" << counters.exec_verified;
  os << ",\"exec_faulted\":" << counters.exec_faulted;
  os << ",\"exec_retransmissions\":" << counters.exec_retransmissions;
  os << ",\"exec_repairs\":" << counters.exec_repairs;
  os << ",\"exec_crashed\":" << counters.exec_crashed;
  os << ",\"sojourn_grid\":" << sojourn_grid;
  os << ",\"histogram_bits\":" << histogram_bits;
  os << ",\"sojourn_offgrid\":" << counters.sojourn_offgrid;
  os << ",\"sojourn_total\":\"" << sojourn_total.str() << "\"";
  os << ",\"sojourn_max\":\"" << sojourn_max.str() << "\"";
  os << ",\"horizon\":\"" << horizon.str() << "\"";
  os << ",\"p50_ticks\":" << p50_ticks;
  os << ",\"p99_ticks\":" << p99_ticks;
  os << ",\"p999_ticks\":" << p999_ticks;
  os << ",\"p50\":\"" << p50.str() << "\"";
  os << ",\"p99\":\"" << p99.str() << "\"";
  os << ",\"p999\":\"" << p999.str() << "\"";
  os << ",\"throughput\":\"" << throughput.str() << "\"";
  if (coord_ranks > 0) {
    // Coordinator routing block: strictly conditional so coord-off reports
    // (every golden artifact predating the feature) stay byte-identical.
    os << ",\"coord_ranks\":" << coord_ranks;
    os << ",\"coord_leader\":" << coord_leader;
    os << ",\"coord_elections\":" << counters.coord_elections;
    os << ",\"coord_failovers\":" << counters.coord_failovers;
    os << ",\"coord_deferred\":" << counters.coord_deferred;
    os << ",\"coord_window_start\":\"" << coord_window_start.str() << "\"";
    os << ",\"coord_window_end\":\"" << coord_window_end.str() << "\"";
    if (coord_log) {
      // Log-routing block: conditional inside the coord block for the
      // same reason -- log-off coord reports keep their exact bytes.
      os << ",\"coord_log_commands\":" << counters.coord_log_commands;
      os << ",\"coord_log_latency\":\"" << coord_log_latency.str() << "\"";
    }
  }
  os << "}";
  std::string out = os.str();
  if (const auto error = obs::json_lint(out)) {
    throw LogicError("ServiceReport::to_json produced malformed JSON: " + *error);
  }
  return out;
}

ServiceReport run_service(const WorkloadSpec& spec, std::uint64_t seed,
                          const ServiceOptions& options,
                          obs::MetricsRegistry* metrics) {
  ServiceOptions opts = options;
  if (opts.sojourn_grid == 1) {
    if (const auto folded = spec.sojourn_grid()) opts.sojourn_grid = *folded;
  }
  WorkloadGenerator generator(spec, seed);
  BroadcastService service(opts, metrics);
  while (auto job = generator.next()) {
    static_cast<void>(service.submit(*job));
  }
  ServiceReport report = service.drain();
  report.spec = spec.to_string();
  report.seed = seed;
  return report;
}

}  // namespace postal::svc
