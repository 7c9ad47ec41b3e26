#include "api/communicator.hpp"

#include "collectives/allgather.hpp"
#include "collectives/alltoall.hpp"
#include "collectives/barrier.hpp"
#include "collectives/multi_source.hpp"
#include "collectives/reduce.hpp"
#include "collectives/scan.hpp"
#include "collectives/scatter.hpp"
#include "model/bounds.hpp"
#include "sched/bcast.hpp"
#include "sim/validator.hpp"

namespace postal {

namespace {

/// Run the standard validator and stamp the plan; a failure here is a
/// library bug, not user error.
CollectivePlan finish(Schedule schedule, Rational completion, Rational lower,
                      std::string algorithm, const PostalParams& params,
                      const ValidatorOptions& options) {
  const SimReport report = validate_schedule(schedule, params, options);
  if (!report.ok) {
    throw LogicError("Communicator produced an invalid plan (" + algorithm +
                     "): " + report.summary());
  }
  POSTAL_CHECK(report.makespan == completion);
  CollectivePlan plan;
  plan.schedule = std::move(schedule);
  plan.completion = std::move(completion);
  plan.lower_bound = std::move(lower);
  plan.algorithm = std::move(algorithm);
  plan.verified = true;
  return plan;
}

}  // namespace

Communicator::Communicator(std::uint64_t n, Rational lambda)
    : params_(n, lambda), fib_(params_.lambda()) {}

Rational Communicator::broadcast_time() { return fib_.f(params_.n()); }

oracle::ScheduleOracle Communicator::broadcast_oracle() const {
  return oracle::ScheduleOracle(params_.n(), params_.lambda());
}

ReliableBcastReport Communicator::broadcast_reliable(
    const FaultPlan* plan, const ReliableBcastOptions& options) {
  ReliableBcastOptions effective = options;
  if (effective.threads == 0) effective.threads = threads_;
  return run_reliable_bcast(params_, plan, effective);
}

coord::ElectionReport Communicator::elect_leader(
    const FaultPlan* plan, const coord::ElectionOptions& options) {
  coord::ElectionOptions effective = options;
  if (effective.threads == 0) effective.threads = threads_;
  return coord::run_election(params_, plan, effective);
}

coord::LogReport Communicator::replicate_log(const FaultPlan* plan,
                                             const coord::LogOptions& options) {
  coord::LogOptions effective = options;
  if (effective.threads == 0) effective.threads = threads_;
  return coord::run_log(params_, plan, effective);
}

svc::JobOutcome Communicator::broadcast_job(svc::BroadcastService& service,
                                            const Rational& arrival,
                                            std::uint64_t m) const {
  svc::Job job;
  job.id = service.counters().generated;
  job.arrival = arrival;
  job.n = params_.n();
  job.lambda = params_.lambda();
  job.m = m;
  return service.submit(job);
}

svc::ServiceReport Communicator::serve(const svc::WorkloadSpec& spec,
                                       std::uint64_t seed,
                                       const svc::ServiceOptions& options,
                                       obs::MetricsRegistry* metrics) {
  return svc::run_service(spec, seed, options, metrics);
}

CollectivePlan Communicator::broadcast(std::uint64_t m) {
  POSTAL_REQUIRE(m >= 1, "Communicator::broadcast: m must be >= 1");
  if (m == 1) {
    ValidatorOptions options;
    options.messages = 1;
    options.require_coverage = params_.n() > 1;
    return finish(bcast_schedule(params_, fib_), fib_.f(params_.n()),
                  fib_.f(params_.n()), "BCAST", params_, options);
  }
  MultiAlgo best = MultiAlgo::kRepeat;
  Rational best_time;
  bool first = true;
  for (const MultiAlgo algo : all_multi_algos()) {
    const Rational t = predict_multi(algo, params_, m);
    if (first || t < best_time) {
      best = algo;
      best_time = t;
      first = false;
    }
  }
  return broadcast_with(best, m);
}

CollectivePlan Communicator::broadcast_with(MultiAlgo algo, std::uint64_t m) {
  POSTAL_REQUIRE(m >= 1, "Communicator::broadcast_with: m must be >= 1");
  ValidatorOptions options;
  options.messages = static_cast<std::uint32_t>(m);
  options.require_coverage = params_.n() > 1;
  return finish(make_multi_schedule(algo, params_, m),
                predict_multi(algo, params_, m), lemma8_lower(fib_, params_.n(), m),
                algo_name(algo), params_, options);
}

CollectivePlan Communicator::reduce() {
  // Reduce has combining semantics the generic validator cannot express;
  // use its dedicated checker and adapt the result.
  Schedule schedule = reduce_schedule(params_);
  const ReduceReport report = validate_reduce(schedule, params_);
  if (!report.ok) {
    throw LogicError("Communicator produced an invalid reduce plan");
  }
  CollectivePlan plan;
  plan.schedule = std::move(schedule);
  plan.completion = predict_reduce(params_);
  plan.lower_bound = plan.completion;  // mirrors broadcast optimality
  plan.algorithm = "REDUCE (reversed BCAST)";
  plan.verified = true;
  POSTAL_CHECK(params_.n() == 1 || report.completion == plan.completion);
  return plan;
}

CollectivePlan Communicator::scatter() {
  return finish(scatter_schedule(params_), predict_scatter(params_),
                scatter_gather_lower_bound(params_), "SCATTER (direct)", params_,
                scatter_goal(params_));
}

CollectivePlan Communicator::gather() {
  return finish(gather_schedule(params_), predict_gather(params_),
                scatter_gather_lower_bound(params_), "GATHER (direct)", params_,
                gather_goal(params_));
}

CollectivePlan Communicator::allgather() {
  return finish(allgather_direct_schedule(params_), predict_allgather_direct(params_),
                allgather_lower_bound(params_), "ALLGATHER (direct exchange)",
                params_, allgather_goal(params_));
}

CollectivePlan Communicator::alltoall() {
  return finish(alltoall_schedule(params_), predict_alltoall(params_),
                alltoall_lower_bound(params_), "ALLTOALL (rotated exchange)",
                params_, alltoall_goal(params_));
}

CollectivePlan Communicator::barrier() {
  // The barrier mixes combining semantics (phase 1) with broadcast
  // semantics (phase 2); validate the phases separately, as the tests do.
  Schedule schedule = barrier_schedule(params_);
  Schedule arrive;
  Schedule release;
  const Rational arrive_done = predict_reduce(params_);
  for (const SendEvent& e : schedule.events()) {
    if (e.msg == params_.n()) {
      release.add(e.src, e.dst, 0, e.t - arrive_done);
    } else {
      arrive.add(e);
    }
  }
  const bool phase1 = validate_reduce(arrive, params_).ok;
  ValidatorOptions options;
  options.messages = 1;
  options.require_coverage = params_.n() > 1;
  const bool phase2 = validate_schedule(release, params_, options).ok;
  if (!phase1 || !phase2) {
    throw LogicError("Communicator produced an invalid barrier plan");
  }
  CollectivePlan plan;
  plan.schedule = std::move(schedule);
  plan.completion = predict_barrier(params_);
  plan.lower_bound = Rational(2) * fib_.f(params_.n());
  plan.algorithm = "BARRIER (combine + release)";
  plan.verified = true;
  return plan;
}

CollectivePlan Communicator::multi_source(const std::vector<ProcId>& sources) {
  return finish(multi_source_schedule(params_, sources),
                predict_multi_source(params_, sources),
                multi_source_lower_bound(params_, sources.size()),
                "MULTI-SOURCE (gather + pipeline)", params_,
                multi_source_goal(params_, sources));
}

CollectivePlan Communicator::scan() {
  // Scan mixes combining (up-sweep) and personalized-prefix (down-sweep)
  // semantics; scan_values() enforces the data-availability timing, and
  // the phases' port usage mirrors reduce + BCAST, validated separately.
  Schedule schedule = scan_schedule(params_);
  Schedule up;
  Schedule down;
  const Rational half = predict_reduce(params_);
  for (const SendEvent& e : schedule.events()) {
    if (e.msg < params_.n()) {
      up.add(e.src, e.dst, e.msg, e.t);
    } else {
      down.add(e.src, e.dst, 0, e.t - half);
    }
  }
  const bool phase1 = validate_reduce(up, params_).ok;
  ValidatorOptions options;
  options.messages = 1;
  options.require_coverage = params_.n() > 1;
  const bool phase2 = validate_schedule(down, params_, options).ok;
  if (!phase1 || !phase2) {
    throw LogicError("Communicator produced an invalid scan plan");
  }
  CollectivePlan plan;
  plan.schedule = std::move(schedule);
  plan.completion = predict_scan(params_);
  plan.lower_bound = fib_.f(params_.n());  // at least one full dissemination
  plan.algorithm = "SCAN (up-sweep + down-sweep)";
  plan.verified = true;
  return plan;
}

}  // namespace postal
