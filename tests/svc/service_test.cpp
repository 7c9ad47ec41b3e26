// Tests for the broadcast service core (docs/SERVICE.md): the admission
// queue's bookkeeping, submit()'s contract, planner selection, and the
// differential gate -- a single job routed through the service must agree
// exactly with the direct Communicator::broadcast() /
// broadcast_oracle() answer, across thread counts {1, 2, 4}.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/communicator.hpp"
#include "model/genfib.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/rational.hpp"
#include "support/ticks.hpp"
#include "svc/queue.hpp"
#include "svc/service.hpp"
#include "svc/workload.hpp"
#include "test_util.hpp"

namespace postal {
namespace {

using svc::AdmissionQueue;
using svc::BroadcastService;
using svc::Job;
using svc::JobOutcome;
using svc::PlannerPolicy;
using svc::ServiceOptions;
using svc::ServiceReport;
using svc::WorkloadSpec;

Job make_job(std::uint64_t id, Rational arrival, std::uint64_t n, Rational lambda,
             std::uint64_t m = 1) {
  Job job;
  job.id = id;
  job.arrival = std::move(arrival);
  job.n = n;
  job.lambda = std::move(lambda);
  job.m = m;
  return job;
}

// ---------------------------------------------------------------------------
// AdmissionQueue
// ---------------------------------------------------------------------------

TEST(AdmissionQueue, BoundsDepthAndTracksTheHighWaterMark) {
  AdmissionQueue queue(2);
  EXPECT_FALSE(queue.full());
  queue.push(Rational(3));
  queue.push(Rational(5));
  EXPECT_TRUE(queue.full());
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.depth_max(), 2u);
  POSTAL_EXPECT_THROW(queue.push(Rational(7)), LogicError);

  // A departure at exactly t frees the slot for an arrival at t.
  EXPECT_EQ(queue.retire_until(Rational(3)), 1u);
  EXPECT_FALSE(queue.full());
  EXPECT_EQ(queue.depth(), 1u);
  EXPECT_EQ(queue.depth_max(), 2u);  // high-water mark is sticky
  EXPECT_EQ(queue.retire_until(Rational(4)), 0u);  // nothing due yet

  queue.push(Rational(6));
  EXPECT_EQ(queue.retire_all(), 2u);
  EXPECT_EQ(queue.admitted(), 3u);
  EXPECT_EQ(queue.retired(), 3u);
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(AdmissionQueue, RejectsCompletionsGoingBackwards) {
  AdmissionQueue queue(0);
  queue.push(Rational(5));
  queue.push(Rational(5));  // equal is fine (FIFO ties)
  POSTAL_EXPECT_THROW(queue.push(Rational(9, 2)), LogicError);
}

TEST(AdmissionQueue, CapacityZeroIsUnbounded) {
  AdmissionQueue queue(0);
  for (int i = 1; i <= 1000; ++i) queue.push(Rational(i));
  EXPECT_FALSE(queue.full());
  EXPECT_EQ(queue.depth(), 1000u);
}

// ---------------------------------------------------------------------------
// submit() contract
// ---------------------------------------------------------------------------

TEST(BroadcastService, SubmitValidatesJobAndArrivalOrder) {
  BroadcastService service;
  POSTAL_EXPECT_THROW(service.submit(make_job(0, Rational(1), 0, Rational(1))),
                      InvalidArgument);
  POSTAL_EXPECT_THROW(service.submit(make_job(0, Rational(1), 4, Rational(1, 2))),
                      InvalidArgument);
  POSTAL_EXPECT_THROW(service.submit(make_job(0, Rational(1), 4, Rational(1), 0)),
                      InvalidArgument);
  POSTAL_EXPECT_THROW(service.submit(make_job(0, Rational(-1), 4, Rational(1))),
                      InvalidArgument);

  static_cast<void>(service.submit(make_job(0, Rational(2), 4, Rational(1))));
  // Arrivals must be nondecreasing; equal arrivals are allowed.
  static_cast<void>(service.submit(make_job(1, Rational(2), 4, Rational(1))));
  POSTAL_EXPECT_THROW(service.submit(make_job(2, Rational(1), 4, Rational(1))),
                      InvalidArgument);
}

TEST(BroadcastService, FifoVirtualTimeQueuesBehindTheServer) {
  // Every job is a broadcast in MPS(4, 1), so service time is f = f_1(4).
  const Rational f = GenFib(Rational(1)).f(4);
  ASSERT_LT(Rational(0), f);
  const Rational half = f / Rational(2);

  ServiceOptions options;
  options.queue_capacity = 0;
  BroadcastService service(options);

  const JobOutcome a = service.submit(make_job(0, Rational(0), 4, Rational(1)));
  EXPECT_TRUE(a.admitted);
  EXPECT_EQ(a.start, Rational(0));
  EXPECT_EQ(a.completion, f);
  EXPECT_EQ(a.sojourn, f);

  // Arrives mid-service: waits for the server, sojourn includes the wait.
  const JobOutcome b = service.submit(make_job(1, half, 4, Rational(1)));
  EXPECT_EQ(b.start, f);
  EXPECT_EQ(b.completion, f + f);
  EXPECT_EQ(b.sojourn, f + half);

  // Arrives after the backlog drained: starts immediately.
  const JobOutcome c = service.submit(make_job(2, Rational(3) * f, 4, Rational(1)));
  EXPECT_EQ(c.start, Rational(3) * f);
  EXPECT_EQ(c.sojourn, f);

  const ServiceReport report = service.drain();
  EXPECT_EQ(report.counters.generated, 3u);
  EXPECT_EQ(report.counters.completed, 3u);
  EXPECT_EQ(report.horizon, Rational(4) * f);
  EXPECT_EQ(report.sojourn_max, f + half);
  EXPECT_EQ(report.sojourn_total, Rational(2) * f + (f + half));
}

TEST(BroadcastService, ShedsWhenFullAndAdmitsAgainAfterDepartures) {
  const Rational f = GenFib(Rational(1)).f(4);
  ServiceOptions options;
  options.queue_capacity = 1;
  BroadcastService service(options);

  const JobOutcome a = service.submit(make_job(0, Rational(0), 4, Rational(1)));
  ASSERT_TRUE(a.admitted);
  ASSERT_EQ(a.completion, f);

  // Mid-service arrival finds the queue full: shed, nothing billed.
  const JobOutcome b = service.submit(make_job(1, f / Rational(2), 4, Rational(1)));
  EXPECT_FALSE(b.admitted);
  EXPECT_EQ(b.planner, "");
  EXPECT_EQ(b.sojourn, Rational(0));
  EXPECT_EQ(service.depth(), 1u);

  // Arrival at exactly the completion time is admitted (departure first).
  const JobOutcome c = service.submit(make_job(2, f, 4, Rational(1)));
  EXPECT_TRUE(c.admitted);
  EXPECT_EQ(c.start, f);

  const ServiceReport report = service.drain();
  EXPECT_EQ(report.counters.generated, 3u);
  EXPECT_EQ(report.counters.admitted, 2u);
  EXPECT_EQ(report.counters.shed, 1u);
  EXPECT_EQ(report.counters.depth_max, 1u);
}

TEST(BroadcastService, DrainUntilRetiresDeparturesOnAnIdleService) {
  const Rational f = GenFib(Rational(1)).f(4);
  ServiceOptions options;
  options.queue_capacity = 4;
  BroadcastService service(options);
  static_cast<void>(service.submit(make_job(0, Rational(0), 4, Rational(1))));
  static_cast<void>(service.submit(make_job(1, Rational(0), 4, Rational(1))));
  EXPECT_EQ(service.depth(), 2u);
  service.drain_until(f);  // the first job departs at f, the second at 2f
  EXPECT_EQ(service.depth(), 1u);
  EXPECT_EQ(service.counters().completed, 1u);
  service.drain_until(Rational(100) * f);
  EXPECT_EQ(service.depth(), 0u);
  static_cast<void>(service.drain());
}

// ---------------------------------------------------------------------------
// Planner selection
// ---------------------------------------------------------------------------

TEST(BroadcastService, PlannerPoliciesAgreeOnTheMakespan) {
  const Rational expected = GenFib(Rational(5, 2)).f(64);

  BroadcastService auto_service;
  const JobOutcome via_oracle =
      auto_service.submit(make_job(0, Rational(0), 64, Rational(5, 2)));
  EXPECT_EQ(via_oracle.planner, "oracle");
  EXPECT_EQ(via_oracle.planned_makespan, expected);
  EXPECT_EQ(auto_service.counters().planned_oracle, 1u);

  ServiceOptions materialized;
  materialized.planner = PlannerPolicy::kMaterialized;
  BroadcastService mat_service(materialized);
  const JobOutcome via_schedule =
      mat_service.submit(make_job(0, Rational(0), 64, Rational(5, 2)));
  EXPECT_EQ(via_schedule.planner, "materialized");
  EXPECT_EQ(via_schedule.planned_makespan, expected);
  EXPECT_EQ(mat_service.counters().planned_materialized, 1u);

  static_cast<void>(auto_service.drain());
  static_cast<void>(mat_service.drain());
}

TEST(BroadcastService, MultiMessageJobsUseTheRegistryBestAlgorithm) {
  Communicator comm(32, Rational(2));
  const Rational expected = comm.broadcast(6).completion;

  BroadcastService service;
  const JobOutcome outcome = service.submit(make_job(0, Rational(0), 32, Rational(2), 6));
  EXPECT_TRUE(outcome.admitted);
  EXPECT_EQ(outcome.planner.rfind("registry:", 0), 0u) << outcome.planner;
  EXPECT_EQ(outcome.planned_makespan, expected);
  EXPECT_EQ(service.counters().planned_registry, 1u);
  static_cast<void>(service.drain());
}

// ---------------------------------------------------------------------------
// The differential gate (satellite): service == direct API, every engine
// ---------------------------------------------------------------------------

TEST(ServiceDifferential, SingleJobMatchesBroadcastAndOracleAcrossEngines) {
  // One deterministic job: rate == grid makes the first tick fire, so the
  // job arrives at 1/4 regardless of seed.
  const WorkloadSpec spec =
      WorkloadSpec::parse("poisson;grid=4;rate=4;jobs=1;mix=w1:n64:l5/2:m1");

  Communicator comm(64, Rational(5, 2));
  const CollectivePlan plan = comm.broadcast();
  ASSERT_TRUE(plan.verified);
  const Rational f = comm.broadcast_time();
  EXPECT_EQ(plan.completion, f);
  EXPECT_EQ(comm.broadcast_oracle().makespan(), f);

  std::vector<std::string> jsons;
  for (const unsigned threads : {1u, 2u, 4u}) {
    ServiceOptions options;
    options.exec_every = 1;  // actually run the job on the Machine
    options.threads = threads;
    const ServiceReport report = Communicator::serve(spec, 7, options);

    // The one job starts at its arrival, so sojourn == service time ==
    // the direct answer, at every lane count.
    EXPECT_EQ(report.counters.completed, 1u);
    EXPECT_EQ(report.counters.exec_runs, 1u);
    EXPECT_EQ(report.counters.exec_verified, 1u);
    EXPECT_EQ(report.sojourn_max, f);
    EXPECT_EQ(report.p50, f);
    EXPECT_EQ(report.p999, f);
    EXPECT_EQ(report.horizon, Rational(1, 4) + f);
    jsons.push_back(report.to_json());
  }
  // Byte-identical reports across every engine configuration.
  for (const std::string& json : jsons) EXPECT_EQ(json, jsons.front());
}

TEST(ServiceDifferential, IntegerLambdaExercisesTheShardedEngineIdentically) {
  // lambda = 2 keeps the reliable protocol's timers on the tick grid, so
  // threads > 1 really runs the sharded ParMachine (docs/PARALLELISM.md).
  const WorkloadSpec spec =
      WorkloadSpec::parse("poisson;grid=4;rate=4;jobs=3;mix=w1:n96:l2:m1");
  std::vector<std::string> jsons;
  for (const unsigned threads : {1u, 2u, 4u}) {
    ServiceOptions options;
    options.exec_every = 1;
    options.threads = threads;
    const ServiceReport report = Communicator::serve(spec, 11, options);
    EXPECT_EQ(report.counters.exec_verified, 3u);
    EXPECT_EQ(report.sojourn_max, report.p999);
    jsons.push_back(report.to_json());
  }
  for (const std::string& json : jsons) EXPECT_EQ(json, jsons.front());
}

TEST(ServiceDifferential, BroadcastJobRoutesThroughTheCommunicator) {
  Communicator comm(64, Rational(5, 2));
  const Rational f = comm.broadcast_time();

  ServiceOptions options;
  options.exec_every = 1;
  BroadcastService service(options);
  const JobOutcome first = comm.broadcast_job(service, Rational(1));
  EXPECT_TRUE(first.admitted);
  EXPECT_TRUE(first.executed);
  EXPECT_EQ(first.job.id, 0u);
  EXPECT_EQ(first.job.n, 64u);
  EXPECT_EQ(first.planned_makespan, f);
  EXPECT_EQ(first.exec_completion, f);
  EXPECT_EQ(first.completion, Rational(1) + f);

  // Jobs queue FIFO behind the first; ids follow the generated counter.
  const JobOutcome second = comm.broadcast_job(service, Rational(2));
  EXPECT_EQ(second.job.id, 1u);
  EXPECT_EQ(second.start, first.completion);
  const ServiceReport report = service.drain();
  EXPECT_EQ(report.counters.admitted, 2u);
  EXPECT_EQ(report.counters.planned_oracle, 2u);
}

TEST(BroadcastService, LiveMetricsMirrorTheCounters) {
  obs::MetricsRegistry registry;
  ServiceOptions options;
  options.queue_capacity = 1;
  BroadcastService service(options, &registry);
  static_cast<void>(service.submit(make_job(0, Rational(0), 8, Rational(1))));
  static_cast<void>(service.submit(make_job(1, Rational(1), 8, Rational(1))));
  const ServiceReport report = service.drain();
  EXPECT_EQ(registry.counter("svc.generated").value(), report.counters.generated);
  EXPECT_EQ(registry.counter("svc.admitted").value(), report.counters.admitted);
  EXPECT_EQ(registry.counter("svc.shed").value(), report.counters.shed);
  EXPECT_EQ(registry.counter("svc.plan.oracle").value(),
            report.counters.planned_oracle);
}

}  // namespace
}  // namespace postal
