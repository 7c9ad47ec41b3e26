// serve_1m: 10^6 Poisson jobs through BroadcastService::submit and drain,
// one caller replaying an open-loop job trace in model time.
#include <algorithm>
#include <memory>
#include <optional>

#include "harness.hpp"
#include "model/genfib.hpp"
#include "oracle/oracle.hpp"
#include "svc/service.hpp"
#include "svc/workload.hpp"

namespace perfbench {
namespace {

using namespace postal;

constexpr const char* kSpec =
    "poisson;grid=16;rate=1/16;jobs=1000000;mix=w3:n64:l2:m1|w1:n256:l5/2:m1";
constexpr std::uint64_t kQueue = 512;
constexpr std::uint64_t kExecEvery = 1024;

/// Nearest-rank quantile num/den of `v` (reordered in place).
double quantile(std::vector<std::int64_t>& v, std::uint64_t num, std::uint64_t den) {
  if (v.empty()) return 0.0;
  const std::uint64_t size = v.size();
  const std::uint64_t rank = std::max<std::uint64_t>(1, (size * num + den - 1) / den);
  const auto nth = v.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(v.begin(), nth, v.end());
  return static_cast<double>(*nth);
}

class Serve1m final : public Workload {
 public:
  [[nodiscard]] std::string name() const override { return "serve_1m"; }

  void setup(const Options& opts, Tracer& tracer) override {
    spec_ = svc::WorkloadSpec::parse(kSpec);
    if (opts.smoke) spec_.jobs = 10'000;
    // The job trace is the program's only input: generated here from the
    // seed, then replayed identically by every pass.
    svc::WorkloadGenerator generator(spec_, opts.seed);
    jobs_.reserve(spec_.jobs);
    while (std::optional<svc::Job> job = generator.next()) jobs_.push_back(*job);
    if (opts.broken) std::swap(jobs_[jobs_.size() / 2].arrival, jobs_[jobs_.size() / 2 + 1].arrival);
    options_.queue_capacity = kQueue;
    options_.exec_every = kExecEvery;
    options_.sojourn_grid = *spec_.sojourn_grid();
    plan_submit_ = tracer.intern("svc.submit_plan");
    exec_submit_ = tracer.intern("svc.submit_exec");
    drain_ = tracer.intern("svc.drain");
    report_ = tracer.intern("svc.report_json");
  }

  void pass(Pass& p) override {
    Gates& g = p.gates;
    svc::BroadcastService service(options_);
    bool submitted = true;
    try {
      if (p.traced) {
        // Each call is timed by hand so it can be filed under the tier it
        // took: plan-only or executed.
        for (const svc::Job& job : jobs_) {
          const std::int64_t start = stamp();
          const bool executed = service.submit(job).executed;
          p.tracer.record(executed ? exec_submit_ : plan_submit_, start, stamp());
        }
      } else {
        for (const svc::Job& job : jobs_) static_cast<void>(service.submit(job));
      }
    } catch (const std::exception&) {
      submitted = false;
    }
    g.check(submitted, "serve_1m: every submit accepted");
    if (!submitted) return;
    const svc::ServiceReport report = p.call(drain_, [&] { return service.drain(); });
    const std::string json = p.call(report_, [&] { return report.to_json(); });

    const svc::ServiceCounters& c = report.counters;
    g.check(c.generated == spec_.jobs && c.generated == c.admitted + c.shed &&
                c.admitted == c.completed,
            "serve_1m: generated = admitted + shed and admitted = completed");
    g.check(c.exec_verified == c.exec_runs &&
                c.exec_runs == (c.admitted + kExecEvery - 1) / kExecEvery,
            "serve_1m: every sampled job executed and matched its plan");
    if (p.warmup) reference_json_ = json;
    g.check(json == reference_json_, "serve_1m: report JSON identical across passes");
    p.values["svc.admitted"] = static_cast<double>(c.admitted);
    p.values["svc.shed"] = static_cast<double>(c.shed);
    p.values["svc.exec_runs"] = static_cast<double>(c.exec_runs);
    p.values["svc.planned_oracle"] = static_cast<double>(c.planned_oracle);
  }

  [[nodiscard]] std::size_t spans_per_pass() const override { return jobs_.size() + 16; }

  std::vector<std::pair<LayerMetric, double>> layer_metrics(
      const Tracer& tracer, const std::vector<const Tracer::PassInfo*>& passes,
      const std::vector<std::map<std::string, double>>& values, Gates& gates) override {
    std::vector<double> plan50, plan99, exec50, exec99, all50, all99, exec_share;
    for (const Tracer::PassInfo* pass : passes) {
      std::vector<std::int64_t> plan, exec, all;
      for (std::size_t i = pass->first_record; i < pass->end_record; ++i) {
        const Tracer::Record& r = tracer.records()[i];
        if (r.name == plan_submit_) plan.push_back(r.end - r.start);
        if (r.name == exec_submit_) exec.push_back(r.end - r.start);
      }
      std::int64_t exec_total = 0;
      for (const std::int64_t ns : exec) exec_total += ns;
      exec_share.push_back(static_cast<double>(exec_total) /
                           static_cast<double>(pass->end - pass->start));
      all = plan;
      all.insert(all.end(), exec.begin(), exec.end());
      all50.push_back(quantile(all, 1, 2) / 1e3);
      all99.push_back(quantile(all, 99, 100) / 1e3);
      plan50.push_back(quantile(plan, 1, 2));
      plan99.push_back(quantile(plan, 99, 100));
      exec50.push_back(quantile(exec, 1, 2) / 1e3);
      exec99.push_back(quantile(exec, 99, 100) / 1e3);
    }
    return {
        {{"svc.submit_p50_us", "us"}, median(all50)},
        {{"svc.submit_p99_us", "us"}, median(all99)},
        {{"svc.plan_submit_ns_p50", "ns"}, median(plan50)},
        {{"svc.plan_submit_ns_p99", "ns"}, median(plan99)},
        {{"svc.exec_submit_us_p50", "us"}, median(exec50)},
        {{"svc.exec_submit_us_p99", "us"}, median(exec99)},
        {{"svc.exec_share", "ratio"}, median(exec_share)},
        {{"svc.drain_ms", "ms"}, span_ms(passes, drain_)},
        {{"oracle.makespan_ns", "ns"}, oracle_makespan_ns(gates)},
        {{"svc.admitted", "count"}, value_median(values, "svc.admitted")},
        {{"svc.shed", "count"}, value_median(values, "svc.shed")},
        {{"svc.exec_runs", "count"}, value_median(values, "svc.exec_runs")},
        {{"svc.planned_oracle", "count"}, value_median(values, "svc.planned_oracle")},
    };
  }

 private:
  /// Host time of one ScheduleOracle(n, lambda).makespan() -- the planning
  /// step of every plan-only submit -- over the mix's shapes.
  double oracle_makespan_ns(Gates& gates) {
    constexpr int kReps = 20'000;
    std::vector<double> per_call;
    for (const svc::MixEntry& shape : spec_.mix) {
      GenFib fib(shape.lambda);
      const Rational expected = fib.f(shape.n);
      bool ok = true;
      const std::int64_t start = now_ns();
      for (int i = 0; i < kReps; ++i) {
        const oracle::ScheduleOracle oracle(shape.n, shape.lambda);
        ok = ok && oracle.makespan() == expected;
      }
      per_call.push_back(static_cast<double>(now_ns() - start) / kReps);
      gates.check(ok, "serve_1m: oracle makespan equals f_lambda(n)");
    }
    return median(per_call);
  }

  svc::WorkloadSpec spec_;
  std::vector<svc::Job> jobs_;
  svc::ServiceOptions options_;
  std::string reference_json_;
  SpanId plan_submit_ = 0, exec_submit_ = 0, drain_ = 0, report_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_1m() { return std::make_unique<Serve1m>(); }

}  // namespace perfbench
