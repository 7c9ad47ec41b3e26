// bcast_1m: Algorithm BCAST at n = 10^6, lambda = 5/2, through every
// per-event layer -- generate, validate, Machine, ParMachine, the oracle's
// event stream through the StreamingValidator, and the obs bridges.
#include <algorithm>
#include <memory>

#include "harness.hpp"
#include "model/genfib.hpp"
#include "obs/instrument.hpp"
#include "obs/metrics.hpp"
#include "oracle/oracle.hpp"
#include "sched/bcast.hpp"
#include "sim/machine.hpp"
#include "sim/par_machine.hpp"
#include "sim/protocols/bcast_protocol.hpp"
#include "sim/stream_validator.hpp"
#include "sim/validator.hpp"
#include "support/prng.hpp"

namespace perfbench {
namespace {

using namespace postal;

constexpr std::uint64_t kStreamChunk = 1 << 14;  ///< ranks per certified range

/// The field-wise byte-identity check of the sharded engine against the
/// sequential one (the same comparison bench_par_machine makes).
bool results_identical(const MachineResult& a, const MachineResult& b) {
  return a.schedule.events() == b.schedule.events() &&
         a.trace.deliveries() == b.trace.deliveries() &&
         a.stats.events_processed == b.stats.events_processed &&
         a.stats.sends_enqueued == b.stats.sends_enqueued &&
         a.stats.max_fifo_depth == b.stats.max_fifo_depth &&
         a.stats.port_busy == b.stats.port_busy &&
         a.faults.events == b.faults.events;
}

/// `schedule` with event `index` started 1/q later (q = lambda's
/// denominator): the smallest move the model's time grid can express.
Schedule moved_event(const Schedule& schedule, std::size_t index, const Rational& lambda) {
  Schedule out;
  const std::vector<SendEvent>& events = schedule.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    SendEvent e = events[i];
    if (i == index) e.t = e.t + Rational(1, lambda.den());
    out.add(e);
  }
  return out;
}

class Bcast1m final : public Workload {
 public:
  [[nodiscard]] std::string name() const override { return "bcast_1m"; }

  void setup(const Options& opts, Tracer& tracer) override {
    n_ = opts.smoke ? 10'000 : 1'000'000;
    params_ = std::make_unique<PostalParams>(n_, lambda_);
    fib_ = std::make_unique<GenFib>(lambda_);
    expected_ = fib_->f(n_);
    broken_ = opts.broken;
    // Certified rank ranges of the oracle's event stream: the head, the
    // tail, the range around the last-informed rank (whose arrival is the
    // makespan), and one seeded middle. Certifying every rank would cost
    // about 6 us per rank at n = 10^6, two thirds of the pass.
    Xoshiro256 rng(opts.seed);
    const std::uint64_t chunk = std::min<std::uint64_t>(kStreamChunk, n_ / 8);
    const std::uint64_t witness = oracle::ScheduleOracle(n_, lambda_).last_informed_rank();
    const std::uint64_t witness_lo = witness > chunk / 2 ? witness - chunk / 2 : 1;
    for (const std::uint64_t lo : {std::uint64_t{1}, n_ - chunk, std::min(witness_lo, n_ - chunk),
                                   rng.uniform(1, n_ - chunk)}) {
      ranges_.emplace_back(lo, lo + chunk);
    }
    witness_ = witness;
    stream_events_ = static_cast<double>(ranges_.size() * chunk);
    broken_index_ = rng.uniform(1, n_ - 2);
    par_ = std::make_unique<ParMachine>(*params_, 1);
    par_->set_threads(opts.lanes);
    generate_ = tracer.intern("sched.bcast");
    validate_ = tracer.intern("sim.validate");
    machine_ = tracer.intern("sim.machine");
    par_run_ = tracer.intern("sim.par");
    stream_ = tracer.intern("oracle.stream_certify");
    instrument_ = tracer.intern("obs.instrument");
  }

  void pass(Pass& p) override {
    Gates& g = p.gates;
    Schedule schedule = p.call(generate_, [&] { return bcast_schedule(*params_, *fib_); });
    if (broken_) schedule = moved_event(schedule, broken_index_, lambda_);

    const SimReport report = p.call(validate_, [&] { return validate_schedule(schedule, *params_); });
    g.check(report.ok && report.makespan == expected_,
            "bcast_1m: validator ok with makespan f_lambda(n)");
    p.values["sim.events.validate"] = static_cast<double>(report.trace.delivery_count());

    const MachineResult seq = p.call(machine_, [&] {
      Machine machine(*params_, 1);
      BcastProtocol protocol(*params_);
      return machine.run(protocol);
    });
    g.check(seq.trace.makespan() == expected_ && seq.schedule.events() == schedule.events(),
            "bcast_1m: Machine makespan and schedule equal the generated ones");
    p.values["sim.events.machine"] = static_cast<double>(seq.stats.events_processed);

    auto factory = make_protocol_factory<BcastProtocol>(*params_);
    const MachineResult par = p.call(par_run_, [&] { return par_->run(factory); });
    const ParRunInfo& info = par_->last_run_info();
    g.check(info.parallel_engine && results_identical(par, seq),
            "bcast_1m: ParMachine byte-identical to Machine");
    if (!p.warmup) {
      g.check(info.arena_growths == 0, "bcast_1m: no ParMachine arena growth when warm");
    }
    p.values["sim.par_window_ms"] = info.window_ms;
    p.values["sim.par_merge_ms"] = info.merge_ms;
    p.values["sim.par_flush_ms"] = info.flush_ms;
    p.values["sim.par_windows"] = static_cast<double>(info.windows);
    p.values["sim.par_arena_growths"] = static_cast<double>(info.arena_growths);
    p.values["sim.events.par"] = static_cast<double>(par.stats.events_processed);

    const std::vector<StreamReport> certs = p.call(stream_, [&] {
      const oracle::ScheduleOracle oracle(n_, lambda_);
      std::vector<StreamReport> reports;
      for (const auto& [lo, hi] : ranges_) {
        StreamingValidator validator(oracle, lo, hi);
        validator.feed(oracle.events(lo, hi));
        reports.push_back(validator.finish());
      }
      return reports;
    });
    for (std::size_t i = 0; i < certs.size(); ++i) {
      const auto& [lo, hi] = ranges_[i];
      const bool holds_witness = lo <= witness_ && witness_ < hi;
      g.check(certs[i].ok && certs[i].events_checked == hi - lo &&
                  (!holds_witness || certs[i].last_arrival == expected_),
              "bcast_1m: streaming certificate covers every rank of its range");
    }
    const std::size_t metrics = p.call(instrument_, [&] {
      obs::MetricsRegistry registry;
      obs::record_sim_report(registry, report);
      obs::record_machine_stats(registry, seq.stats);
      obs::record_par_run(registry, info);
      return registry.size();
    });
    g.check(metrics > n_, "bcast_1m: obs bridges registered every port");
  }

  std::vector<std::pair<LayerMetric, double>> layer_metrics(
      const Tracer& /*tracer*/, const std::vector<const Tracer::PassInfo*>& passes,
      const std::vector<std::map<std::string, double>>& values, Gates& gates) override {
    const double events = value_median(values, "sim.events.machine");
    gates.check(value_median(values, "sim.events.validate") == events &&
                    value_median(values, "sim.events.par") == events,
                "bcast_1m: every engine delivered the same number of events");
    const double validate_ms = span_ms(passes, validate_);
    const double machine_ms = span_ms(passes, machine_);
    const double par_ms = span_ms(passes, par_run_);
    const double window = value_median(values, "sim.par_window_ms");
    const double merge = value_median(values, "sim.par_merge_ms");
    const double flush = value_median(values, "sim.par_flush_ms");
    return {
        {{"sched.bcast_ms", "ms"}, span_ms(passes, generate_)},
        {{"sim.validate_ms", "ms"}, validate_ms},
        {{"sim.validate_ns_per_event", "ns"}, validate_ms * 1e6 / events},
        {{"sim.machine_ms", "ms"}, machine_ms},
        {{"sim.machine_ns_per_event", "ns"}, machine_ms * 1e6 / events},
        {{"sim.par_ms", "ms"}, par_ms},
        {{"sim.par_window_ms", "ms"}, window},
        {{"sim.par_merge_ms", "ms"}, merge},
        {{"sim.par_flush_ms", "ms"}, flush},
        {{"sim.par_unattributed_ms", "ms"}, par_ms - window - merge - flush},
        {{"sim.par_speedup", "ratio"}, machine_ms / par_ms},
        {{"sim.par_windows", "count"}, value_median(values, "sim.par_windows")},
        {{"sim.par_arena_growths", "count"}, value_median(values, "sim.par_arena_growths")},
        {{"oracle.stream_certify_ms", "ms"}, span_ms(passes, stream_)},
        {{"oracle.stream_ns_per_event", "ns"},
         span_ms(passes, stream_) * 1e6 / stream_events_},
        {{"obs.instrument_ms", "ms"}, span_ms(passes, instrument_)},
        {{"sim.events", "count"}, events},
    };
  }

 private:
  const Rational lambda_{5, 2};
  std::uint64_t n_ = 0;
  std::unique_ptr<PostalParams> params_;
  std::unique_ptr<GenFib> fib_;
  Rational expected_;
  bool broken_ = false;
  std::size_t broken_index_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges_;  ///< certified [lo, hi)
  std::uint64_t witness_ = 0;  ///< the last-informed rank
  double stream_events_ = 0;   ///< events certified per pass
  std::unique_ptr<ParMachine> par_;
  SpanId generate_ = 0, validate_ = 0, machine_ = 0, par_run_ = 0, stream_ = 0,
         instrument_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_bcast_1m() { return std::make_unique<Bcast1m>(); }

}  // namespace perfbench
