// chaos: many short, timer-heavy runs -- a seeded batch of crash + loss +
// spike fault plans driving the reliable broadcast, and leader election,
// view-change consensus, and the replicated log (one leader crash, one
// reconfiguration) on small control planes.
#include <memory>

#include "coord/consensus.hpp"
#include "coord/election.hpp"
#include "coord/log.hpp"
#include "faults/fault_plan.hpp"
#include "harness.hpp"
#include "sim/protocols/reliable_bcast.hpp"
#include "support/prng.hpp"

namespace perfbench {
namespace {

using namespace postal;

struct FaultedRun {
  PostalParams params;
  FaultPlan plan;
};

struct CoordRun {
  PostalParams params;
  FaultPlan election_plan;  ///< the initial leader crashes mid-run
  FaultPlan doa_plan;       ///< the initial leader is dead on arrival
  coord::LogOptions log_options;  ///< one reconfiguration request
};

class Chaos final : public Workload {
 public:
  [[nodiscard]] std::string name() const override { return "chaos"; }

  void setup(const Options& opts, Tracer& tracer) override {
    Xoshiro256 rng(opts.seed);
    // Many plans at moderate n: each plan's cost depends on where its
    // faults land, so the pass's total varies less from seed to seed when
    // it sums more of them.
    const std::uint64_t n = opts.smoke ? 64 : 2048;
    const std::uint64_t plans = opts.smoke ? 4 : 48;
    for (std::uint64_t i = 0; i < plans; ++i) {
      const PostalParams params(n, i % 2 == 0 ? Rational(2) : Rational(5, 2));
      RandomFaultOptions fopts;
      fopts.crashes = 4;
      fopts.lossy_links = 16;
      fopts.loss_p = Rational(1, 4);
      fopts.spikes = 2;
      faulted_.push_back({params, random_fault_plan(params, rng(), fopts)});
    }
    for (const std::uint64_t ranks : {16u, 32u}) {
      const PostalParams params(ranks, Rational(5, 2));
      CoordRun run{params, {}, {}, {}};
      const coord::ElectionOptions eopts = coord::resolve_election_options(params, nullptr, {});
      run.election_plan.crashes.push_back(
          CrashFault{0, eopts.heartbeat_period * Rational(2 + static_cast<std::int64_t>(rng.uniform(0, 2)))});
      run.doa_plan.crashes.push_back(CrashFault{0, Rational(0)});
      const coord::LogOptions lopts = coord::resolve_log_options(params, nullptr, {});
      run.log_options.reconfig.push_back(coord::ReconfigRequest{
          static_cast<ProcId>(rng.uniform(1, ranks - 1)), lopts.heartbeat_period});
      coord_.push_back(std::move(run));
    }
    reliable_ = tracer.intern("faults.reliable");
    election_ = tracer.intern("coord.election");
    consensus_ = tracer.intern("coord.consensus");
    log_ = tracer.intern("coord.log");
  }

  void pass(Pass& p) override {
    Gates& g = p.gates;
    std::uint64_t retransmissions = 0, repairs = 0, crashed = 0;
    for (const FaultedRun& run : faulted_) {
      const ReliableBcastReport report =
          p.call(reliable_, [&] { return run_reliable_bcast(run.params, &run.plan); });
      g.check(report.validation.ok && report.covered,
              "chaos: reliable broadcast validated and covered every live rank");
      retransmissions += report.counters.retransmissions;
      repairs += report.counters.repairs;
      crashed += report.crashed.size();
    }
    std::uint64_t views = 0, log_view_changes = 0;
    for (const CoordRun& run : coord_) {
      const coord::ElectionReport election =
          p.call(election_, [&] { return coord::run_election(run.params, &run.election_plan); });
      g.check(election.validation.ok && election.check.ok, "chaos: election validated and checked");
      const coord::ConsensusReport consensus =
          p.call(consensus_, [&] { return coord::run_consensus(run.params, &run.doa_plan); });
      g.check(consensus.validation.ok && consensus.check.ok,
              "chaos: consensus validated and checked");
      const coord::LogReport log = p.call(
          log_, [&] { return coord::run_log(run.params, &run.doa_plan, run.log_options); });
      g.check(log.validation.ok && log.check.ok, "chaos: replicated log validated and checked");
      views += consensus.views_used + log.views_used;
      log_view_changes += log.counters.view_changes_sent;
    }
    p.values["faults.retransmissions"] = static_cast<double>(retransmissions);
    p.values["faults.repairs"] = static_cast<double>(repairs);
    p.values["faults.crashed"] = static_cast<double>(crashed);
    p.values["coord.views_used"] = static_cast<double>(views);
    p.values["coord.log.view_changes_sent"] = static_cast<double>(log_view_changes);
  }

  std::vector<std::pair<LayerMetric, double>> layer_metrics(
      const Tracer& /*tracer*/, const std::vector<const Tracer::PassInfo*>& passes,
      const std::vector<std::map<std::string, double>>& values, Gates& /*gates*/) override {
    std::vector<std::pair<LayerMetric, double>> out{
        {{"faults.reliable_ms", "ms"}, span_ms(passes, reliable_)},
        {{"coord.election_ms", "ms"}, span_ms(passes, election_)},
        {{"coord.consensus_ms", "ms"}, span_ms(passes, consensus_)},
        {{"coord.log_ms", "ms"}, span_ms(passes, log_)},
    };
    for (const char* count : {"faults.retransmissions", "faults.repairs", "faults.crashed",
                              "coord.views_used", "coord.log.view_changes_sent"}) {
      out.push_back({{count, "count"}, value_median(values, count)});
    }
    return out;
  }

 private:
  std::vector<FaultedRun> faulted_;
  std::vector<CoordRun> coord_;
  SpanId reliable_ = 0, election_ = 0, consensus_ = 0, log_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_chaos() { return std::make_unique<Chaos>(); }

}  // namespace perfbench
