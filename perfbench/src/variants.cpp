// variants: the paper's other model paths at medium n -- the Section 4
// multi-message generators (each predicted, validated, and executed), the
// k-ported / LogP / heterogeneous / two-level / reduce validators, one
// brute-force DP table, and one jittered packet-network broadcast.
#include <memory>

#include "adaptive/hetero.hpp"
#include "adaptive/hierarchical.hpp"
#include "collectives/reduce.hpp"
#include "harness.hpp"
#include "model/bounds.hpp"
#include "model/logp.hpp"
#include "net/packet_sim.hpp"
#include "net/topology.hpp"
#include "par/sweep.hpp"
#include "sched/bcast.hpp"
#include "sched/dtree.hpp"
#include "sched/kported.hpp"
#include "sched/logp_machine.hpp"
#include "sched/registry.hpp"
#include "sim/machine.hpp"
#include "sim/protocols/dtree_protocol.hpp"
#include "sim/protocols/multi_protocols.hpp"
#include "sim/validator.hpp"
#include "support/prng.hpp"

namespace perfbench {
namespace {

using namespace postal;

struct MultiCase {
  MultiAlgo algo;
  std::uint64_t m;
  Rational lambda;
};

/// Metric-name slug of each Section 4 algorithm.
std::string slug(MultiAlgo algo) {
  switch (algo) {
    case MultiAlgo::kRepeat: return "REPEAT";
    case MultiAlgo::kPack: return "PACK";
    case MultiAlgo::kPipeline: return "PIPELINE";
    case MultiAlgo::kDTreeLine: return "DTREE_line";
    case MultiAlgo::kDTreeBinary: return "DTREE_binary";
    case MultiAlgo::kDTreeRecommended: return "DTREE_recommended";
    case MultiAlgo::kDTreeStar: return "DTREE_star";
  }
  return "unknown";
}

bool is_dtree(MultiAlgo algo) {
  return algo != MultiAlgo::kRepeat && algo != MultiAlgo::kPack &&
         algo != MultiAlgo::kPipeline;
}

/// The DTREE degree make_multi_schedule uses for `algo`.
std::uint64_t dtree_degree(MultiAlgo algo, const PostalParams& params) {
  const std::uint64_t cap = params.n() - 1;
  switch (algo) {
    case MultiAlgo::kDTreeLine: return 1;
    case MultiAlgo::kDTreeBinary: return std::min<std::uint64_t>(2, cap);
    case MultiAlgo::kDTreeRecommended: return dtree_recommended_degree(params);
    default: return cap;
  }
}

/// The event-driven protocol that runs `algo` on the Machine.
std::unique_ptr<Protocol> make_protocol(MultiAlgo algo, const PostalParams& params,
                                        std::uint64_t m) {
  const auto m32 = static_cast<std::uint32_t>(m);
  switch (algo) {
    case MultiAlgo::kRepeat: return std::make_unique<RepeatProtocol>(params, m32);
    case MultiAlgo::kPack: return std::make_unique<PackProtocol>(params, m32);
    case MultiAlgo::kPipeline:
      if (Rational(static_cast<std::int64_t>(m)) <= params.lambda()) {
        return std::make_unique<Pipeline1Protocol>(params, m32);
      }
      return std::make_unique<Pipeline2Protocol>(params, m32);
    default:
      return std::make_unique<DTreeProtocol>(params, m32, dtree_degree(algo, params));
  }
}

class Variants final : public Workload {
 public:
  [[nodiscard]] std::string name() const override { return "variants"; }

  void setup(const Options& opts, Tracer& tracer) override {
    n_ = opts.smoke ? 64 : 4096;
    multi_n_ = opts.smoke ? 64 : 2048;
    for (const Rational& lambda : {Rational(2), Rational(5, 2), Rational(7, 2)}) {
      for (const std::uint64_t m : {4u, 16u}) {
        for (const MultiAlgo algo : all_multi_algos()) cases_.push_back({algo, m, lambda});
      }
    }
    // Seeded inputs: the per-link latency matrix, the packet network's
    // jitter stream, and the lambda of the brute-force DP table.
    Xoshiro256 rng(opts.seed);
    hetero_ = std::make_unique<HeteroLatency>(
        HeteroLatency::random(opts.smoke ? 32 : 256, Rational(1), Rational(4), rng()));
    jitter_seed_ = rng();
    const Rational dp_lambdas[] = {Rational(3, 2), Rational(5, 2), Rational(7, 2)};
    dp_lambda_ = dp_lambdas[rng.uniform(0, 2)];
    dp_n_ = opts.smoke ? 64 : 1024;
    net_side_ = opts.smoke ? 4 : 16;

    multi_gen_ = tracer.intern("sched.multi_gen");
    for (const MultiAlgo algo : all_multi_algos()) {
      predict_[algo] = tracer.intern("sched.predict_multi." + slug(algo));
    }
    validate_multi_ = tracer.intern("sim.validate_multi");
    machine_multi_ = tracer.intern("sim.machine_multi");
    kported_gen_ = tracer.intern("sched.kported_gen");
    kported_validate_ = tracer.intern("sched.kported_validate");
    logp_gen_ = tracer.intern("sched.logp_gen");
    logp_validate_ = tracer.intern("sched.logp_validate");
    hetero_plan_ = tracer.intern("adaptive.hetero_plan");
    hetero_sim_ = tracer.intern("adaptive.hetero");
    two_level_gen_ = tracer.intern("adaptive.two_level_gen");
    two_level_sim_ = tracer.intern("adaptive.two_level");
    reduce_gen_ = tracer.intern("collectives.reduce_gen");
    reduce_validate_ = tracer.intern("collectives.reduce_validate");
    dp_table_ = tracer.intern("brute.dp_table");
    net_bcast_gen_ = tracer.intern("sched.net_bcast_gen");
    net_packet_ = tracer.intern("net.packet");
  }

  void pass(Pass& p) override {
    Gates& g = p.gates;
    for (const MultiCase& c : cases_) multi_case(p, c);

    const PostalParams params(n_, Rational(5, 2));
    for (const std::uint64_t k : {2u, 3u}) {
      const Schedule s = p.call(kported_gen_, [&] { return kported_bcast_schedule(params, k); });
      const KPortedReport r = p.call(kported_validate_, [&] { return validate_kported(s, params, k); });
      g.check(r.ok && r.completion == predict_kported_bcast(params, k),
              "variants: k-ported validator ok at the predicted time");
    }

    const LogPParams logp{Rational(6), Rational(1), Rational(2), n_};
    const Schedule logp_s = p.call(logp_gen_, [&] { return logp_bcast_schedule(logp); });
    const LogPReport logp_r =
        p.call(logp_validate_, [&] { return validate_logp_schedule(logp_s, logp); });
    g.check(logp_r.ok && logp_r.completion == logp_broadcast_time(logp),
            "variants: LogP validator ok at the closed-form time");

    const Schedule het_s = p.call(hetero_plan_, [&] { return hetero_greedy_broadcast(*hetero_); });
    const HeteroSimReport het_r = p.call(hetero_sim_, [&] { return simulate_hetero(het_s, *hetero_); });
    g.check(het_r.ok, "variants: heterogeneous-latency simulation ok");

    TwoLevelParams two;
    two.n = n_;
    two.cluster_size = 64;
    two.lambda_intra = Rational(2);
    two.lambda_inter = Rational(13, 2);
    const Schedule two_s =
        p.call(two_level_gen_, [&] { return hierarchical_two_level_schedule(two); });
    const HeteroReport two_r = p.call(two_level_sim_, [&] { return simulate_two_level(two_s, two); });
    g.check(two_r.ok, "variants: two-level simulation ok");

    const Schedule red_s = p.call(reduce_gen_, [&] { return reduce_schedule(params); });
    const ReduceReport red_r = p.call(reduce_validate_, [&] { return validate_reduce(red_s, params); });
    g.check(red_r.ok && red_r.completion == predict_reduce(params),
            "variants: reduce validator ok at the predicted time");

    const std::vector<par::SweepPointResult> dp = p.call(dp_table_, [&] {
      par::SweepOptions options;
      options.threads = 1;
      return par::sweep_grid({dp_n_}, {dp_lambda_}, options);
    });
    g.check(dp.size() == 1 && dp[0].ok, "variants: DP table agrees with f_lambda(n)");

    const std::uint64_t net_n = net_side_ * net_side_;
    const Schedule net_s = p.call(net_bcast_gen_, [&] {
      return bcast_schedule(PostalParams(net_n, Rational(3)));
    });
    const std::uint64_t delivered = p.call(net_packet_, [&] {
      NetConfig config;
      config.jitter_max = Rational(1, 4);
      config.jitter_seed = jitter_seed_;
      PacketNetwork net(Topology::torus2d(net_side_, net_side_, Rational(1)), config);
      net.submit_schedule(net_s);
      return static_cast<std::uint64_t>(net.run().size());
    });
    g.check(delivered == net_n - 1, "variants: packet network delivered every send");
  }

  std::vector<std::pair<LayerMetric, double>> layer_metrics(
      const Tracer& /*tracer*/, const std::vector<const Tracer::PassInfo*>& passes,
      const std::vector<std::map<std::string, double>>& /*values*/,
      Gates& /*gates*/) override {
    std::vector<std::pair<LayerMetric, double>> out{
        {{"sched.multi_gen_ms", "ms"}, span_ms(passes, multi_gen_)}};
    for (const MultiAlgo algo : all_multi_algos()) {
      const double calls = span_calls(passes, predict_[algo]);
      out.push_back({{"sched.predict_multi_us." + slug(algo), "us"},
                     span_ms(passes, predict_[algo]) * 1e3 / calls});
    }
    const std::pair<const char*, SpanId> spans[] = {
        {"sim.validate_multi_ms", validate_multi_},
        {"sim.machine_multi_ms", machine_multi_},
        {"sched.kported_validate_ms", kported_validate_},
        {"sched.logp_validate_ms", logp_validate_},
        {"adaptive.hetero_ms", hetero_sim_},
        {"adaptive.two_level_ms", two_level_sim_},
        {"collectives.reduce_validate_ms", reduce_validate_},
        {"brute.dp_table_ms", dp_table_},
        {"net.packet_ms", net_packet_},
    };
    for (const auto& [name, id] : spans) out.push_back({{name, "ms"}, span_ms(passes, id)});
    return out;
  }

 private:
  /// One Section 4 algorithm at one (m, lambda): generate, predict,
  /// validate, and execute event-driven on the Machine.
  void multi_case(Pass& p, const MultiCase& c) {
    const PostalParams params(multi_n_, c.lambda);
    const Schedule s = p.call(multi_gen_, [&] { return make_multi_schedule(c.algo, params, c.m); });
    const Rational predicted =
        p.call(predict_[c.algo], [&] { return predict_multi(c.algo, params, c.m); });
    ValidatorOptions options;
    options.messages = static_cast<std::uint32_t>(c.m);
    const SimReport report =
        p.call(validate_multi_, [&] { return validate_schedule(s, params, options); });
    const std::string what = "variants: " + slug(c.algo) + " m=" + std::to_string(c.m) +
                             " lambda=" + c.lambda.str();
    // DTREE's closed form is Lemma 18's upper bound, not an exact time.
    const bool on_time =
        is_dtree(c.algo)
            ? report.makespan <= lemma18_dtree_upper(c.lambda, multi_n_, c.m,
                                                     dtree_degree(c.algo, params))
            : report.makespan == predicted;
    p.gates.check(report.ok && on_time, what + " valid at its predicted time");

    const MachineResult run = p.call(machine_multi_, [&] {
      Machine machine(params, static_cast<std::uint32_t>(c.m));
      const std::unique_ptr<Protocol> protocol = make_protocol(c.algo, params, c.m);
      return machine.run(*protocol);
    });
    p.gates.check(run.trace.covers_all(0) && run.trace.makespan() <= report.makespan,
                  what + " executed on the Machine no later than generated");
  }

  std::uint64_t n_ = 0;        ///< the single-message validators' n
  std::uint64_t multi_n_ = 0;  ///< the Section 4 grid's n
  std::vector<MultiCase> cases_;
  std::unique_ptr<HeteroLatency> hetero_;
  std::uint64_t jitter_seed_ = 0;
  Rational dp_lambda_;
  std::uint64_t dp_n_ = 0;
  std::uint64_t net_side_ = 0;
  std::map<MultiAlgo, SpanId> predict_;
  SpanId multi_gen_ = 0, validate_multi_ = 0, machine_multi_ = 0, kported_gen_ = 0,
         kported_validate_ = 0, logp_gen_ = 0, logp_validate_ = 0, hetero_plan_ = 0,
         hetero_sim_ = 0, two_level_gen_ = 0, two_level_sim_ = 0, reduce_gen_ = 0,
         reduce_validate_ = 0, dp_table_ = 0, net_bcast_gen_ = 0, net_packet_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_variants() { return std::make_unique<Variants>(); }

}  // namespace perfbench
