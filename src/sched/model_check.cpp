#include "sched/model_check.hpp"

#include <algorithm>
#include <optional>

#include "sched/tick_check.hpp"

namespace postal {

namespace {

// check_model is a front end of sched/tick_check.hpp's loop. The variants
// carry one message from p0, so the sink reads no message ids, keeps only
// the completion, and words each clause as its variant does.
struct CompletionSink {
  static constexpr bool kReadsMessageIds = false;
  const ModelClauses& clauses;
  Tick completion = 0;  ///< latest arrival

  void deliver(ProcId, ProcId, MsgId, Tick, Tick arrive) {
    completion = std::max(completion, arrive);
  }
  void prefetch(ProcId, MsgId) const {}
  std::string uninformed(const std::optional<Rational>&) const {
    return clauses.uninformed;
  }
  std::string busy(Port port, ProcId, const Rational&, const Rational&) const {
    return port == Port::kSend ? clauses.send_clash : clauses.recv_clash;
  }
};

}  // namespace

ModelReport check_model(const Schedule& schedule, const ModelSpec& spec,
                        const ModelClauses& clauses) {
  const std::uint64_t n = spec.n;
  POSTAL_REQUIRE(n >= 1, "check_model: need at least one rank");
  POSTAL_REQUIRE(spec.send_ports >= 1, "check_model: need at least one send port");
  POSTAL_REQUIRE(spec.window > Rational(0), "check_model: the port window must be > 0");
  POSTAL_REQUIRE(spec.cluster >= 1, "check_model: cluster size must be >= 1");
  const bool by_table = !spec.matrix.empty();
  POSTAL_REQUIRE(!by_table || spec.matrix.size() == n * n,
                 "check_model: the latency matrix must be n x n");

  // Every lambda a send can read. Under a matrix those are the entries of
  // the in-range sends only, so the probe is O(sends), not O(n^2).
  std::vector<Rational> lambdas;
  if (by_table) {
    for (const TickSend& e : schedule.records()) {
      if (e.src >= n || e.dst >= n) continue;
      POSTAL_REQUIRE(e.src != e.dst, "check_model: a latency matrix has no self-latency");
      lambdas.push_back(spec.matrix[e.src * n + e.dst]);
    }
  } else {
    lambdas.push_back(spec.intra);
    if (spec.cluster < n) lambdas.push_back(spec.inter);
  }
  const TickCheck check(schedule, spec.window, lambdas, {}, 1, spec.site);

  ModelReport report;
  std::vector<Tick> informed(n, kNeverArrived);
  informed[0] = 0;
  CompletionSink sink{clauses};
  const TickRules rules{n, 1, spec.send_ports, false};
  // Run-time k: k = 1 is one free time per send port here too.
  const auto run = [&](const auto& latency) {
    check.run<false>(rules, latency, informed, sink, report.violations);
  };
  const Tick intra = by_table ? 0 : grid_ticks(check.dom(), spec.intra, spec.site);
  const Tick inter = !by_table && spec.cluster < n
                         ? grid_ticks(check.dom(), spec.inter, spec.site)
                         : intra;
  if (by_table) {
    run(MatrixLatency{n, spec.matrix, check.dom()});
  } else if (intra == inter) {
    run(ConstLatency{intra});
  } else {
    run(RuleLatency{spec.cluster, intra, inter});
  }
  for (ProcId p = 0; p < n; ++p) {
    if (informed[p] == kNeverArrived) {
      report.violations.push_back("p" + std::to_string(p) + " never informed");
    }
  }
  report.completion = check.dom().to_rational(sink.completion);
  report.ok = report.violations.empty();
  return report;
}

}  // namespace postal
