#include "adaptive/hierarchical.hpp"

#include <algorithm>

#include "model/genfib.hpp"
#include "sched/bcast.hpp"

namespace postal {

void TwoLevelParams::validate() const {
  POSTAL_REQUIRE(n >= 1, "TwoLevelParams: n must be >= 1");
  POSTAL_REQUIRE(cluster_size >= 1, "TwoLevelParams: cluster_size must be >= 1");
  POSTAL_REQUIRE(lambda_intra >= Rational(1), "TwoLevelParams: lambda_intra >= 1");
  POSTAL_REQUIRE(lambda_inter >= lambda_intra,
                 "TwoLevelParams: lambda_inter must be >= lambda_intra");
}

std::uint64_t TwoLevelParams::cluster_of(ProcId p) const { return p / cluster_size; }

const Rational& TwoLevelParams::lambda(ProcId a, ProcId b) const {
  return cluster_of(a) == cluster_of(b) ? lambda_intra : lambda_inter;
}

std::uint64_t TwoLevelParams::clusters() const {
  return (n + cluster_size - 1) / cluster_size;
}

Schedule hierarchical_flat_schedule(const TwoLevelParams& params) {
  params.validate();
  return bcast_schedule(PostalParams(params.n, params.lambda_inter));
}

Schedule hierarchical_two_level_schedule(const TwoLevelParams& params) {
  params.validate();
  Schedule schedule;
  const std::uint64_t K = params.clusters();
  const std::uint64_t c = params.cluster_size;

  // Phase 1: BCAST over the K cluster leaders at lambda_inter, with virtual
  // leader i mapped onto processor i*c.
  std::vector<Rational> inform(K, Rational(0));      // leader inform times
  std::vector<Rational> port_free(K, Rational(0));   // after phase-1 sends
  if (K >= 2) {
    const Schedule leaders = bcast_schedule(PostalParams(K, params.lambda_inter));
    for (const SendEvent& e : leaders.events()) {
      schedule.add(static_cast<ProcId>(e.src * c), static_cast<ProcId>(e.dst * c),
                   /*msg=*/0, e.t);
      inform[e.dst] = e.t + params.lambda_inter;
      port_free[e.src] = rmax(port_free[e.src], e.t + Rational(1));
    }
  }

  // Phase 2: every leader broadcasts inside its own cluster at lambda_intra,
  // starting when both it is informed and its output port has drained the
  // phase-1 sends.
  GenFib intra_fib(params.lambda_intra);
  for (std::uint64_t i = 0; i < K; ++i) {
    const std::uint64_t lo = i * c;
    const std::uint64_t hi = std::min<std::uint64_t>(lo + c, params.n);
    const Rational start = rmax(inform[i], port_free[i]);
    bcast_emit(schedule, intra_fib, static_cast<ProcId>(lo), hi - lo, start,
               /*msg=*/0);
  }
  schedule.sort();
  return schedule;
}

HeteroReport simulate_two_level(const Schedule& schedule, const TwoLevelParams& params) {
  params.validate();
  ModelSpec spec;
  spec.n = params.n;
  spec.cluster = params.cluster_size;
  spec.intra = params.lambda_intra;
  spec.inter = params.lambda_inter;
  spec.site = "simulate_two_level";
  return check_model(schedule, spec,
                     {"sender not informed yet", "send-port conflict",
                      "receive-port conflict"});
}

}  // namespace postal
