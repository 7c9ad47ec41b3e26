#include "sim/tick_setup.hpp"

namespace postal {

void begin_fault_run(FaultInjector& injector, std::uint64_t n, FaultStats& faults) {
  injector.reset();
  for (ProcId p = 0; p < n; ++p) {
    const auto& c = injector.crash_time(p);
    if (c.has_value()) {
      ++faults.crashes_applied;
      faults.events.push_back(FaultEvent{FaultEvent::Kind::kCrash, *c, p, p});
    }
  }
}

TickRunSetup plan_tick_run(const PostalParams& params, const FaultInjector* injector,
                           std::uint64_t max_events, const char* site,
                           std::int64_t grid) {
  const Rational& lambda = params.lambda();
  std::int64_t q = fold_grid(grid, lambda, site);
  if (injector != nullptr) {
    for (ProcId p = 0; p < params.n(); ++p) {
      const auto& c = injector->crash_time(p);
      if (c.has_value()) q = fold_grid(q, *c, site);
    }
    for (const LatencySpike& s : injector->plan().spikes) {
      q = fold_grid(fold_grid(fold_grid(q, s.from, site), s.until, site), s.extra,
                    site);
    }
  }
  const TickDomain dom(q);
  TickRunSetup setup;
  setup.q = q;
  setup.lambda_ticks = grid_ticks(dom, lambda, site);

  __extension__ using int128 = __int128;
  int128 extra_sum = 0;
  if (injector != nullptr) {
    for (const LatencySpike& s : injector->plan().spikes) {
      setup.spike_ticks.push_back(SpikeTicks{grid_ticks(dom, s.from, site),
                                             grid_ticks(dom, s.until, site),
                                             grid_ticks(dom, s.extra, site)});
      extra_sum += setup.spike_ticks.back().extra;
    }
    setup.crash_ticks.resize(params.n());
    for (ProcId p = 0; p < params.n(); ++p) {
      const auto& c = injector->crash_time(p);
      if (c.has_value()) setup.crash_ticks[p] = grid_ticks(dom, *c, site);
    }
  }

  // Static headroom: each queue event advances some clock by at most
  // step_max = 1 + lambda + sum(spike extras) ticks, and there are at most
  // max_events of them, so only runs with (max_events + 4) * step_max
  // below kTickCap proceed: every tick expression then stays under 2^62,
  // overflow-free by construction (timer fire times are additionally
  // capped at kTickCap on entry; see the timer paths).
  const int128 step_max = static_cast<int128>(q) + setup.lambda_ticks + extra_sum;
  if ((static_cast<int128>(max_events) + 4) * step_max >= kTickCap) {
    throw_grid_overflow(site, "tick headroom for max_events exceeds int64");
  }
  return setup;
}

}  // namespace postal
