// Observability for coordination runs (docs/OBSERVABILITY.md): fold an
// election or replicated-log report into a MetricsRegistry under the
// "coord.*" prefix, in the registry's exactness classes -- counters for
// traffic and transitions, exact Rational accumulators for the model-time
// latencies.
#pragma once

#include <vector>

#include "coord/election.hpp"
#include "coord/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"

namespace postal::coord {

/// Record `report` under "coord.elect.*": the traffic counters, the
/// suspicion/adoption transitions, and the latency quantities
/// (first_suspect, elected_at, election_latency) as exact Rationals.
void record_election(obs::MetricsRegistry& registry,
                     const ElectionReport& report);

/// Chrome-trace overlay markers for an election run: one instant event per
/// suspicion, victory, adoption, and step-down, on the rank's track at its
/// exact model time (feed to trace_to_chrome_json's marker overload).
[[nodiscard]] std::vector<obs::TraceMarker> election_markers(
    const ElectionReport& report);

/// Record `report` under "coord.log.*": the message counters, the lease
/// lifecycle tallies (acquisitions, renewals, expiries, stale rejects),
/// the reconfiguration applies, and commit_latency / recovery_time as
/// exact Rationals.
void record_log(obs::MetricsRegistry& registry, const LogReport& report);

/// Chrome-trace overlay markers for a replicated-log run: view changes,
/// lease grants/renewals/expiries, per-slot proposals, commits, decides,
/// fencing rejections, and configuration applies.
[[nodiscard]] std::vector<obs::TraceMarker> log_markers(
    const LogReport& report);

}  // namespace postal::coord
