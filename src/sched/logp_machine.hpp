// A full LogP machine: schedule construction and validation under the
// four-parameter model (L, o, g, P), not just the lambda mapping of
// model/logp.hpp.
//
// Semantics per message (Karp et al.):
//   * the sender spends o CPU time submitting, during [t, t+o);
//   * consecutive submissions at one processor start >= max(o, g) apart
//     (o because the CPU is serial, g because of interface bandwidth);
//     likewise consecutive absorptions at one processor;
//   * the message flies for L and is absorbed for o: it is usable at
//     t + 2o + L, with the absorption occupying [t + o + L, t + 2o + L).
//
// The paper notes LogP "bears some similarities" to the postal model; the
// precise constructive statement, checked end to end by the tests: a LogP
// machine is a postal system with time unit G = max(o, g) and
// lambda = (L + 2o)/G, and the generalized Fibonacci tree at that lambda
// (submissions spaced G) is the optimal LogP broadcast.
#pragma once

#include "model/logp.hpp"
#include "sched/model_check.hpp"
#include "sched/schedule.hpp"

namespace postal {

/// Result of validating a schedule under the full LogP rules; completion
/// is the latest time a message becomes usable.
using LogPReport = ModelReport;

/// Validate a single-message broadcast schedule (send submission times in
/// LogP time units, origin p_0) against every LogP rule: per-processor
/// submission spacing >= max(o, g), per-processor absorption spacing
/// >= max(o, g), causality (submit only what is already usable), and
/// coverage of all P processors.
[[nodiscard]] LogPReport validate_logp_schedule(const Schedule& schedule,
                                                const LogPParams& params);

/// The optimal LogP single-message broadcast schedule: the generalized
/// Fibonacci tree at lambda = (L + 2o)/max(o, g), submissions spaced
/// max(o, g). Its completion equals logp_broadcast_time(params) exactly.
[[nodiscard]] Schedule logp_bcast_schedule(const LogPParams& params);

}  // namespace postal
