// Single-decree consensus is the replicated log with one command
// (docs/COORDINATION.md §2): view-change Paxos over each view's
// generalized-Fibonacci BCAST tree, judged by check_log.
#pragma once

#include "coord/log.hpp"

namespace postal::coord {

using ConsensusReport = LogReport;

/// run_log with commands = 1 and no reconfiguration; `threads` as in
/// LogOptions (0 = 1, reports byte-identical at every setting).
[[nodiscard]] inline LogReport run_consensus(const PostalParams& params,
                                             const FaultPlan* plan = nullptr,
                                             unsigned threads = 0) {
  LogOptions options;
  options.commands = 1;
  options.threads = threads;
  return run_log(params, plan, options);
}

}  // namespace postal::coord
