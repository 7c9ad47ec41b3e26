// Crash-aware coordination validator (docs/COORDINATION.md).
//
// Judges an election or replicated-log run against the classic
// coordination clauses, in sim/validator's violation-string style
// (single-decree consensus is the one-command log, coord/consensus.hpp):
//
//   election   -- the machine validation passed; fault-free runs never
//                 suspect and keep the initial leader; settled runs leave
//                 every live rank agreeing on one live leader under one
//                 term; and under crash-only plans that leader is the
//                 legitimate one (the initial leader if it survives, else
//                 the best survivor under the configured policy).
//   log        -- the machine validation passed; per-slot agreement (no
//                 two ranks decide different values for one slot); validity
//                 (every decided value is a client command or a well-formed
//                 config command, and no client command occupies two
//                 slots); a single proposer per (view, slot); prefix
//                 durability (a harvested commit prefix covers only decided
//                 slots, and the applied configuration matches the decided
//                 prefix); lease mutual exclusion (lease intervals are
//                 pairwise disjoint with strictly increasing fencing
//                 tokens, and every proposal lies inside its leader's
//                 lease) with counter/event consistency for rejected
//                 stale-token writes; reconfiguration safety (every applied
//                 change toggles exactly one rank, so consecutive quorums
//                 intersect, and membership never empties); and guarded
//                 liveness -- when the run settled and both the initial and
//                 final quorums survived, every live final member holds the
//                 full decided log and the same membership. Fault-free,
//                 reconfig-free runs decide every slot in view 0 under a
//                 single never-expiring lease.
//
// The guarded clauses only apply when the report says the run settled
// (bounded disturbances inside the horizon / view budget);
// CoordCheck::liveness_checked records whether they fired.
#pragma once

#include "coord/check.hpp"
#include "coord/election.hpp"
#include "coord/log.hpp"

namespace postal::coord {

/// Check an election run's safety (and guarded liveness) clauses.
[[nodiscard]] CoordCheck check_election(const ElectionReport& report,
                                        const PostalParams& params,
                                        const FaultPlan* plan);

/// Check a replicated-log run's per-slot agreement / validity / prefix
/// durability / lease mutual-exclusion / reconfiguration-safety clauses
/// and the guarded liveness-under-quorum clause.
[[nodiscard]] CoordCheck check_log(const LogReport& report,
                                   const PostalParams& params,
                                   const FaultPlan* plan);

}  // namespace postal::coord
