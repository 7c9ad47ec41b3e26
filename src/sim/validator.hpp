// The postal-model schedule validator: the single authority on whether a
// schedule is legal in MPS(n, lambda) and on its true completion time.
//
// A schedule is checked against every clause of Definitions 1-2:
//  * send-port exclusivity   -- a processor's sends [t, t+1) are disjoint;
//  * receive-port exclusivity-- its receives [t+lambda-1, t+lambda) are
//                               disjoint (simultaneous send+receive is
//                               explicitly allowed: distinct ports);
//  * causality               -- a processor may only send a message it
//                               holds: the origin holds everything at t=0,
//                               everyone else must have fully received the
//                               message no later than the send start;
//  * coverage                -- every processor ends up holding every
//                               message id in [0, messages).
// Order preservation is additionally reported (all the paper's algorithms
// have it, but it is a property, not a model constraint).
// The per-send loop is sched/tick_check.hpp's, shared with check_model
// (the Section 5 variants); this front end keeps the options below, the
// coverage goals, the Trace and its own wording.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "faults/fault_plan.hpp"
#include "model/params.hpp"
#include "sched/schedule.hpp"
#include "sim/trace.hpp"

namespace postal {

/// Result of validating a schedule.
struct SimReport {
  bool ok = false;                       ///< no violations and full coverage
  std::vector<std::string> violations;   ///< human-readable constraint breaches
  Trace trace{1, 0};                     ///< all deliveries (even when !ok)
  Rational makespan;                     ///< latest arrival; 0 if none
  bool order_preserving = false;         ///< Section 4's order property

  /// Joined violation text for test failure messages.
  [[nodiscard]] std::string summary() const;
};

/// Validation knobs.
struct ValidatorOptions {
  ProcId origin = 0;        ///< processor that initially holds all messages
  std::uint32_t messages = 0;  ///< expected message count; 0 = infer from schedule
  bool require_coverage = true;  ///< demand the coverage goal below

  /// Per-message origins for collectives where messages start at different
  /// processors (allgather, gather). Entry i is the origin of message i;
  /// empty means every message originates at `origin`.
  std::vector<ProcId> origins;

  /// Explicit coverage goal: the (processor, message) pairs that must be
  /// delivered. Empty means "every processor gets every message" (the
  /// broadcast goal). Pairs whose processor is the message's origin are
  /// trivially satisfied.
  std::vector<std::pair<ProcId, MsgId>> required;

  /// Known processor crashes (docs/FAULTS.md). A schedule produced under a
  /// FaultPlan is truncated in exactly the ways crashes allow, and the
  /// validator must know them to judge it:
  ///  * a crashed processor is exempt from the coverage goal (it is dead;
  ///    nobody can deliver to it);
  ///  * a delivery arriving at or after the receiver's crash time is void:
  ///    it occupies no receive port, establishes no message hold, and is
  ///    not recorded in the trace;
  ///  * a send whose start is at or after the sender's crash time is a
  ///    violation -- dead processors cannot transmit, so such an event
  ///    proves the schedule was not produced under these crashes.
  /// Without the crash set, the same truncated schedule fails coverage --
  /// the caller cannot silently excuse missing processors.
  std::vector<CrashFault> crashes;

  /// Control-plane mode: every processor holds every message id from t=0,
  /// so the causality clause never fires. For protocols whose packets are
  /// locally originated control traffic (heartbeats, votes, acks keyed by
  /// message id) rather than relayed payloads; the port, crash, and FIFO
  /// clauses stay fully active. `origin`/`origins` become irrelevant to
  /// causality but still define the coverage goal if one is requested.
  bool preholds = false;

  /// Input-port semantics. false (default, the paper's model): receive
  /// windows [t+lambda-1, t+lambda) must be exclusive, overlap is a
  /// violation -- every paper algorithm satisfies this. true: simultaneous
  /// arrivals at a receiver serialize FIFO in nominal-arrival order
  /// (matching the Machine's input-port queueing), so overlap delays
  /// deliveries instead of violating; needed for protocols whose receive
  /// times are fault-dependent (reliable_bcast acks under crashes).
  bool fifo_receive = false;
};

/// Validate `schedule` under MPS(params.n(), params.lambda()). The check
/// runs on int64 ticks at the resolution 1/q that represents lambda, every
/// send time and every crash time exactly (docs/PERFORMANCE.md); throws
/// OverflowError when that grid or its tick bound cannot fit int64.
[[nodiscard]] SimReport validate_schedule(const Schedule& schedule,
                                          const PostalParams& params,
                                          const ValidatorOptions& options = {});

}  // namespace postal
