// Broadcast-based view-change consensus in the postal model
// (docs/COORDINATION.md).
//
// Single-decree consensus in the Paxos family, run as a ViewController of
// epoch-numbered views on globally synchronized windows: view v occupies
// [v V, (v+1) V) with leader(v) = v mod n, so no extra coordination is
// needed to agree on who leads when -- every rank's clock is exact model
// time. In each view the undecided ranks send a VIEW-CHANGE carrying their
// highest accepted (view, value) to the view's leader; on a quorum
// (floor(n/2) + 1, counting itself) the leader proposes the
// highest-accepted value it heard (or its own client value), disseminating
// the proposal over the optimal generalized-Fibonacci broadcast tree
// rooted at itself (ranks renamed (r - leader) mod n -- the reliable_bcast
// split loop re-rooted per view). Acceptors promise at VIEW-CHANGE time
// and ACK straight back; a quorum of ACKs decides, and the decision is
// committed over the same tree. Crashed relays orphan subtrees, so a
// within-view repair wave re-sends the proposal point-to-point to every
// silent rank, and decided leaders of later views heal stragglers by
// replying to their VIEW-CHANGEs with a direct COMMIT. Uncommitted values
// survive leader crashes by the standard quorum-intersection argument:
// any later VIEW-CHANGE quorum intersects any ACK quorum, so a value that
// might have been decided is the one re-proposed.
//
// All view boundaries and timers are multiples of 1/q (lambda = p/q), so
// runs stay on their tick grid and are byte-identical at every ParMachine
// thread count. Views stop at max_views
// (derived from the fault plan's disturbances and loss budgets), which
// bounds the run and gives the validator its guarded liveness clause.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "coord/check.hpp"
#include "faults/fault_plan.hpp"
#include "model/genfib.hpp"
#include "sim/machine.hpp"
#include "sim/validator.hpp"

namespace postal::coord {

/// Consensus knobs. Zero-valued knobs are derived
/// (resolve_consensus_options).
struct ConsensusOptions {
  /// Rank r's client value is value_base + r; agreement is non-vacuous
  /// because every rank proposes a different value. Requires
  /// value_base + n <= 2^32.
  std::uint32_t value_base = 1000;
  /// View window length V. 0 derives 2 f_lambda(n) + 4 lambda + 4 n +
  /// 2 slack: tree dissemination down and up, the repair wave, and every
  /// port serialization, so a fault-free view completes within its window.
  Rational view_length{0};
  /// Views before undecided ranks give up (bounds the run). 0 derives
  /// enough views for every disturbance to settle plus the loss budget
  /// plus one full leader rotation. Must stay < 2^24.
  std::uint32_t max_views = 0;
  /// Extra slack added to the view length and the repair timer (>= 0).
  Rational timeout_slack{2};
  /// Simulation lanes (docs/SIMULATION.md); 0 = 1. Reports are
  /// byte-identical at every setting.
  unsigned threads = 0;
};

/// Traffic counters of one run (summed across shards).
struct ConsensusCounters {
  std::uint64_t view_changes_sent = 0;  ///< VIEW-CHANGEs put on the wire
  std::uint64_t proposals = 0;          ///< propose decisions (one per view max)
  std::uint64_t proposal_relays = 0;    ///< PROPOSE tree sends (incl. leader's)
  std::uint64_t proposal_repairs = 0;   ///< direct re-sends to silent ranks
  std::uint64_t acks_sent = 0;
  std::uint64_t commits = 0;            ///< decide-and-commit events at leaders
  std::uint64_t commit_relays = 0;      ///< COMMIT tree sends (incl. leader's)
  std::uint64_t heal_replies = 0;       ///< direct COMMITs answering stragglers
  std::uint64_t decides = 0;            ///< ranks that decided

  friend bool operator==(const ConsensusCounters&,
                         const ConsensusCounters&) = default;
};

/// One rank-local transition, for the canonical event log, the validator's
/// proposer/agreement clauses, and the Chrome-trace overlay.
struct ConsensusEvent {
  enum class Kind : std::uint8_t {
    kViewChange,  ///< entered view `view` undecided (sent/collected a VC)
    kPropose,     ///< leader of `view` proposed `value`
    kDecide,      ///< decided `value` (learned in `view`)
  };
  Rational time;
  ProcId rank = 0;
  Kind kind = Kind::kViewChange;
  std::uint32_t view = 0;
  std::uint32_t value = 0;  ///< 0 for kViewChange

  friend bool operator==(const ConsensusEvent&, const ConsensusEvent&) = default;
};

/// A rank's final consensus state when the run quiesced.
struct RankDecision {
  bool started = false;
  bool decided = false;
  std::uint32_t value = 0;
  std::uint32_t view = 0;  ///< view the decision was learned in
  Rational at;             ///< decision time

  friend bool operator==(const RankDecision&, const RankDecision&) = default;
};

/// Harvested per-run protocol state (per-shard instances compose).
struct ConsensusHarvest {
  ConsensusCounters counters;
  std::vector<RankDecision> decisions;            ///< sized n
  std::vector<std::vector<ConsensusEvent>> logs;  ///< per rank, chronological
};

/// The event-driven view-change consensus protocol. One instance drives
/// one run; with ParMachine, one instance per shard.
class ConsensusProtocol final : public Protocol {
 public:
  /// `options` must be resolved (view_length > 0, max_views > 0); the
  /// runner resolves them via resolve_consensus_options.
  ConsensusProtocol(const PostalParams& params, const ConsensusOptions& options);

  void on_start(MachineContext& ctx) override;
  void on_receive(MachineContext& ctx, const Packet& packet) override;
  void on_timer(MachineContext& ctx, std::uint64_t token) override;

  /// Fold this instance's per-rank results into `out` (sized n).
  void harvest(ConsensusHarvest& out) const;

 private:
  struct ProcState {
    bool started = false;
    // Acceptor state.
    std::uint32_t promised = 0;       ///< highest view promised (VC or accept)
    bool has_accepted = false;
    std::uint32_t accepted_view = 0;
    std::uint32_t accepted_value = 0;
    // Learner state.
    bool decided = false;
    std::uint32_t dec_value = 0;
    std::uint32_t dec_view = 0;
    Rational dec_at;
    // Leader state for the view this rank is currently collecting.
    bool collecting = false;
    std::uint32_t collect_view = 0;
    std::uint32_t vc_count = 0;
    bool best_has = false;
    std::uint32_t best_view = 0;
    std::uint32_t best_value = 0;
    bool proposed = false;
    std::uint32_t chosen = 0;
    std::uint32_t ack_count = 0;
    std::vector<std::uint8_t> acked;  ///< per-rank ACK bitmap (repair wave)
    Rational port_free;               ///< local mirror of the output port
    std::vector<ConsensusEvent> log;
  };

  [[nodiscard]] ProcId leader_of(std::uint32_t view) const {
    return static_cast<ProcId>(view % n_);
  }
  [[nodiscard]] std::uint32_t client_value(ProcId rank) const {
    return options_.value_base + static_cast<std::uint32_t>(rank);
  }
  Rational do_send(MachineContext& ctx, ProcId dst, const Packet& packet);
  /// Begin view `view` on an undecided rank: promise, send/collect the
  /// VIEW-CHANGE, and arm the next view's timer.
  void enter_view(MachineContext& ctx, std::uint32_t view);
  void begin_collect(MachineContext& ctx, std::uint32_t view);
  void propose(MachineContext& ctx);
  /// Fibonacci-tree sends of a PROPOSE/COMMIT over renamed range
  /// [renamed, hi) rooted at leader_of(view).
  void relay_range(MachineContext& ctx, bool commit, std::uint32_t view,
                   std::uint32_t value, std::uint64_t renamed, std::uint64_t hi);
  void decide(MachineContext& ctx, std::uint32_t value, std::uint32_t view);

  std::uint64_t n_;
  Rational lambda_;
  GenFib fib_;
  ConsensusOptions options_;
  std::uint32_t quorum_;
  Rational repair_after_;  ///< propose-to-repair-wave delay within a view
  std::vector<ProcState> state_;
  ConsensusCounters counters_;
};

/// Everything one consensus run produces, judged.
struct ConsensusReport {
  MachineResult result;
  ConsensusCounters counters;
  std::vector<ConsensusEvent> events;   ///< canonical (time, rank, seq) order
  std::vector<RankDecision> decisions;  ///< per rank, at quiescence
  SimReport validation;                 ///< preholds + fifo + crash-aware
  CoordCheck check;                     ///< coordination safety clauses
  /// Resolved options (derived view_length/max_views filled in).
  ConsensusOptions options;
  std::uint32_t quorum = 0;
  std::uint32_t views_used = 0;  ///< highest view any rank entered
  bool settled = false;          ///< disturbances bounded, inside max_views
  std::vector<ProcId> crashed;   ///< ranks the plan crashes, sorted
  Rational decision_latency;     ///< last live rank's decision time
  Rational baseline;             ///< fault-free decision_latency for (n, lambda)
  Rational recovery_time;        ///< max(0, decision_latency - baseline)
};

/// Fill every zero-valued derived knob from (params, plan): the view
/// length, and enough views for disturbances, loss budgets, and a full
/// leader rotation to settle.
[[nodiscard]] ConsensusOptions resolve_consensus_options(
    const PostalParams& params, const FaultPlan* plan,
    const ConsensusOptions& options);

/// Run consensus under `plan` (nullptr = fault-free) and judge it:
/// crash-aware machine validation plus agreement / validity / integrity /
/// single-proposer and the guarded liveness-under-quorum clause
/// (coord/validator.hpp). The fault-free baseline for recovery_time comes
/// from a sequential fault-free reference run of the same resolved options
/// (skipped when the plan itself is empty).
[[nodiscard]] ConsensusReport run_consensus(const PostalParams& params,
                                            const FaultPlan* plan = nullptr,
                                            const ConsensusOptions& options = {});

}  // namespace postal::coord
