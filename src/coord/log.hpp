// Multi-decree replicated log in the postal model (docs/COORDINATION.md).
//
// Per-slot single-decree Paxos instances sharing one view/leader (with one
// command the log *is* single-decree consensus, coord/consensus.hpp):
// views occupy the globally synchronized windows [v V, (v+1) V) with
// leader(v) the v-th member of the view's configuration in round-robin, so
// every rank's exact clock agrees on who may lead when. The leader of a
// view collects VIEW-CHANGEs (each carrying the follower's commit prefix
// and, per undecided slot, its highest accepted (view, value)); on a
// quorum it acquires a *lease* and proposes a batch: re-proposals of every
// accepted value it heard (the per-slot Paxos value rule) plus fresh
// client commands for the free slots, all disseminated over the per-view
// generalized-Fibonacci BCAST tree (ranks renamed (member index - leader
// index) mod |members|). Acceptors ACK per
// slot; a quorum of ACKs commits the slot and the COMMIT rides the same
// tree. Crashed relays orphan subtrees, so a within-view repair wave
// re-sends uncommitted proposals point-to-point, and any rank whose commit
// prefix leads a VIEW-CHANGE sender's heals it with direct COMMITs -- the
// catch-up/snapshot transfer that lets stragglers (and re-joining ranks)
// recover an arbitrarily long suffix.
//
// Leases and fencing (the mutual-exclusion layer): winning a quorum grants
// the leader a term-stamped lease -- fencing token view + 1, expiry
// min(grant + L, view end) with L derived on the 1/q grid from the
// election heartbeat period max(4 lambda, 2 (n - 1)) plus lambda-scaled
// round-trip slack -- so expiry is deterministic and byte-identical across
// thread counts. The leader renews by heartbeating RENEW
// every heartbeat period; a quorum of RENEW-ACKs extends the expiry.
// Writes (PROPOSE, repair, COMMIT) happen only while now < expiry; at the
// exact expiry tick the timer wins the tie, mirroring the reliable-bcast
// backoff boundary. Acceptors reject writes under a stale token (a lower
// view) and count them, so a deposed leader's in-flight writes are fenced.
//
// Reconfiguration: a membership change is a command decided like any other
// slot. The value encodes (add/remove, rank, activation view); once a
// rank's committed prefix applies it, the broadcast tree, quorum size, and
// leader(v) mapping are recomputed from the new member set for views >=
// the activation view. Single-rank changes keep any old-config quorum
// intersecting any new-config quorum (the clause check_log certifies), so
// ranks can join and leave mid-run under crash plans; stragglers that
// compute a stale leader are healed by catch-up like any other straggler.
//
// All view boundaries, lease grants, and timers are multiples of 1/q
// (lambda = p/q), so runs stay on their tick grid and are byte-identical
// at every ParMachine thread count.
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

/// One requested membership change: at model time `at`, toggle `rank`
/// (remove it if it is a member when the change is proposed, add it back
/// otherwise). The change becomes a log command proposed by whichever
/// leader holds the lease once `at` has passed.
struct ReconfigRequest {
  ProcId rank = 0;
  Rational at;

  friend bool operator==(const ReconfigRequest&, const ReconfigRequest&) = default;
};

/// Replicated-log knobs. Zero-valued knobs are derived (resolve_log_options).
struct LogOptions {
  /// Client command c (0 <= c < commands) has value value_base + c.
  /// Requires value_base + commands < 2^31 (bit 31 marks config commands).
  std::uint32_t value_base = 3000;
  /// Client commands to replicate. Total slots = commands + reconfig.size().
  std::uint64_t commands = 6;
  /// View window length V. 0 derives a window generous enough for a full
  /// batch to disseminate, ack, repair, and commit (see derive in log.cpp).
  Rational view_length{0};
  /// Views before undecided ranks give up (bounds the run). 0 derives from
  /// the fault plan, the reconfig horizon, and a full leader rotation.
  /// Must stay < 2^20.
  std::uint32_t max_views = 0;
  /// Lease renewal cadence P. 0 derives the election heartbeat period
  /// max(4 lambda, 2 (n - 1)).
  Rational heartbeat_period{0};
  /// Lease duration L. 0 derives P + 2 lambda + 2 * port_budget + n +
  /// timeout_slack, where port_budget bounds the per-port send backlog of
  /// a full batch: the renewal round trip always completes inside an
  /// undisturbed lease even while the batch is still draining the ports.
  Rational lease_length{0};
  /// Extra slack added to derived windows and the repair timer (>= 0).
  Rational timeout_slack{2};
  /// Membership changes to request mid-run (see ReconfigRequest).
  std::vector<ReconfigRequest> reconfig;
  /// Simulation lanes (docs/SIMULATION.md); 0 = 1. Reports are
  /// byte-identical at every setting.
  unsigned threads = 0;
};

/// Traffic and transition counters of one run (summed across shards).
struct LogCounters {
  std::uint64_t view_changes_sent = 0;  ///< VIEW-CHANGEs put on the wire
  std::uint64_t vc_accs_sent = 0;       ///< per-slot accepted-state reports
  std::uint64_t proposals = 0;          ///< slots proposed (first time per view)
  std::uint64_t proposal_relays = 0;    ///< PROPOSE tree sends (incl. leader's)
  std::uint64_t proposal_repairs = 0;   ///< point-to-point re-sends to silent ranks
  std::uint64_t acks_sent = 0;
  std::uint64_t commits = 0;            ///< slot commits at leaders
  std::uint64_t commit_relays = 0;      ///< COMMIT tree sends (incl. leader's)
  std::uint64_t catchup_commits = 0;    ///< direct COMMITs healing stragglers
  std::uint64_t renews_sent = 0;        ///< lease RENEW heartbeats
  std::uint64_t renew_acks_sent = 0;
  std::uint64_t lease_acquisitions = 0;
  std::uint64_t lease_renewals = 0;     ///< quorum-extended expiries
  std::uint64_t lease_expiries = 0;     ///< leases that lapsed mid-view
  std::uint64_t stale_rejects = 0;      ///< writes refused under a stale token
  std::uint64_t decides = 0;            ///< slot decisions across all ranks
  std::uint64_t config_applies = 0;     ///< membership changes applied
  std::uint64_t reconfig_commands = 0;  ///< config commands proposed

  friend bool operator==(const LogCounters&, const LogCounters&) = default;
};

/// One rank-local transition, for the canonical event log, check_log's
/// clauses, and the Chrome-trace overlay.
struct LogEvent {
  enum class Kind : std::uint8_t {
    kViewChange,    ///< entered view `view` undecided
    kLeaseAcquire,  ///< won a quorum; lease [time, until), token view + 1
    kLeaseRenew,    ///< quorum of RENEW-ACKs extended the lease to `until`
    kLeaseExpire,   ///< the lease lapsed before the batch finished
    kPropose,       ///< leader proposed `value` for `slot` in `view`
    kCommit,        ///< leader committed `slot` (quorum of ACKs)
    kDecide,        ///< this rank decided `value` for `slot` (in `view`)
    kStaleReject,   ///< refused a write under stale token `view` + 1
    kConfigApply,   ///< applied the config command `value` (view = activation)
  };
  Rational time;
  ProcId rank = 0;
  Kind kind = Kind::kViewChange;
  std::uint32_t view = 0;
  std::uint32_t slot = 0;   ///< 0 for view/lease events
  std::uint32_t value = 0;  ///< 0 for view/lease events
  Rational until;           ///< lease events: the expiry; else 0

  friend bool operator==(const LogEvent&, const LogEvent&) = default;
};

/// A rank's final state for one slot when the run quiesced.
struct SlotDecision {
  bool decided = false;
  std::uint32_t value = 0;
  std::uint32_t view = 0;  ///< view the decision was learned in
  Rational at;

  friend bool operator==(const SlotDecision&, const SlotDecision&) = default;
};

/// A rank's harvested log state at quiescence (crashed ranks: at crash).
struct RankLog {
  bool started = false;
  std::uint64_t commit_prefix = 0;  ///< contiguously decided slots from 0
  std::uint32_t config_epoch = 0;   ///< membership changes applied
  std::vector<ProcId> members;      ///< final applied member set, sorted
  std::vector<SlotDecision> slots;  ///< sized total slots

  friend bool operator==(const RankLog&, const RankLog&) = default;
};

/// Harvested per-run protocol state (per-shard instances compose).
struct LogHarvest {
  LogCounters counters;
  std::vector<RankLog> ranks;                ///< sized n
  std::vector<std::vector<LogEvent>> logs;   ///< per rank, chronological
};

/// Config-command value encoding, shared with the validator and tests:
/// bit 31 = config flag, bit 30 = add (else remove), bits 16..29 = the
/// activation view, bits 0..15 = the toggled rank.
[[nodiscard]] constexpr bool is_config_value(std::uint32_t value) {
  return (value >> 31) != 0;
}
[[nodiscard]] constexpr std::uint32_t make_config_value(bool add,
                                                        std::uint32_t act_view,
                                                        ProcId rank) {
  return (1U << 31) | (add ? (1U << 30) : 0U) | ((act_view & 0x3fffU) << 16) |
         (static_cast<std::uint32_t>(rank) & 0xffffU);
}
[[nodiscard]] constexpr bool config_value_adds(std::uint32_t value) {
  return ((value >> 30) & 1U) != 0;
}
[[nodiscard]] constexpr std::uint32_t config_value_act_view(std::uint32_t value) {
  return (value >> 16) & 0x3fffU;
}
[[nodiscard]] constexpr ProcId config_value_rank(std::uint32_t value) {
  return static_cast<ProcId>(value & 0xffffU);
}

/// The event-driven replicated-log protocol. One instance drives one run;
/// with ParMachine, one instance per shard.
class LogProtocol final : public Protocol {
 public:
  /// `options` must be resolved (all derived knobs > 0); the runner
  /// resolves them via resolve_log_options.
  LogProtocol(const PostalParams& params, const LogOptions& options);

  void on_start(MachineContext& ctx) override;
  void on_receive(MachineContext& ctx, const Packet& packet) override;
  void on_timer(MachineContext& ctx, std::uint64_t token) override;

  /// Fold this instance's per-rank results into `out` (sized n).
  void harvest(LogHarvest& out) const;

 private:
  struct Slot {
    bool has_accepted = false;
    std::uint32_t accepted_view = 0;
    std::uint32_t accepted_value = 0;
    bool decided = false;
    std::uint32_t dec_value = 0;
    std::uint32_t dec_view = 0;
    Rational dec_at;
  };

  struct Config {
    std::uint32_t from_view = 0;      ///< active for views >= from_view
    std::vector<ProcId> members;      ///< sorted
  };

  struct ProcState {
    bool started = false;
    std::uint32_t promised = 0;       ///< highest view promised (= token - 1)
    std::uint64_t commit_prefix = 0;
    std::uint64_t applied_configs = 0;  ///< config slots applied from the prefix
    std::uint64_t triggered = 0;        ///< reconfig requests whose time passed
    std::vector<Slot> slots;
    std::vector<Config> configs;      ///< applied history, from_view ascending
    // Leader state for the view this rank is currently collecting.
    bool collecting = false;
    std::uint32_t collect_view = 0;
    std::uint32_t vc_count = 0;
    std::uint64_t expected_accs = 0;
    std::uint64_t got_accs = 0;
    bool acquired = false;            ///< holds the view's lease
    bool lease_live = false;          ///< acquired and not yet expired
    std::uint64_t lease_gen = 0;      ///< stamps lease/renew timers
    Rational lease_expiry;
    Rational renew_sent_at;
    std::uint32_t renew_seq = 0;
    std::uint32_t renew_acks = 0;
    std::vector<std::uint8_t> vc_from;  ///< per-rank VC bitmap (this view)
    // Per-slot highest accepted (view, value) reported by the counted
    // quorum (the Paxos value rule input), seeded from the leader's own
    // acceptor state.
    std::vector<std::uint8_t> best_has;
    std::vector<std::uint32_t> best_view;
    std::vector<std::uint32_t> best_value;
    std::vector<std::uint8_t> proposed;        ///< per-slot: proposed this view
    std::vector<std::uint8_t> committed;       ///< per-slot: committed this view
    std::vector<std::vector<std::uint8_t>> acked;  ///< per-slot ack bitmaps
    std::vector<std::uint32_t> ack_counts;
    Rational port_free;               ///< local mirror of the output port
    std::vector<LogEvent> log;
  };

  [[nodiscard]] const Config& config_for(const ProcState& st,
                                         std::uint32_t view) const;
  [[nodiscard]] ProcId leader_of(const Config& cfg, std::uint32_t view) const {
    return cfg.members[view % cfg.members.size()];
  }
  [[nodiscard]] bool is_member(const Config& cfg, ProcId rank) const;
  /// Position of `rank` in cfg.members, or members.size() if absent.
  [[nodiscard]] std::uint64_t member_index(const Config& cfg,
                                           ProcId rank) const;
  [[nodiscard]] Rational view_end(std::uint32_t view) const {
    return options_.view_length * Rational(static_cast<std::int64_t>(view) + 1);
  }
  [[nodiscard]] std::uint32_t quorum_of(const Config& cfg) const {
    return static_cast<std::uint32_t>(cfg.members.size() / 2 + 1);
  }
  [[nodiscard]] bool done(const ProcState& st) const {
    return st.commit_prefix == total_slots_;
  }
  Rational do_send(MachineContext& ctx, ProcId dst, const Packet& packet);
  void log_event(ProcState& st, const Rational& now, LogEvent::Kind kind,
                 std::uint32_t view, std::uint32_t slot, std::uint32_t value,
                 const Rational& until = Rational(0));
  void enter_view(MachineContext& ctx, std::uint32_t view);
  void begin_collect(MachineContext& ctx, std::uint32_t view);
  void try_acquire(MachineContext& ctx);
  void acquire(MachineContext& ctx);
  void propose_batch(MachineContext& ctx);
  /// Fibonacci-tree sends of a PROPOSE/COMMIT over the renamed member-index
  /// range [renamed, hi), rooted at the view's leader in `cfg`.
  void relay_range(MachineContext& ctx, const Config& cfg, bool commit,
                   std::uint32_t view, std::uint32_t slot, std::uint32_t value,
                   std::uint64_t renamed, std::uint64_t hi);
  void decide(MachineContext& ctx, std::uint32_t slot, std::uint32_t value,
              std::uint32_t view);
  /// Advance the commit prefix and apply any config commands it crossed.
  void advance_prefix(MachineContext& ctx);
  /// Apply one committed config command: recompute members/tree/quorum
  /// for views >= its activation view.
  void apply_config(MachineContext& ctx, std::uint32_t value);
  /// Direct COMMITs for [sender's prefix, ours): the catch-up transfer.
  void heal(MachineContext& ctx, ProcId dst, std::uint64_t their_prefix,
            std::uint32_t view);
  void commit_slot(MachineContext& ctx, std::uint32_t slot);

  std::uint64_t n_;
  Rational lambda_;
  GenFib fib_;
  LogOptions options_;
  std::uint64_t total_slots_;
  Rational repair_after_;  ///< acquire-to-repair-wave delay within a view
  /// Per reconfig request: true = the expected toggle adds the rank
  /// (request-order toggles applied to the initial full membership).
  std::vector<std::uint8_t> expected_add_;
  std::vector<ProcState> state_;
  LogCounters counters_;
};

/// Everything one replicated-log run produces, judged.
struct LogReport {
  MachineResult result;
  LogCounters counters;
  std::vector<LogEvent> events;   ///< canonical (time, rank, seq) order
  std::vector<RankLog> ranks;     ///< per rank, at quiescence
  SimReport validation;           ///< preholds + fifo + crash-aware
  CoordCheck check;               ///< coordination safety clauses
  /// Resolved options (all derived knobs filled in).
  LogOptions options;
  std::uint64_t slots = 0;        ///< commands + reconfig requests
  std::uint32_t quorum = 0;       ///< initial-config quorum
  std::uint32_t views_used = 0;   ///< highest view any rank entered
  bool settled = false;           ///< disturbances bounded, inside max_views
  std::vector<ProcId> crashed;    ///< ranks the plan crashes, sorted
  /// Expected final member set: the reconfig toggles applied in request
  /// order to the initial full membership.
  std::vector<ProcId> final_members;
  Rational commit_latency;  ///< last live final member's last decision time
  Rational baseline;        ///< fault-free commit_latency for these options
  Rational recovery_time;   ///< max(0, commit_latency - baseline)
};

/// Fill every zero-valued derived knob from (params, plan): the view
/// length (sized to a full batch), the lease cadence/duration, and enough
/// views for disturbances, loss budgets, the reconfig horizon, and a full
/// leader rotation to settle. Throws InvalidArgument if the reconfig
/// toggles would ever shrink membership below 2 ranks.
[[nodiscard]] LogOptions resolve_log_options(const PostalParams& params,
                                             const FaultPlan* plan,
                                             const LogOptions& options);

/// Run the replicated log under `plan` (nullptr = fault-free) and judge
/// it: crash-aware machine validation plus per-slot agreement, prefix
/// durability, lease mutual-exclusion/fencing, reconfiguration safety, and
/// the guarded liveness-under-quorum clause (coord/validator.hpp). The
/// fault-free baseline for recovery_time comes from a sequential
/// fault-free reference run of the same resolved options.
[[nodiscard]] LogReport run_log(const PostalParams& params,
                                const FaultPlan* plan = nullptr,
                                const LogOptions& options = {});

}  // namespace postal::coord
