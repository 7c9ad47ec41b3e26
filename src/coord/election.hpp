// Postal-model leader election (docs/COORDINATION.md).
//
// A term-based bully election layered on the exact MPS(n, lambda)
// simulator. The incumbent leader heartbeats every rank once per period;
// followers arm a lambda-scaled watchdog and, when miss_threshold periods
// pass in silence, suspect the leader and probe every rank whose priority
// beats their own. A probe answered by the live leader heals the suspicion
// with a VICTORY; an unanswered probe window lets the best surviving rank
// declare itself leader under a higher term. Terms make usurpation safe
// under seeded link loss: a stale leader that missed the election adopts
// the higher-term VICTORY the moment any heartbeat reaches it, and a
// better-priority rank that was usurped (its probes were eaten) re-elects
// itself on top, so the system converges to one live leader -- the clause
// the coordination validator certifies (coord/validator.hpp).
//
// Two deterministic priority policies: kHighestRank (classic bully) and
// kOracleDepth, which prefers the rank closest to the root of the optimal
// BCAST tree (smallest ScheduleOracle depth, ties to the smaller rank) --
// the rank whose expected re-broadcast completion is lowest.
//
// Every timer is a multiple of 1/q (lambda = p/q), so runs stay on their
// tick grid and are byte-identical at every ParMachine thread count
// (chaos-differential-tested). Heartbeats stop at a finite horizon so runs
// quiesce; the horizon is derived from the fault plan generously enough
// that every disturbance settles first.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "coord/check.hpp"
#include "faults/fault_plan.hpp"
#include "sim/machine.hpp"
#include "sim/validator.hpp"

namespace postal::coord {

/// Deterministic successor priority.
enum class ElectionPolicy : std::uint8_t {
  kHighestRank,  ///< classic bully: the highest surviving rank wins
  kOracleDepth,  ///< smallest optimal-BCAST-tree depth wins, ties to the
                 ///< smaller rank (lowest expected re-broadcast completion)
};

/// Election knobs. Zero-valued times are derived (resolve_election_options).
struct ElectionOptions {
  ProcId initial_leader = 0;
  ElectionPolicy policy = ElectionPolicy::kHighestRank;
  /// Heartbeat period P. 0 derives max(4 lambda, 2 (n - 1)): lambda-scaled,
  /// but never faster than the output port can serialize n - 1 sends.
  Rational heartbeat_period{0};
  /// Consecutive silent periods before a follower suspects the leader.
  std::uint32_t miss_threshold = 2;
  /// Extra slack added to the watchdog and probe windows (>= 0).
  Rational timeout_slack{2};
  /// No timer is armed to fire at or after the horizon, so heartbeats (and
  /// with them the run) terminate. 0 derives a horizon from the fault plan
  /// that leaves every disturbance room to settle (resolve_election_options).
  Rational horizon{0};
  /// Simulation lanes (docs/SIMULATION.md); 0 = 1. Reports are
  /// byte-identical at every setting.
  unsigned threads = 0;
};

/// Traffic and transition counters of one run (summed across shards).
struct ElectionCounters {
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t probes_sent = 0;   ///< candidacy probes to better ranks
  std::uint64_t alives_sent = 0;   ///< probe replies from non-leaders
  std::uint64_t victories_sent = 0;  ///< victory announcements + leader replies
  std::uint64_t suspicions = 0;    ///< watchdog firings that began a candidacy
  std::uint64_t takeovers = 0;     ///< candidacies begun to usurp a worse leader
  std::uint64_t adoptions = 0;     ///< leader/term changes accepted
  std::uint64_t step_downs = 0;    ///< leaders deposed by a higher term

  friend bool operator==(const ElectionCounters&, const ElectionCounters&) = default;
};

/// One rank-local transition, for the report's canonical event log and the
/// Chrome-trace overlay.
struct ElectionEvent {
  enum class Kind : std::uint8_t {
    kSuspect,   ///< watchdog fired; candidacy begins (leader = the suspect)
    kVictory,   ///< this rank declared itself leader under `term`
    kAdopt,     ///< adopted `leader` under `term`
    kStepDown,  ///< was leader, deposed by a higher term
  };
  Rational time;
  ProcId rank = 0;
  Kind kind = Kind::kSuspect;
  std::uint32_t term = 0;
  ProcId leader = 0;

  friend bool operator==(const ElectionEvent&, const ElectionEvent&) = default;
};

/// A rank's final belief when the run quiesced (crashed ranks: at crash).
struct RankBelief {
  bool started = false;
  ProcId leader = 0;
  std::uint32_t term = 0;

  friend bool operator==(const RankBelief&, const RankBelief&) = default;
};

/// Harvested per-run protocol state; ElectionProtocol::harvest fills the
/// slots of the ranks the instance ran (per-shard instances compose).
struct ElectionHarvest {
  ElectionCounters counters;
  std::vector<RankBelief> beliefs;               ///< sized n
  std::vector<std::vector<ElectionEvent>> logs;  ///< per rank, chronological
};

/// The event-driven election protocol. One instance drives one run; with
/// ParMachine, one instance per shard (handlers only touch per-rank state
/// of ranks the shard owns, so instances compose into the sequential run).
class ElectionProtocol final : public Protocol {
 public:
  /// `options` must be resolved (no zero-valued derived times); the runner
  /// resolves them, and resolve_election_options is exported for tests.
  ElectionProtocol(const PostalParams& params, const ElectionOptions& options);

  void on_start(MachineContext& ctx) override;
  void on_receive(MachineContext& ctx, const Packet& packet) override;
  void on_timer(MachineContext& ctx, std::uint64_t token) override;

  /// Fold this instance's per-rank results into `out` (sized n).
  void harvest(ElectionHarvest& out) const;

 private:
  struct ProcState {
    bool started = false;
    ProcId leader = 0;
    std::uint32_t term = 0;
    bool candidate = false;
    std::uint64_t watchdog_gen = 0;  ///< stamps watchdog timers (no cancel API)
    std::uint64_t probe_gen = 0;     ///< stamps probe-window timers
    std::uint64_t hb_gen = 0;        ///< stamps heartbeat timers
    Rational port_free;              ///< local mirror of the output port
    std::vector<ElectionEvent> log;
  };

  [[nodiscard]] bool better(ProcId a, ProcId b) const;
  Rational do_send(MachineContext& ctx, ProcId dst, const Packet& packet);
  /// Arm a timer to fire at absolute time `at` unless at >= horizon.
  void arm_at(MachineContext& ctx, const Rational& at, std::uint64_t token);
  void arm_watchdog(MachineContext& ctx);
  void heartbeat_round(MachineContext& ctx);
  void begin_candidacy(MachineContext& ctx, bool takeover);
  void declare_victory(MachineContext& ctx);
  /// Apply a (leader, term) claim heard on the wire; `refreshing` claims
  /// from the current leader re-arm the watchdog.
  void consider(MachineContext& ctx, ProcId claimed, std::uint32_t term);
  void log_event(MachineContext& ctx, ElectionEvent::Kind kind);

  std::uint64_t n_;
  Rational lambda_;
  ElectionOptions options_;
  Rational period_;
  Rational watchdog_;    ///< follower patience before suspecting
  Rational probe_wait_;  ///< candidate patience for ALIVE/VICTORY replies
  std::vector<std::uint64_t> depth_;  ///< per-rank BCAST depth (kOracleDepth)
  std::vector<ProcState> state_;
  ElectionCounters counters_;
};

/// Everything one election run produces, judged.
struct ElectionReport {
  MachineResult result;
  ElectionCounters counters;
  std::vector<ElectionEvent> events;  ///< canonical (time, rank, seq) order
  std::vector<RankBelief> beliefs;    ///< per rank, at quiescence (or crash)
  SimReport validation;               ///< preholds + fifo + crash-aware
  CoordCheck check;                   ///< coordination safety clauses
  /// Resolved options (derived period/horizon filled in) of this run.
  ElectionOptions options;
  Rational watchdog;           ///< follower suspicion patience used
  Rational settle_time;        ///< when guarded clauses apply (<= horizon)
  bool settled = false;        ///< disturbances bounded and inside the horizon
  std::vector<ProcId> crashed; ///< ranks the plan crashes, sorted
  ProcId leader = 0;           ///< final leader of the lowest live rank
  Rational first_suspect;      ///< earliest kSuspect time (0 if none)
  Rational elected_at;         ///< last live adoption/victory of final leader
  Rational election_latency;   ///< elected_at - initial leader's crash (or 0)
};

/// Fill every zero-valued derived knob from (params, plan): the heartbeat
/// period, and a horizon generous enough that crashes, loss budgets, and
/// spike windows all settle before heartbeats stop.
[[nodiscard]] ElectionOptions resolve_election_options(
    const PostalParams& params, const FaultPlan* plan,
    const ElectionOptions& options);

/// Run the election under `plan` (nullptr = fault-free) and judge it:
/// crash-aware machine validation (ElectionReport::validation) plus the
/// coordination safety clauses (ElectionReport::check, see
/// coord/validator.hpp). The caller gets the full report either way.
[[nodiscard]] ElectionReport run_election(const PostalParams& params,
                                          const FaultPlan* plan = nullptr,
                                          const ElectionOptions& options = {});

}  // namespace postal::coord
