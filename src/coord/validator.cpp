#include "coord/validator.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>

#include "oracle/oracle.hpp"

namespace postal::coord {

std::string CoordCheck::summary() const {
  if (ok) return "ok";
  std::ostringstream oss;
  oss << violations.size() << " violation(s):";
  for (const auto& v : violations) oss << "\n  - " << v;
  return oss.str();
}

namespace {

bool is_fault_free(const FaultPlan* plan) {
  return plan == nullptr || plan->empty();
}

/// Earliest crash time per rank (a plan may list several).
std::map<ProcId, Rational> crash_times(const FaultPlan* plan, std::uint64_t n) {
  std::map<ProcId, Rational> out;
  if (plan == nullptr) return out;
  for (const CrashFault& c : plan->crashes) {
    if (c.proc >= n) continue;
    auto [it, inserted] = out.emplace(c.proc, c.time);
    if (!inserted) it->second = rmin(it->second, c.time);
  }
  return out;
}

void add(CoordCheck& check, std::string text) {
  check.violations.push_back(std::move(text));
}

}  // namespace

CoordCheck check_election(const ElectionReport& report,
                          const PostalParams& params, const FaultPlan* plan) {
  CoordCheck check;
  const std::uint64_t n = params.n();
  const auto crashes = crash_times(plan, n);

  if (!report.validation.ok) {
    add(check, "machine validation failed: " + report.validation.summary());
  }

  if (is_fault_free(plan)) {
    // Nothing disturbed the run: nobody may suspect, nobody may move.
    if (report.counters.suspicions != 0) {
      std::ostringstream oss;
      oss << "fault-free run raised " << report.counters.suspicions
          << " suspicion(s)";
      add(check, oss.str());
    }
    for (ProcId p = 0; p < n; ++p) {
      const RankBelief& b = report.beliefs[p];
      if (!b.started) continue;
      if (b.leader != report.options.initial_leader || b.term != 0) {
        std::ostringstream oss;
        oss << "fault-free run moved rank " << p << " to leader " << b.leader
            << " term " << b.term << " (expected leader "
            << report.options.initial_leader << " term 0)";
        add(check, oss.str());
      }
    }
  }

  if (report.settled) {
    check.liveness_checked = true;
    // Agreement: one live leader, one term, across every live started rank.
    std::optional<ProcId> leader;
    std::optional<std::uint32_t> term;
    for (ProcId p = 0; p < n; ++p) {
      if (crashes.contains(p) || !report.beliefs[p].started) continue;
      const RankBelief& b = report.beliefs[p];
      if (!leader.has_value()) {
        leader = b.leader;
        term = b.term;
        continue;
      }
      if (b.leader != *leader || b.term != *term) {
        std::ostringstream oss;
        oss << "settled run split: rank " << p << " follows leader "
            << b.leader << " term " << b.term << " but rank(s) before it "
            << "follow leader " << *leader << " term " << *term;
        add(check, oss.str());
      }
    }
    if (leader.has_value() && crashes.contains(*leader)) {
      std::ostringstream oss;
      oss << "settled run follows crashed leader " << *leader;
      add(check, oss.str());
    }
    // Legitimacy under crash-only plans: no message was ever lost or
    // delayed, so the survivors must converge on the policy's best
    // survivor (the initial leader if it lives).
    const bool crash_only = plan == nullptr ||
                            (plan->losses.empty() && plan->spikes.empty());
    if (leader.has_value() && crash_only) {
      ProcId expected = report.options.initial_leader;
      if (crashes.contains(expected)) {
        std::vector<std::uint64_t> depth;
        if (report.options.policy == ElectionPolicy::kOracleDepth) {
          const oracle::ScheduleOracle oracle(n, params.lambda());
          depth.resize(n);
          for (std::uint64_t r = 0; r < n; ++r) depth[r] = oracle.info(r).depth;
        }
        std::optional<ProcId> best;
        for (ProcId p = 0; p < n; ++p) {
          if (crashes.contains(p) || !report.beliefs[p].started) continue;
          if (!best.has_value()) {
            best = p;
            continue;
          }
          const bool wins =
              report.options.policy == ElectionPolicy::kHighestRank
                  ? p > *best
                  : (depth[p] != depth[*best] ? depth[p] < depth[*best]
                                              : p < *best);
          if (wins) best = p;
        }
        if (best.has_value()) expected = *best;
      }
      if (*leader != expected) {
        std::ostringstream oss;
        oss << "settled crash-only run elected " << *leader
            << " but the legitimate leader is " << expected;
        add(check, oss.str());
      }
    }
  }

  check.ok = check.violations.empty();
  return check;
}

namespace {

/// One leader's lease for one view: the acquisition plus every quorum
/// extension, closed by construction at the view boundary.
struct LeaseInterval {
  ProcId rank = 0;
  std::uint32_t view = 0;  ///< fencing token = view + 1
  Rational start;
  Rational until;
};

/// Apply the config commands of an agreed slot assignment in slot order
/// to the initial full membership. Returns the resulting member set.
std::vector<ProcId> apply_slot_configs(
    std::uint64_t n, const std::map<std::uint32_t, std::uint32_t>& slot_values,
    std::uint64_t limit) {
  std::vector<std::uint8_t> present(n, 1);
  for (const auto& [slot, value] : slot_values) {
    if (slot >= limit || !is_config_value(value)) continue;
    const ProcId rank = config_value_rank(value);
    if (rank >= n) continue;
    if (config_value_adds(value)) {
      present[rank] = 1;
    } else {
      std::uint64_t count = 0;
      for (const auto f : present) count += f;
      if (count > 1) present[rank] = 0;
    }
  }
  std::vector<ProcId> members;
  for (ProcId r = 0; r < n; ++r) {
    if (present[r] != 0) members.push_back(r);
  }
  return members;
}

}  // namespace

CoordCheck check_log(const LogReport& report, const PostalParams& params,
                     const FaultPlan* plan) {
  CoordCheck check;
  const std::uint64_t n = params.n();
  const std::uint64_t slots = report.slots;
  const auto crashes = crash_times(plan, n);
  const std::uint32_t base = report.options.value_base;
  const std::uint64_t commands = report.options.commands;

  if (!report.validation.ok) {
    add(check, "machine validation failed: " + report.validation.summary());
  }

  // Event integrity plus the agreement / validity / single-proposer and
  // lease bookkeeping all come from one pass over the canonical log.
  std::map<std::uint32_t, std::uint32_t> agreed;        // slot -> value
  std::map<std::uint64_t, ProcId> proposers;            // (view<<32|slot)
  std::map<std::uint32_t, std::uint32_t> client_slots;  // client idx -> slot
  std::vector<LeaseInterval> leases;
  std::uint64_t decide_events = 0;
  std::uint64_t acquire_events = 0;
  std::uint64_t stale_events = 0;
  std::uint64_t apply_events = 0;
  for (const LogEvent& e : report.events) {
    if (e.rank >= n) {
      std::ostringstream oss;
      oss << "event names rank " << e.rank << " out of range";
      add(check, oss.str());
      continue;
    }
    const auto it = crashes.find(e.rank);
    if (it != crashes.end() && e.time >= it->second) {
      std::ostringstream oss;
      oss << "rank " << e.rank << " logged an event at t=" << e.time.str()
          << " at/after its crash at t=" << it->second.str();
      add(check, oss.str());
    }
    switch (e.kind) {
      case LogEvent::Kind::kViewChange:
        break;
      case LogEvent::Kind::kLeaseAcquire: {
        ++acquire_events;
        if (!leases.empty() && leases.back().view == e.view) {
          std::ostringstream oss;
          oss << "view " << e.view << " granted two leases (ranks "
              << leases.back().rank << " and " << e.rank << ")";
          add(check, oss.str());
        }
        leases.push_back(LeaseInterval{e.rank, e.view, e.time, e.until});
        break;
      }
      case LogEvent::Kind::kLeaseRenew: {
        if (leases.empty() || leases.back().rank != e.rank ||
            leases.back().view != e.view) {
          std::ostringstream oss;
          oss << "rank " << e.rank << " renewed a lease it never acquired "
              << "(view " << e.view << ")";
          add(check, oss.str());
          break;
        }
        if (e.until < leases.back().until) {
          std::ostringstream oss;
          oss << "rank " << e.rank << " renewal shrank the lease in view "
              << e.view;
          add(check, oss.str());
        }
        leases.back().until = e.until;
        break;
      }
      case LogEvent::Kind::kLeaseExpire:
        break;
      case LogEvent::Kind::kPropose: {
        if (e.slot >= slots) {
          std::ostringstream oss;
          oss << "proposal names slot " << e.slot << " out of range";
          add(check, oss.str());
          break;
        }
        const std::uint64_t key =
            (static_cast<std::uint64_t>(e.view) << 32) | e.slot;
        auto [pit, inserted] = proposers.emplace(key, e.rank);
        if (!inserted && pit->second != e.rank) {
          std::ostringstream oss;
          oss << "view " << e.view << " slot " << e.slot
              << " has two proposers (ranks " << pit->second << " and "
              << e.rank << ")";
          add(check, oss.str());
        }
        // Every proposal is a leader write under a live lease.
        if (n >= 2) {
          const bool covered =
              !leases.empty() && leases.back().rank == e.rank &&
              leases.back().view == e.view && !(e.time < leases.back().start) &&
              e.time < leases.back().until;
          if (!covered) {
            std::ostringstream oss;
            oss << "rank " << e.rank << " proposed slot " << e.slot
                << " in view " << e.view << " at t=" << e.time.str()
                << " outside its lease";
            add(check, oss.str());
          }
        }
        break;
      }
      case LogEvent::Kind::kCommit:
        break;
      case LogEvent::Kind::kDecide: {
        ++decide_events;
        if (e.slot >= slots) {
          std::ostringstream oss;
          oss << "decide names slot " << e.slot << " out of range";
          add(check, oss.str());
          break;
        }
        auto [ait, inserted] = agreed.emplace(e.slot, e.value);
        if (!inserted && ait->second != e.value) {
          std::ostringstream oss;
          oss << "agreement broken in slot " << e.slot << ": decided values "
              << ait->second << " and " << e.value;
          add(check, oss.str());
        }
        if (inserted) {
          // Validity: a client command in range (occupying one slot only)
          // or a well-formed config command.
          if (is_config_value(e.value)) {
            if (config_value_rank(e.value) >= n) {
              std::ostringstream oss;
              oss << "slot " << e.slot << " decided config command for rank "
                  << config_value_rank(e.value) << " out of range";
              add(check, oss.str());
            }
          } else if (e.value < base || e.value - base >= commands) {
            std::ostringstream oss;
            oss << "slot " << e.slot << " decided value " << e.value
                << " which is no client command";
            add(check, oss.str());
          } else {
            auto [cit, fresh] = client_slots.emplace(e.value - base, e.slot);
            if (!fresh) {
              std::ostringstream oss;
              oss << "client command " << (e.value - base)
                  << " decided in slots " << cit->second << " and " << e.slot;
              add(check, oss.str());
            }
          }
        }
        break;
      }
      case LogEvent::Kind::kStaleReject:
        ++stale_events;
        break;
      case LogEvent::Kind::kConfigApply:
        ++apply_events;
        break;
    }
  }

  // Lease mutual exclusion and fencing monotonicity: acquisition order is
  // canonical event order, so intervals must be disjoint in sequence and
  // the fencing tokens (view + 1) strictly increasing.
  for (std::size_t i = 1; i < leases.size(); ++i) {
    if (leases[i].view <= leases[i - 1].view) {
      std::ostringstream oss;
      oss << "fencing tokens not monotone: view " << leases[i - 1].view
          << " lease granted before view " << leases[i].view << " lease";
      add(check, oss.str());
    }
    if (leases[i].start < leases[i - 1].until) {
      std::ostringstream oss;
      oss << "lease overlap: rank " << leases[i - 1].rank << " held until t="
          << leases[i - 1].until.str() << " but rank " << leases[i].rank
          << " acquired at t=" << leases[i].start.str();
      add(check, oss.str());
    }
  }

  // Counter/event consistency (the fencing counter is part of the
  // contract: rejected stale-token writes are counted).
  if (decide_events != report.counters.decides ||
      acquire_events != report.counters.lease_acquisitions ||
      stale_events != report.counters.stale_rejects ||
      apply_events != report.counters.config_applies) {
    std::ostringstream oss;
    oss << "counters disagree with the event log (decides "
        << report.counters.decides << "/" << decide_events << ", leases "
        << report.counters.lease_acquisitions << "/" << acquire_events
        << ", stale rejects " << report.counters.stale_rejects << "/"
        << stale_events << ", config applies "
        << report.counters.config_applies << "/" << apply_events << ")";
    add(check, oss.str());
  }

  // Prefix durability and per-rank configuration consistency: a harvested
  // commit prefix covers only decided slots, the harvest matches the
  // agreed values, and the applied membership is exactly what the rank's
  // own decided prefix prescribes (so consecutive configurations differ by
  // one rank and quorums intersect through every change).
  for (ProcId p = 0; p < n; ++p) {
    const RankLog& rl = report.ranks[p];
    if (!rl.started) continue;
    for (std::uint64_t s = 0; s < rl.commit_prefix; ++s) {
      if (s < rl.slots.size() && !rl.slots[s].decided) {
        std::ostringstream oss;
        oss << "rank " << p << " reports commit prefix " << rl.commit_prefix
            << " but slot " << s << " is undecided";
        add(check, oss.str());
      }
    }
    std::uint64_t configs_in_prefix = 0;
    std::map<std::uint32_t, std::uint32_t> own_values;
    for (std::uint64_t s = 0; s < rl.slots.size(); ++s) {
      const SlotDecision& sd = rl.slots[s];
      if (!sd.decided) continue;
      own_values.emplace(static_cast<std::uint32_t>(s), sd.value);
      const auto ait = agreed.find(static_cast<std::uint32_t>(s));
      if (ait != agreed.end() && ait->second != sd.value) {
        std::ostringstream oss;
        oss << "rank " << p << " harvested value " << sd.value << " in slot "
            << s << " but the decided value is " << ait->second;
        add(check, oss.str());
      }
      if (s < rl.commit_prefix && is_config_value(sd.value)) {
        ++configs_in_prefix;
      }
    }
    if (configs_in_prefix != rl.config_epoch) {
      std::ostringstream oss;
      oss << "rank " << p << " applied " << rl.config_epoch
          << " config change(s) but its prefix holds " << configs_in_prefix;
      add(check, oss.str());
    }
    const std::vector<ProcId> expected =
        apply_slot_configs(n, own_values, rl.commit_prefix);
    if (rl.members != expected) {
      std::ostringstream oss;
      oss << "rank " << p
          << " membership does not match its decided prefix";
      add(check, oss.str());
    }
    if (rl.members.empty()) {
      std::ostringstream oss;
      oss << "rank " << p << " applied itself into an empty membership";
      add(check, oss.str());
    }
  }

  // Guarded liveness: disturbances bounded inside the view budget and
  // both the initial and final quorums survived -- every live final
  // member must hold the full decided log and one membership.
  std::uint64_t final_survivors = 0;
  for (const ProcId r : report.final_members) {
    if (!crashes.contains(r)) ++final_survivors;
  }
  const std::uint64_t survivors = n - crashes.size();
  const std::uint64_t final_quorum = report.final_members.size() / 2 + 1;
  if (report.settled && survivors >= report.quorum &&
      final_survivors >= final_quorum) {
    check.liveness_checked = true;
    const std::vector<ProcId>* members = nullptr;
    for (const ProcId r : report.final_members) {
      if (crashes.contains(r)) continue;
      const RankLog& rl = report.ranks[r];
      if (!rl.started) continue;
      if (rl.commit_prefix != slots) {
        std::ostringstream oss;
        oss << "liveness: live final member " << r << " holds prefix "
            << rl.commit_prefix << " of " << slots << " (settled run, "
            << final_survivors << " final survivors >= quorum " << final_quorum
            << ")";
        add(check, oss.str());
        continue;
      }
      if (members == nullptr) {
        members = &rl.members;
      } else if (rl.members != *members) {
        std::ostringstream oss;
        oss << "liveness: live final members disagree on the membership "
            << "(rank " << r << ")";
        add(check, oss.str());
      }
    }
  }

  // The strictness clause only binds when the resolved timings are at
  // least the derived-adequate ones: a caller-forced short lease or view
  // (the boundary-tie tests) legitimately lapses even undisturbed.
  bool adequate_timing = true;
  if (is_fault_free(plan) && report.options.reconfig.empty()) {
    LogOptions defaults = report.options;
    defaults.view_length = Rational(0);
    defaults.lease_length = Rational(0);
    defaults.max_views = 0;
    const LogOptions derived = resolve_log_options(params, plan, defaults);
    adequate_timing = report.options.view_length >= derived.view_length &&
                      report.options.lease_length >= derived.lease_length;
  }

  if (is_fault_free(plan) && report.options.reconfig.empty() &&
      adequate_timing) {
    // Undisturbed and static: view 0's leader decides every slot under a
    // single lease that never lapses, and nothing is ever fenced.
    for (ProcId p = 0; p < n; ++p) {
      const RankLog& rl = report.ranks[p];
      if (!rl.started) continue;
      for (std::uint64_t s = 0; s < rl.slots.size(); ++s) {
        const SlotDecision& sd = rl.slots[s];
        if (!sd.decided || sd.view != 0 ||
            sd.value != base + static_cast<std::uint32_t>(s)) {
          std::ostringstream oss;
          oss << "fault-free run: rank " << p << " should decide value "
              << (base + s) << " in view 0 for slot " << s;
          add(check, oss.str());
          break;
        }
      }
    }
    const std::uint64_t expected_leases = n >= 2 ? 1 : 0;
    if (report.counters.lease_acquisitions != expected_leases ||
        report.counters.lease_expiries != 0 ||
        report.counters.stale_rejects != 0) {
      std::ostringstream oss;
      oss << "fault-free run: expected " << expected_leases
          << " lease(s), no expiries and no stale rejects, got "
          << report.counters.lease_acquisitions << "/"
          << report.counters.lease_expiries << "/"
          << report.counters.stale_rejects;
      add(check, oss.str());
    }
  }

  check.ok = check.violations.empty();
  return check;
}

}  // namespace postal::coord
