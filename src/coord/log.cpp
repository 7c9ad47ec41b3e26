#include "coord/log.hpp"

#include <algorithm>
#include <memory>

#include "coord/validator.hpp"
#include "sim/par_machine.hpp"
#include "support/error.hpp"

namespace postal::coord {
namespace {

// Wire encoding: ctl_a = kind(8) << 56 | sender(16) << 40 | view(20) << 20
//                        | aux(20).
// aux and ctl_b by kind:
//   VIEW-CHANGE  aux 0; ctl_b = commit prefix(32) << 32 | acc count(32)
//   VC-ACC       aux = accepted view; ctl_b = slot(32) << 32 | value(32)
//   PROPOSE      aux = renamed range end hi'; ctl_b = slot << 32 | value
//   ACK          aux 0; ctl_b = slot
//   COMMIT       aux = hi' (0 = point-to-point, never relayed);
//                ctl_b = slot << 32 | value
//   RENEW        aux 0; ctl_b = renewal sequence number
//   RENEW-ACK    aux 0; ctl_b = the echoed sequence number
// Requires n <= 2^16, views < 2^20, slots <= 2^16, values < 2^32.
enum class Wire : std::uint8_t {
  kVC = 1,
  kVcAcc = 2,
  kPropose = 3,
  kAck = 4,
  kCommit = 5,
  kRenew = 6,
  kRenewAck = 7,
};

constexpr std::uint64_t kField20 = (1ULL << 20) - 1;

std::uint64_t make_ctl_a(Wire kind, ProcId sender, std::uint32_t view,
                         std::uint64_t aux) {
  return (static_cast<std::uint64_t>(kind) << 56) |
         ((static_cast<std::uint64_t>(sender) & 0xffffULL) << 40) |
         ((static_cast<std::uint64_t>(view) & kField20) << 20) |
         (aux & kField20);
}

Packet make_vc(ProcId sender, std::uint32_t view, std::uint64_t prefix,
               std::uint64_t acc_count) {
  return Packet{/*msg=*/0, make_ctl_a(Wire::kVC, sender, view, 0),
                (prefix << 32) | (acc_count & 0xffffffffULL)};
}

Packet make_vc_acc(ProcId sender, std::uint32_t view, std::uint32_t acc_view,
                   std::uint32_t slot, std::uint32_t value) {
  return Packet{/*msg=*/0, make_ctl_a(Wire::kVcAcc, sender, view, acc_view),
                (static_cast<std::uint64_t>(slot) << 32) |
                    static_cast<std::uint64_t>(value)};
}

Packet make_tree(Wire kind, ProcId sender, std::uint32_t view,
                 std::uint32_t slot, std::uint32_t value, std::uint64_t hi) {
  return Packet{/*msg=*/0, make_ctl_a(kind, sender, view, hi),
                (static_cast<std::uint64_t>(slot) << 32) |
                    static_cast<std::uint64_t>(value)};
}

Packet make_ack(ProcId sender, std::uint32_t view, std::uint32_t slot) {
  return Packet{/*msg=*/0, make_ctl_a(Wire::kAck, sender, view, 0), slot};
}

Packet make_renew(Wire kind, ProcId sender, std::uint32_t view,
                  std::uint32_t seq) {
  return Packet{/*msg=*/0, make_ctl_a(kind, sender, view, 0), seq};
}

// Timer tokens: kind(8) << 56 | payload. The payloads are a view number
// (boundary, repair, renew cadence), a lease generation (expiry), or a
// reconfig request index (trigger).
enum class Tok : std::uint8_t {
  kView = 1,
  kRepair = 2,
  kLeaseExpiry = 3,
  kRenew = 4,
  kReconfig = 5,
};

std::uint64_t make_token(Tok kind, std::uint64_t payload) {
  return (static_cast<std::uint64_t>(kind) << 56) | payload;
}

// The serialized-port budget a full batch can spend at one rank: every
// slot's tree sends plus acks plus the commit wave, rounded up.
Rational port_budget(std::uint64_t n, std::uint64_t slots) {
  return Rational(
      static_cast<std::int64_t>((slots + 2) * (n + slots)));
}

// Sharded runner factory (the election.cpp pattern): per-rank results
// harvested on reclaim, written once each because every rank's handlers
// run on exactly one shard.
class LogFactory final : public ShardProtocolFactory {
 public:
  LogFactory(const PostalParams& params, const LogOptions& options)
      : params_(params), options_(options) {
    harvest_.ranks.resize(params.n());
    harvest_.logs.resize(params.n());
  }

  [[nodiscard]] std::unique_ptr<Protocol> make(std::uint32_t /*shard*/,
                                               std::uint32_t /*shards*/) override {
    return std::make_unique<LogProtocol>(params_, options_);
  }

  void reclaim(std::uint32_t /*shard*/,
               std::unique_ptr<Protocol> protocol) override {
    static_cast<const LogProtocol&>(*protocol).harvest(harvest_);
  }

  [[nodiscard]] LogHarvest& harvest() noexcept { return harvest_; }

 private:
  const PostalParams& params_;
  const LogOptions& options_;
  LogHarvest harvest_;
};

// The expected toggle directions: requests applied in order to the
// initial full membership. Returns one flag per request (true = add);
// `members` is left holding the expected final member set.
std::vector<std::uint8_t> expected_toggles(std::uint64_t n,
                                           const std::vector<ReconfigRequest>& ops,
                                           std::vector<ProcId>* members) {
  std::vector<std::uint8_t> present(n, 1);
  std::uint64_t count = n;
  std::vector<std::uint8_t> adds;
  adds.reserve(ops.size());
  for (const ReconfigRequest& op : ops) {
    POSTAL_REQUIRE(op.rank < n, "LogOptions: reconfig rank out of range");
    const bool add = present[op.rank] == 0;
    adds.push_back(add ? 1 : 0);
    present[op.rank] = add ? 1 : 0;
    count += add ? 1 : std::uint64_t(-1);
    POSTAL_REQUIRE(count >= 2,
                   "LogOptions: reconfig would shrink membership below 2");
  }
  if (members != nullptr) {
    members->clear();
    for (ProcId r = 0; r < n; ++r) {
      if (present[r] != 0) members->push_back(r);
    }
  }
  return adds;
}

}  // namespace

LogProtocol::LogProtocol(const PostalParams& params, const LogOptions& options)
    : n_(params.n()),
      lambda_(params.lambda()),
      fib_(params.lambda()),
      options_(options),
      total_slots_(options.commands + options.reconfig.size()),
      state_(params.n()) {
  POSTAL_REQUIRE(n_ >= 1 && n_ <= (1ULL << 16),
                 "LogProtocol: packet encoding requires n <= 2^16");
  POSTAL_REQUIRE(total_slots_ >= 1 && total_slots_ <= (1ULL << 16),
                 "LogProtocol: total slots must be in [1, 2^16]");
  POSTAL_REQUIRE(static_cast<std::uint64_t>(options_.value_base) +
                         options_.commands <
                     (1ULL << 31),
                 "LogProtocol: value_base + commands must stay below 2^31 "
                 "(bit 31 marks config commands)");
  POSTAL_REQUIRE(options_.view_length > Rational(0),
                 "LogProtocol: view_length must be resolved (> 0)");
  POSTAL_REQUIRE(options_.heartbeat_period > Rational(0),
                 "LogProtocol: heartbeat_period must be resolved (> 0)");
  POSTAL_REQUIRE(options_.lease_length > Rational(0),
                 "LogProtocol: lease_length must be resolved (> 0)");
  POSTAL_REQUIRE(options_.max_views >= 1 && options_.max_views < (1U << 20),
                 "LogProtocol: max_views must be in [1, 2^20)");
  POSTAL_REQUIRE(options_.timeout_slack >= Rational(0),
                 "LogProtocol: timeout_slack must be >= 0");
  if (!options_.reconfig.empty()) {
    POSTAL_REQUIRE(n_ >= 2, "LogProtocol: reconfiguration requires n >= 2");
    POSTAL_REQUIRE(options_.max_views + 2 < (1U << 14),
                   "LogProtocol: activation views must fit 14 bits");
    for (std::size_t i = 0; i < options_.reconfig.size(); ++i) {
      POSTAL_REQUIRE(options_.reconfig[i].at > Rational(0),
                     "LogProtocol: reconfig times must be > 0");
      POSTAL_REQUIRE(i == 0 ||
                         !(options_.reconfig[i].at < options_.reconfig[i - 1].at),
                     "LogProtocol: reconfig requests must be sorted by time");
    }
  }
  expected_add_ = expected_toggles(n_, options_.reconfig, nullptr);
  // Repair fires once the fault-free batch -- every slot's tree + ack
  // round trip through the serialized ports -- must have completed:
  // anyone still silent was orphaned by a dead relay.
  const Rational fn = n_ >= 2 ? fib_.f(n_) : Rational(0);
  repair_after_ = fn + lambda_ * Rational(2) + port_budget(n_, total_slots_) +
                  options_.timeout_slack;
}

const LogProtocol::Config& LogProtocol::config_for(const ProcState& st,
                                                   std::uint32_t view) const {
  // The applied history is monotone in from_view (clamped on apply); the
  // last entry at or before `view` governs it.
  for (auto it = st.configs.rbegin(); it != st.configs.rend(); ++it) {
    if (it->from_view <= view) return *it;
  }
  return st.configs.front();
}

bool LogProtocol::is_member(const Config& cfg, ProcId rank) const {
  return std::binary_search(cfg.members.begin(), cfg.members.end(), rank);
}

std::uint64_t LogProtocol::member_index(const Config& cfg, ProcId rank) const {
  const auto it =
      std::lower_bound(cfg.members.begin(), cfg.members.end(), rank);
  if (it == cfg.members.end() || *it != rank) return cfg.members.size();
  return static_cast<std::uint64_t>(it - cfg.members.begin());
}

Rational LogProtocol::do_send(MachineContext& ctx, ProcId dst,
                              const Packet& packet) {
  ProcState& st = state_[ctx.self()];
  const Rational start = rmax(ctx.now(), st.port_free);
  st.port_free = start + Rational(1);
  ctx.send(dst, packet);
  return start;
}

void LogProtocol::log_event(ProcState& st, const Rational& now,
                            LogEvent::Kind kind, std::uint32_t view,
                            std::uint32_t slot, std::uint32_t value,
                            const Rational& until) {
  LogEvent e;
  e.time = now;
  e.rank = static_cast<ProcId>(&st - state_.data());
  e.kind = kind;
  e.view = view;
  e.slot = slot;
  e.value = value;
  e.until = until;
  st.log.push_back(e);
}

void LogProtocol::decide(MachineContext& ctx, std::uint32_t slot,
                         std::uint32_t value, std::uint32_t view) {
  ProcState& st = state_[ctx.self()];
  Slot& sl = st.slots[slot];
  sl.decided = true;
  sl.dec_value = value;
  sl.dec_view = view;
  sl.dec_at = ctx.now();
  // Decided state doubles as accepted state so VC-ACCs cover it: a later
  // leader re-proposes (and re-commits) it, which agreement keeps safe.
  sl.has_accepted = true;
  sl.accepted_view = view;
  sl.accepted_value = value;
  ++counters_.decides;
  log_event(st, ctx.now(), LogEvent::Kind::kDecide, view, slot, value);
  advance_prefix(ctx);
}

void LogProtocol::advance_prefix(MachineContext& ctx) {
  ProcState& st = state_[ctx.self()];
  while (st.commit_prefix < total_slots_ &&
         st.slots[st.commit_prefix].decided) {
    const std::uint32_t value = st.slots[st.commit_prefix].dec_value;
    ++st.commit_prefix;
    if (is_config_value(value)) apply_config(ctx, value);
  }
}

void LogProtocol::apply_config(MachineContext& ctx, std::uint32_t value) {
  ProcState& st = state_[ctx.self()];
  const Config& last = st.configs.back();
  Config next;
  // Clamp keeps the history monotone even when a command re-proposed
  // across views carries a stale activation view.
  next.from_view = std::max(config_value_act_view(value), last.from_view);
  next.members = last.members;
  const ProcId rank = config_value_rank(value);
  const auto it =
      std::lower_bound(next.members.begin(), next.members.end(), rank);
  const bool present = it != next.members.end() && *it == rank;
  if (config_value_adds(value)) {
    if (!present) next.members.insert(it, rank);
  } else if (present && next.members.size() > 1) {
    next.members.erase(it);
  }
  ++st.applied_configs;
  ++counters_.config_applies;
  log_event(st, ctx.now(), LogEvent::Kind::kConfigApply, next.from_view,
            static_cast<std::uint32_t>(st.commit_prefix - 1), value);
  st.configs.push_back(std::move(next));
}

void LogProtocol::relay_range(MachineContext& ctx, const Config& cfg,
                              bool commit, std::uint32_t view,
                              std::uint32_t slot, std::uint32_t value,
                              std::uint64_t renamed, std::uint64_t hi) {
  // Algorithm BCAST's generalized-Fibonacci splits of the renamed member
  // range [renamed, hi) rooted at the view's leader (the reliable_bcast
  // split loop, re-rooted per view over the view's configuration). hi is
  // clamped defensively: configurations can disagree transiently around
  // an activation view, and a scrambled relay is safe -- commits carry
  // decided values and proposals are re-checked per receiver.
  const std::uint64_t m = cfg.members.size();
  const std::uint64_t leader_idx = view % m;
  if (hi > m) hi = m;
  while (hi > renamed && hi - renamed >= 2) {
    const std::uint64_t j = fib_.bcast_split(hi - renamed);
    const std::uint64_t target = renamed + j;
    const ProcId dst = cfg.members[(target + leader_idx) % m];
    if (commit) {
      ++counters_.commit_relays;
    } else {
      ++counters_.proposal_relays;
    }
    do_send(ctx, dst,
            make_tree(commit ? Wire::kCommit : Wire::kPropose, ctx.self(),
                      view, slot, value, hi));
    hi = target;  // the holder keeps [renamed, renamed + j)
  }
}

void LogProtocol::heal(MachineContext& ctx, ProcId dst,
                       std::uint64_t their_prefix, std::uint32_t view) {
  // The catch-up/snapshot transfer: direct COMMITs (hi = 0, never
  // relayed) for every decided slot in our prefix the straggler lacks.
  ProcState& st = state_[ctx.self()];
  for (std::uint64_t s = their_prefix; s < st.commit_prefix; ++s) {
    ++counters_.catchup_commits;
    do_send(ctx, dst,
            make_tree(Wire::kCommit, ctx.self(), view,
                      static_cast<std::uint32_t>(s), st.slots[s].dec_value,
                      /*hi=*/0));
  }
}

void LogProtocol::enter_view(MachineContext& ctx, std::uint32_t view) {
  ProcState& st = state_[ctx.self()];
  if (done(st) || view >= options_.max_views) return;
  st.promised = std::max(st.promised, view);  // the VIEW-CHANGE promise
  st.collecting = false;
  st.acquired = false;
  st.lease_live = false;  // capped at the boundary by construction
  log_event(st, ctx.now(), LogEvent::Kind::kViewChange, view, 0, 0);
  const Config& cfg = config_for(st, view);
  const ProcId leader = leader_of(cfg, view);
  if (leader == ctx.self()) {
    begin_collect(ctx, view);
  } else {
    // Non-members report too: the VC is also the catch-up probe that
    // keeps removed (and not-yet-re-added) ranks healed.
    std::uint64_t acc_count = 0;
    for (const Slot& sl : st.slots) {
      if (sl.has_accepted) ++acc_count;
    }
    ++counters_.view_changes_sent;
    do_send(ctx, leader, make_vc(ctx.self(), view, st.commit_prefix, acc_count));
    for (std::uint32_t s = 0; s < total_slots_; ++s) {
      const Slot& sl = st.slots[s];
      if (!sl.has_accepted) continue;
      ++counters_.vc_accs_sent;
      do_send(ctx, leader,
              make_vc_acc(ctx.self(), view, sl.accepted_view, s,
                          sl.accepted_value));
    }
  }
  if (view + 1 < options_.max_views) {
    const Rational next =
        options_.view_length * Rational(static_cast<std::int64_t>(view) + 1);
    ctx.set_timer(next - ctx.now(), make_token(Tok::kView, view + 1));
  }
}

void LogProtocol::begin_collect(MachineContext& ctx, std::uint32_t view) {
  ProcState& st = state_[ctx.self()];
  st.collecting = true;
  st.collect_view = view;
  st.vc_count = 1;  // the leader's own contribution
  st.expected_accs = 0;
  st.got_accs = 0;
  st.renew_seq = 0;
  st.renew_acks = 0;
  st.vc_from.assign(n_, 0);
  st.vc_from[ctx.self()] = 1;
  st.best_has.assign(total_slots_, 0);
  st.best_view.assign(total_slots_, 0);
  st.best_value.assign(total_slots_, 0);
  st.proposed.assign(total_slots_, 0);
  st.committed.assign(total_slots_, 0);
  st.acked.assign(total_slots_, {});
  st.ack_counts.assign(total_slots_, 0);
  for (std::uint32_t s = 0; s < total_slots_; ++s) {
    const Slot& sl = st.slots[s];
    if (!sl.has_accepted) continue;
    st.best_has[s] = 1;
    st.best_view[s] = sl.accepted_view;
    st.best_value[s] = sl.accepted_value;
  }
  try_acquire(ctx);
}

void LogProtocol::try_acquire(MachineContext& ctx) {
  ProcState& st = state_[ctx.self()];
  const Config& cfg = config_for(st, st.collect_view);
  // Acquisition needs the VC quorum and every accepted-state report the
  // counted VCs announced (FIFO links deliver a VC before its VC-ACCs).
  if (st.acquired || st.vc_count < quorum_of(cfg) ||
      st.got_accs < st.expected_accs) {
    return;
  }
  acquire(ctx);
}

void LogProtocol::acquire(MachineContext& ctx) {
  ProcState& st = state_[ctx.self()];
  const std::uint32_t view = st.collect_view;
  st.acquired = true;
  st.lease_live = true;
  ++st.lease_gen;
  const Rational ve = view_end(view);
  Rational expiry = ctx.now() + options_.lease_length;
  if (ve < expiry) expiry = ve;  // cross-view exclusion by construction
  st.lease_expiry = expiry;
  ++counters_.lease_acquisitions;
  log_event(st, ctx.now(), LogEvent::Kind::kLeaseAcquire, view, 0, 0, expiry);
  // The expiry timer is armed before any proposal is sent, so on-grid
  // ties resolve in favour of the timer (the (time, seq) contract).
  ctx.set_timer(expiry - ctx.now(), make_token(Tok::kLeaseExpiry, st.lease_gen));
  if (st.lease_expiry < ve) {
    ctx.set_timer(options_.heartbeat_period, make_token(Tok::kRenew, view));
  }
  propose_batch(ctx);
}

void LogProtocol::propose_batch(MachineContext& ctx) {
  ProcState& st = state_[ctx.self()];
  const std::uint32_t view = st.collect_view;
  const Config& cfg = config_for(st, view);
  const std::uint64_t m = cfg.members.size();
  // Slots with reported accepted values keep them (the per-slot Paxos
  // value rule); free slots take unplaced client commands in index order,
  // then triggered reconfig commands, count-matched against the config
  // values already in play.
  std::vector<std::uint8_t> used_client(options_.commands, 0);
  std::uint64_t config_known = 0;
  for (std::uint32_t s = 0; s < total_slots_; ++s) {
    if (st.best_has[s] == 0) continue;
    const std::uint32_t v = st.best_value[s];
    if (is_config_value(v)) {
      ++config_known;
    } else if (v >= options_.value_base &&
               v < options_.value_base + options_.commands) {
      used_client[v - options_.value_base] = 1;
    }
  }
  std::uint64_t next_client = 0;
  std::uint64_t next_config = config_known;
  bool any = false;
  for (std::uint32_t s = 0; s < total_slots_; ++s) {
    std::uint32_t value = 0;
    if (st.best_has[s] != 0) {
      value = st.best_value[s];
    } else {
      while (next_client < options_.commands && used_client[next_client] != 0) {
        ++next_client;
      }
      if (next_client < options_.commands) {
        value = options_.value_base + static_cast<std::uint32_t>(next_client);
        used_client[next_client] = 1;
      } else if (next_config < options_.reconfig.size() &&
                 next_config < st.triggered) {
        value = make_config_value(expected_add_[next_config] != 0, view + 2,
                                  options_.reconfig[next_config].rank);
        ++next_config;
        ++counters_.reconfig_commands;
      } else {
        continue;  // nothing admissible for this slot yet
      }
    }
    any = true;
    st.proposed[s] = 1;
    ++counters_.proposals;
    log_event(st, ctx.now(), LogEvent::Kind::kPropose, view, s, value);
    // Self-accept, then disseminate over the view's broadcast tree.
    Slot& sl = st.slots[s];
    if (!sl.decided) {
      sl.has_accepted = true;
      sl.accepted_view = view;
      sl.accepted_value = value;
    }
    st.acked[s].assign(n_, 0);
    st.acked[s][ctx.self()] = 1;
    st.ack_counts[s] = 1;
    relay_range(ctx, cfg, /*commit=*/false, view, s, value, 0, m);
  }
  if (any) {
    ctx.set_timer(repair_after_, make_token(Tok::kRepair, view));
  }
}

void LogProtocol::commit_slot(MachineContext& ctx, std::uint32_t slot) {
  ProcState& st = state_[ctx.self()];
  const std::uint32_t view = st.collect_view;
  const std::uint32_t value = st.slots[slot].accepted_value;
  st.committed[slot] = 1;
  ++counters_.commits;
  log_event(st, ctx.now(), LogEvent::Kind::kCommit, view, slot, value);
  if (!st.slots[slot].decided) decide(ctx, slot, value, view);
  // Dissemination is a leader write: fenced once the lease lapses (the
  // value stays chosen -- the next leader's VC-ACCs re-commit it).
  if (st.lease_live && ctx.now() < st.lease_expiry) {
    const Config& cfg = config_for(st, view);
    relay_range(ctx, cfg, /*commit=*/true, view, slot, value, 0,
                cfg.members.size());
  }
}

void LogProtocol::on_start(MachineContext& ctx) {
  ProcState& st = state_[ctx.self()];
  st.started = true;
  st.slots.assign(total_slots_, Slot{});
  Config init;
  init.from_view = 0;
  init.members.resize(n_);
  for (ProcId r = 0; r < n_; ++r) init.members[r] = r;
  st.configs.clear();
  st.configs.push_back(std::move(init));
  if (n_ == 1) {
    // Degenerate quorum of one: propose and decide every slot at once
    // (reconfiguration is rejected at resolve time for n == 1).
    for (std::uint32_t s = 0; s < total_slots_; ++s) {
      const std::uint32_t value = options_.value_base + s;
      ++counters_.proposals;
      log_event(st, ctx.now(), LogEvent::Kind::kPropose, 0, s, value);
      decide(ctx, s, value, 0);
    }
    return;
  }
  for (std::size_t i = 0; i < options_.reconfig.size(); ++i) {
    ctx.set_timer(options_.reconfig[i].at - ctx.now(),
                  make_token(Tok::kReconfig, i));
  }
  enter_view(ctx, 0);
}

void LogProtocol::on_receive(MachineContext& ctx, const Packet& packet) {
  const auto kind = static_cast<Wire>(packet.ctl_a >> 56);
  const auto sender = static_cast<ProcId>((packet.ctl_a >> 40) & 0xffffULL);
  const auto view = static_cast<std::uint32_t>((packet.ctl_a >> 20) & kField20);
  const auto aux = static_cast<std::uint64_t>(packet.ctl_a & kField20);
  ProcState& st = state_[ctx.self()];
  switch (kind) {
    case Wire::kVC: {
      const std::uint64_t sender_prefix = packet.ctl_b >> 32;
      const std::uint64_t acc_count = packet.ctl_b & 0xffffffffULL;
      // Uniform healing first: anyone whose prefix leads the caller's
      // transfers the missing decided suffix, done rank or not.
      if (st.commit_prefix > sender_prefix) {
        heal(ctx, sender, sender_prefix, view);
      }
      if (!st.collecting || st.collect_view != view || st.acquired) return;
      const Config& cfg = config_for(st, view);
      if (!is_member(cfg, sender)) return;  // observers don't count
      if (st.vc_from[sender] != 0) return;
      st.vc_from[sender] = 1;
      ++st.vc_count;
      st.expected_accs += acc_count;
      try_acquire(ctx);
      break;
    }
    case Wire::kVcAcc: {
      if (!st.collecting || st.collect_view != view || st.acquired) return;
      if (st.vc_from[sender] == 0) return;  // its VC was not counted
      const auto slot = static_cast<std::uint32_t>(packet.ctl_b >> 32);
      const auto value =
          static_cast<std::uint32_t>(packet.ctl_b & 0xffffffffULL);
      const auto acc_view = static_cast<std::uint32_t>(aux);
      if (slot < total_slots_ &&
          (st.best_has[slot] == 0 || acc_view > st.best_view[slot])) {
        st.best_has[slot] = 1;
        st.best_view[slot] = acc_view;
        st.best_value[slot] = value;
      }
      ++st.got_accs;
      try_acquire(ctx);
      break;
    }
    case Wire::kPropose: {
      const auto slot = static_cast<std::uint32_t>(packet.ctl_b >> 32);
      const auto value =
          static_cast<std::uint32_t>(packet.ctl_b & 0xffffffffULL);
      const Config& cfg = config_for(st, view);
      const std::uint64_t idx = member_index(cfg, ctx.self());
      if (idx < cfg.members.size()) {
        const std::uint64_t m = cfg.members.size();
        const std::uint64_t renamed = (idx + m - (view % m)) % m;
        relay_range(ctx, cfg, /*commit=*/false, view, slot, value, renamed,
                    aux);
      }
      if (slot >= total_slots_) return;
      if (view < st.promised) {
        // A deposed leader's write under a stale fencing token.
        ++counters_.stale_rejects;
        log_event(st, ctx.now(), LogEvent::Kind::kStaleReject, view, slot,
                  value);
        return;
      }
      st.promised = view;
      Slot& sl = st.slots[slot];
      if (sl.decided) {
        // Re-proposals of decided slots carry the chosen value
        // (agreement); acking them un-wedges commit quorums that
        // straddle already-decided acceptors.
        if (value != sl.dec_value) return;
      } else {
        sl.has_accepted = true;
        sl.accepted_view = view;
        sl.accepted_value = value;
      }
      ++counters_.acks_sent;
      do_send(ctx, leader_of(cfg, view), make_ack(ctx.self(), view, slot));
      break;
    }
    case Wire::kAck: {
      if (!st.collecting || st.collect_view != view || !st.acquired) return;
      const auto slot = static_cast<std::uint32_t>(packet.ctl_b);
      if (slot >= total_slots_ || st.proposed[slot] == 0 ||
          st.committed[slot] != 0) {
        return;  // late ack for a slot already resolved or never proposed
      }
      const Config& cfg = config_for(st, view);
      if (!is_member(cfg, sender)) return;
      if (st.acked[slot][sender] != 0) return;
      st.acked[slot][sender] = 1;
      ++st.ack_counts[slot];
      if (st.ack_counts[slot] >= quorum_of(cfg)) commit_slot(ctx, slot);
      break;
    }
    case Wire::kCommit: {
      const auto slot = static_cast<std::uint32_t>(packet.ctl_b >> 32);
      const auto value =
          static_cast<std::uint32_t>(packet.ctl_b & 0xffffffffULL);
      if (slot >= total_slots_) return;
      // Relay before deciding: deciding can advance the prefix and apply
      // a config, and the relay must use the sender's tree shape.
      const Config& cfg = config_for(st, view);
      const std::uint64_t idx = member_index(cfg, ctx.self());
      if (aux != 0 && idx < cfg.members.size()) {
        const std::uint64_t m = cfg.members.size();
        const std::uint64_t renamed = (idx + m - (view % m)) % m;
        relay_range(ctx, cfg, /*commit=*/true, view, slot, value, renamed,
                    aux);
      }
      if (!st.slots[slot].decided) decide(ctx, slot, value, view);
      break;
    }
    case Wire::kRenew: {
      const auto seq = static_cast<std::uint32_t>(packet.ctl_b);
      if (view < st.promised) return;  // stale leader: no extension
      st.promised = view;
      ++counters_.renew_acks_sent;
      do_send(ctx, sender, make_renew(Wire::kRenewAck, ctx.self(), view, seq));
      break;
    }
    case Wire::kRenewAck: {
      if (!st.collecting || st.collect_view != view || !st.acquired ||
          !st.lease_live) {
        return;
      }
      const auto seq = static_cast<std::uint32_t>(packet.ctl_b);
      if (seq != st.renew_seq) return;
      const Config& cfg = config_for(st, view);
      if (!is_member(cfg, sender)) return;
      ++st.renew_acks;
      if (st.renew_acks < quorum_of(cfg)) return;
      const Rational ve = view_end(view);
      Rational cand = st.renew_sent_at + options_.lease_length;
      if (ve < cand) cand = ve;
      if (!(cand > st.lease_expiry)) return;  // extension already covered
      st.lease_expiry = cand;
      ++st.lease_gen;  // deactivates the outstanding expiry timer
      ++counters_.lease_renewals;
      log_event(st, ctx.now(), LogEvent::Kind::kLeaseRenew, view, 0, 0, cand);
      ctx.set_timer(cand - ctx.now(),
                    make_token(Tok::kLeaseExpiry, st.lease_gen));
      break;
    }
  }
}

void LogProtocol::on_timer(MachineContext& ctx, std::uint64_t token) {
  ProcState& st = state_[ctx.self()];
  const auto kind = static_cast<Tok>(token >> 56);
  const std::uint64_t payload = token & ((1ULL << 56) - 1);
  switch (kind) {
    case Tok::kView:
      enter_view(ctx, static_cast<std::uint32_t>(payload));
      break;
    case Tok::kRepair: {
      const auto view = static_cast<std::uint32_t>(payload);
      if (!st.collecting || st.collect_view != view || !st.acquired) return;
      if (!st.lease_live || !(ctx.now() < st.lease_expiry)) return;  // fenced
      const Config& cfg = config_for(st, view);
      for (std::uint32_t s = 0; s < total_slots_; ++s) {
        if (st.proposed[s] == 0 || st.committed[s] != 0) continue;
        for (const ProcId p : cfg.members) {
          if (p == ctx.self() || st.acked[s][p] != 0) continue;
          ++counters_.proposal_repairs;
          do_send(ctx, p,
                  make_tree(Wire::kPropose, ctx.self(), view, s,
                            st.slots[s].accepted_value, /*hi=*/0));
        }
      }
      break;
    }
    case Tok::kLeaseExpiry: {
      if (payload != st.lease_gen || !st.lease_live) return;
      st.lease_live = false;
      if (done(st)) return;  // clean finish, not a lapse
      ++counters_.lease_expiries;
      log_event(st, ctx.now(), LogEvent::Kind::kLeaseExpire, st.collect_view,
                0, 0, st.lease_expiry);
      break;
    }
    case Tok::kRenew: {
      const auto view = static_cast<std::uint32_t>(payload);
      if (!st.collecting || st.collect_view != view || !st.acquired ||
          !st.lease_live || done(st)) {
        return;
      }
      // On-grid tie at the expiry: the write guard refuses the renewal
      // (timer wins, the reliable-bcast backoff boundary contract).
      if (!(ctx.now() < st.lease_expiry)) return;
      const Rational ve = view_end(view);
      if (!(st.lease_expiry < ve)) return;  // already capped at the boundary
      ++st.renew_seq;
      st.renew_acks = 1;  // the leader's own vote
      st.renew_sent_at = ctx.now();
      const Config& cfg = config_for(st, view);
      for (const ProcId p : cfg.members) {
        if (p == ctx.self()) continue;
        ++counters_.renews_sent;
        do_send(ctx, p, make_renew(Wire::kRenew, ctx.self(), view,
                                   st.renew_seq));
      }
      ctx.set_timer(options_.heartbeat_period, make_token(Tok::kRenew, view));
      break;
    }
    case Tok::kReconfig: {
      if (payload + 1 > st.triggered) st.triggered = payload + 1;
      break;
    }
  }
}

void LogProtocol::harvest(LogHarvest& out) const {
  out.counters.view_changes_sent += counters_.view_changes_sent;
  out.counters.vc_accs_sent += counters_.vc_accs_sent;
  out.counters.proposals += counters_.proposals;
  out.counters.proposal_relays += counters_.proposal_relays;
  out.counters.proposal_repairs += counters_.proposal_repairs;
  out.counters.acks_sent += counters_.acks_sent;
  out.counters.commits += counters_.commits;
  out.counters.commit_relays += counters_.commit_relays;
  out.counters.catchup_commits += counters_.catchup_commits;
  out.counters.renews_sent += counters_.renews_sent;
  out.counters.renew_acks_sent += counters_.renew_acks_sent;
  out.counters.lease_acquisitions += counters_.lease_acquisitions;
  out.counters.lease_renewals += counters_.lease_renewals;
  out.counters.lease_expiries += counters_.lease_expiries;
  out.counters.stale_rejects += counters_.stale_rejects;
  out.counters.decides += counters_.decides;
  out.counters.config_applies += counters_.config_applies;
  out.counters.reconfig_commands += counters_.reconfig_commands;
  for (std::uint64_t r = 0; r < n_; ++r) {
    const ProcState& st = state_[r];
    if (!st.started) continue;  // another shard's rank
    RankLog rl;
    rl.started = true;
    rl.commit_prefix = st.commit_prefix;
    rl.config_epoch = static_cast<std::uint32_t>(st.applied_configs);
    rl.members = st.configs.back().members;
    rl.slots.resize(total_slots_);
    for (std::uint32_t s = 0; s < total_slots_; ++s) {
      const Slot& sl = st.slots[s];
      rl.slots[s] =
          SlotDecision{sl.decided, sl.dec_value, sl.dec_view, sl.dec_at};
    }
    out.ranks[r] = std::move(rl);
    out.logs[r] = st.log;
  }
}

namespace {

// Timing shared by resolve_log_options and the runner's settle judgment.
struct LogTiming {
  Rational view_length;
  Rational heartbeat_period;
  Rational lease_length;
  std::uint32_t min_views = 1;  ///< views needed for the plan to settle
  bool bounded_losses = true;
};

LogTiming derive_log_timing(const PostalParams& params, const FaultPlan* plan,
                            const LogOptions& options) {
  const std::uint64_t n = params.n();
  const Rational& lambda = params.lambda();
  const std::uint64_t slots = options.commands + options.reconfig.size();
  LogTiming t;
  t.heartbeat_period = options.heartbeat_period;
  if (t.heartbeat_period == Rational(0)) {
    // The election heartbeat derivation: failure detection across the
    // whole ring within a few postal latencies.
    t.heartbeat_period = lambda * Rational(4);
    const Rational ring =
        Rational(2 * static_cast<std::int64_t>(n >= 1 ? n - 1 : 0));
    t.heartbeat_period = rmax(t.heartbeat_period, ring);
    if (t.heartbeat_period == Rational(0)) t.heartbeat_period = Rational(1);
  }
  t.lease_length = options.lease_length;
  if (t.lease_length == Rational(0)) {
    // One heartbeat plus the renewal round trip through serialized ports
    // at both ends while the batch is still draining (the same per-port
    // backlog bound the view length uses): an undisturbed leader always
    // renews before it lapses.
    t.lease_length = t.heartbeat_period + lambda * Rational(2) +
                     port_budget(n, slots) * Rational(2) +
                     Rational(static_cast<std::int64_t>(n)) +
                     options.timeout_slack;
  }
  t.view_length = options.view_length;
  if (t.view_length == Rational(0)) {
    // Tree down and commits back down (2 f), acks up, the repair wave and
    // its round trip, and the whole batch through the ports.
    GenFib fib(lambda);
    const Rational fn = n >= 2 ? fib.f(n) : Rational(1);
    t.view_length = fn * Rational(2) + lambda * Rational(6) +
                    port_budget(n, slots) * Rational(2) +
                    Rational(2 * static_cast<std::int64_t>(n)) +
                    options.timeout_slack * Rational(2);
  }
  std::int64_t loss_budget = 0;
  Rational last_disturbance{0};
  if (plan != nullptr) {
    for (const CrashFault& c : plan->crashes) {
      last_disturbance = rmax(last_disturbance, c.time);
    }
    for (const LatencySpike& s : plan->spikes) {
      last_disturbance = rmax(last_disturbance, s.until + s.extra);
    }
    for (const LinkLoss& l : plan->losses) {
      if (l.p > Rational(0)) {
        if (l.max_losses == 0) t.bounded_losses = false;
        loss_budget += static_cast<std::int64_t>(
            std::min<std::uint64_t>(l.max_losses, 64));
      }
    }
  }
  for (const ReconfigRequest& op : options.reconfig) {
    last_disturbance = rmax(last_disturbance, op.at);
  }
  // Views burned while disturbances (including reconfig triggers and
  // their activation margin) are still landing, plus one per eaten
  // message, plus a full leader rotation, plus slack.
  const std::int64_t disturbed = (last_disturbance / t.view_length).ceil() + 1;
  const std::int64_t rotation =
      static_cast<std::int64_t>(std::min<std::uint64_t>(n, 64));
  const std::int64_t views =
      disturbed + loss_budget + rotation + 4 +
      2 * static_cast<std::int64_t>(options.reconfig.size());
  const std::int64_t cap =
      options.reconfig.empty() ? (1LL << 20) - 1 : (1LL << 14) - 3;
  t.min_views =
      static_cast<std::uint32_t>(std::min<std::int64_t>(views, cap));
  return t;
}

// The last decision among the live members of `final_members`.
Rational last_final_decide(const std::vector<RankLog>& ranks,
                           const std::vector<ProcId>& final_members,
                           const std::vector<std::uint8_t>& crashed) {
  Rational latest{0};
  for (const ProcId r : final_members) {
    if (r < crashed.size() && crashed[r] != 0) continue;
    const RankLog& rl = ranks[r];
    if (!rl.started) continue;
    for (const SlotDecision& sd : rl.slots) {
      if (sd.decided) latest = rmax(latest, sd.at);
    }
  }
  return latest;
}

// The fault-free reference: the commit latency of the same resolved
// options with no plan attached (bench_log's trajectory quantity).
Rational fault_free_latency(const PostalParams& params,
                            const LogOptions& options,
                            const std::vector<ProcId>& final_members) {
  Machine machine(params, /*messages=*/1);
  LogProtocol protocol(params, options);
  static_cast<void>(machine.run(protocol));
  LogHarvest harvest;
  harvest.ranks.resize(params.n());
  harvest.logs.resize(params.n());
  protocol.harvest(harvest);
  const std::vector<std::uint8_t> crashed(params.n(), 0);
  return last_final_decide(harvest.ranks, final_members, crashed);
}

}  // namespace

LogOptions resolve_log_options(const PostalParams& params,
                               const FaultPlan* plan,
                               const LogOptions& options) {
  LogOptions resolved = options;
  if (!resolved.reconfig.empty()) {
    POSTAL_REQUIRE(params.n() >= 2,
                   "resolve_log_options: reconfiguration requires n >= 2");
  }
  // Throws on out-of-range ranks or a membership shrinking below 2.
  static_cast<void>(expected_toggles(params.n(), resolved.reconfig, nullptr));
  const LogTiming timing = derive_log_timing(params, plan, resolved);
  resolved.heartbeat_period = timing.heartbeat_period;
  resolved.lease_length = timing.lease_length;
  resolved.view_length = timing.view_length;
  if (resolved.max_views == 0) resolved.max_views = timing.min_views;
  return resolved;
}

LogReport run_log(const PostalParams& params, const FaultPlan* plan,
                  const LogOptions& options) {
  LogReport report;
  report.options = resolve_log_options(params, plan, options);
  const std::uint64_t n = params.n();
  report.quorum = static_cast<std::uint32_t>(n / 2 + 1);
  report.slots = report.options.commands + report.options.reconfig.size();
  static_cast<void>(
      expected_toggles(n, report.options.reconfig, &report.final_members));

  ParMachine machine(params, /*messages=*/1);
  machine.set_threads(report.options.threads == 0 ? 1 : report.options.threads);
  if (plan != nullptr) machine.attach_faults(*plan);
  LogFactory factory(params, report.options);
  report.result = machine.run(factory);
  report.counters = factory.harvest().counters;
  report.ranks = std::move(factory.harvest().ranks);

  for (std::uint64_t r = 0; r < n; ++r) {
    for (const LogEvent& e : factory.harvest().logs[r]) {
      report.events.push_back(e);
    }
  }
  std::stable_sort(report.events.begin(), report.events.end(),
                   [](const LogEvent& a, const LogEvent& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.rank < b.rank;
                   });

  std::vector<std::uint8_t> crashed(n, 0);
  if (plan != nullptr) {
    for (const CrashFault& c : plan->crashes) {
      if (c.proc < n && crashed[c.proc] == 0) {
        crashed[c.proc] = 1;
        report.crashed.push_back(c.proc);
      }
    }
    std::sort(report.crashed.begin(), report.crashed.end());
  }

  const LogTiming timing = derive_log_timing(params, plan, report.options);
  report.settled =
      timing.bounded_losses && report.options.max_views >= timing.min_views;

  report.views_used = 0;
  for (const LogEvent& e : report.events) {
    report.views_used = std::max(report.views_used, e.view);
  }

  report.commit_latency =
      last_final_decide(report.ranks, report.final_members, crashed);
  report.baseline =
      (plan == nullptr || plan->empty())
          ? report.commit_latency
          : fault_free_latency(params, report.options, report.final_members);
  report.recovery_time = report.commit_latency > report.baseline
                             ? report.commit_latency - report.baseline
                             : Rational(0);

  ValidatorOptions vopts;
  vopts.messages = 1;
  vopts.preholds = true;  // control-plane traffic: no payload causality
  vopts.fifo_receive = true;
  vopts.require_coverage = false;
  if (plan != nullptr) vopts.crashes = plan->crashes;
  report.validation = validate_schedule(report.result.schedule, params, vopts);

  report.check = check_log(report, params, plan);
  return report;
}

}  // namespace postal::coord
