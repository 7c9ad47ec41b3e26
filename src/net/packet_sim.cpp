#include "net/packet_sim.hpp"

#include <algorithm>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "sim/tick_queue.hpp"

namespace postal {

void NetConfig::validate() const {
  POSTAL_REQUIRE(send_overhead > Rational(0), "NetConfig: send_overhead must be > 0");
  POSTAL_REQUIRE(recv_overhead > Rational(0), "NetConfig: recv_overhead must be > 0");
  POSTAL_REQUIRE(wire_time > Rational(0), "NetConfig: wire_time must be > 0");
  POSTAL_REQUIRE(header_time > Rational(0) && header_time <= wire_time,
                 "NetConfig: need 0 < header_time <= wire_time");
  POSTAL_REQUIRE(jitter_max >= Rational(0), "NetConfig: jitter_max must be >= 0");
}

PacketNetwork::PacketNetwork(Topology topology, NetConfig config)
    : topology_(std::move(topology)), config_(std::move(config)) {
  config_.validate();
}

void PacketNetwork::attach_faults(const FaultPlan& plan) {
  if (plan.empty()) {
    injector_.reset();
    return;
  }
  injector_ = std::make_unique<FaultInjector>(plan, topology_.n());
}

void PacketNetwork::submit(NodeId src, NodeId dst, MsgId msg, const Rational& t) {
  POSTAL_REQUIRE(src < topology_.n() && dst < topology_.n(),
                 "PacketNetwork::submit: node out of range");
  POSTAL_REQUIRE(src != dst, "PacketNetwork::submit: src == dst");
  POSTAL_REQUIRE(t >= Rational(0), "PacketNetwork::submit: time must be >= 0");
  pending_.push_back(Pending{src, dst, msg, t});
}

void PacketNetwork::submit_schedule(const Schedule& schedule) {
  for (const SendEvent& e : schedule.events()) {
    submit(e.src, e.dst, e.msg, e.t * config_.send_overhead);
  }
}

namespace {

// The run loop carries every time as int64 ticks on one 1/q grid that
// probe_net_ticks folds over the whole run (docs/PERFORMANCE.md). Jitter
// draws and per-wire loss counters are consumed in event order, and
// FaultEvents/deliveries are recorded with exactly-converted times.

struct Traveling {
  NodeId at;   ///< node the packet's head has reached
  NodeId src;
  NodeId dst;
  MsgId msg;
  Tick requested;
  Tick tail;  ///< time the packet is fully present at `at`
  bool injected;  ///< false while still waiting in the sender's software
};

/// Per-spike window in ticks: a hop whose serialization starts in
/// [from, until) is stretched.
struct NetSpikeTicks {
  Tick from = 0;
  Tick until = 0;
  Tick extra = 0;
};

struct TickNetOps {
  TickDomain dom{1};
  Tick send_oh = 0;
  Tick recv_oh = 0;
  Tick wire = 0;
  Tick header = 0;
  Tick jitter_quantum = 0;  ///< jitter_max / 64 in ticks
  std::vector<std::optional<Tick>> crash;  ///< sized n when a plan is armed
  std::vector<NetSpikeTicks> spikes;

  [[nodiscard]] Rational rat(Tick t) const { return dom.to_rational(t); }
  [[nodiscard]] Tick prop(const Rational& p) const {
    const std::optional<Tick> t = dom.to_ticks(p);
    POSTAL_CHECK(t.has_value());  // on the grid probe_net_ticks folded
    return *t;
  }
  [[nodiscard]] Tick jitter_amount(std::int64_t k) const {
    return jitter_quantum * k;
  }
  [[nodiscard]] bool crashed(NodeId p, Tick t) const {
    const auto& c = crash[p];
    return c.has_value() && t >= *c;
  }
  [[nodiscard]] Tick spike_extra(Tick start) const {
    Tick extra = 0;
    for (const NetSpikeTicks& s : spikes) {
      if (start >= s.from && start < s.until) extra += s.extra;
    }
    return extra;
  }
};

/// Bucketed monotone queue under the (time, seq) contract: seqs are
/// stamped in push order, so equal times pop FIFO.
struct TickNetQueue {
  TickEventQueue<Traveling> q;
  std::uint64_t seq = 0;
  void push(Tick t, Traveling v) { q.push(t, seq++, std::move(v)); }
  [[nodiscard]] bool empty() const { return q.empty(); }
  std::pair<Tick, Traveling> pop() { return q.pop(); }
};

/// Everything probe_net_ticks must pre-convert for a tick run.
struct NetTickPlan {
  TickNetOps ops;
  std::vector<Tick> submit;  ///< pending_[i].t in ticks, same order
};

std::vector<NetDelivery> run_net(const Topology& topology, const NetConfig& config,
                                 FaultInjector* injector, const TickNetOps& ops,
                                 TickNetQueue& queue, NetRunStats& stats) {
  const std::uint64_t n = topology.n();

  std::vector<Tick> egress_free(n, 0);
  std::vector<Tick> ingress_free(n, 0);
  std::unordered_map<std::uint64_t, Tick> wire_free;
  std::unordered_map<std::uint64_t, WireUse> wire_use;
  auto wire_key = [n](NodeId u, NodeId v) {
    return static_cast<std::uint64_t>(u) * n + v;
  };
  auto wire_propagation = [&topology](NodeId u, NodeId v) -> const Rational& {
    for (const NetLink& link : topology.links(u)) {
      if (link.to == v) return link.propagation;
    }
    throw LogicError("PacketNetwork: routed over a nonexistent wire");
  };

  Xoshiro256 rng(config.jitter_seed);
  const bool jitter_on = config.jitter_max > Rational(0);

  std::uint64_t egress_count = 0;
  std::uint64_t ingress_count = 0;
  std::vector<NetDelivery> deliveries;
  while (!queue.empty()) {
    auto [now, pkt] = queue.pop();
    if (!pkt.injected) {
      // Sender software: one packet at a time.
      const Tick start = std::max(egress_free[pkt.src], now);
      if (injector && ops.crashed(pkt.src, start)) {
        // The sender died before its egress slot started: never injected.
        ++stats.faults.sends_suppressed;
        stats.faults.events.push_back(FaultEvent{
            FaultEvent::Kind::kSendSuppressed, ops.rat(start), pkt.src, pkt.dst});
        continue;
      }
      egress_free[pkt.src] = start + ops.send_oh;
      ++egress_count;
      pkt.injected = true;
      pkt.tail = start + ops.send_oh;
      queue.push(start + ops.send_oh, pkt);
      continue;
    }
    if (pkt.at == pkt.dst) {
      // Receiver software: one packet at a time; needs the whole packet.
      const Tick start = std::max(ingress_free[pkt.dst], pkt.tail);
      const Tick done = start + ops.recv_oh;
      ingress_free[pkt.dst] = done;
      ++ingress_count;
      if (injector && ops.crashed(pkt.dst, done)) {
        // Dead before the receive completed: the ingress hardware latched
        // the packet (port time is charged) but the software never saw it.
        ++stats.faults.drops_crash;
        stats.faults.events.push_back(FaultEvent{
            FaultEvent::Kind::kDropCrash, ops.rat(done), pkt.dst, pkt.src});
        continue;
      }
      deliveries.push_back(NetDelivery{pkt.src, pkt.dst, pkt.msg,
                                       ops.rat(pkt.requested), ops.rat(done)});
      continue;
    }
    // Forward one hop: serialize onto the wire, then fly. Store-and-forward
    // begins once the whole packet is present; cut-through streams the head
    // onward after header_time, paying the full wire_time only at the tail.
    const NodeId next = topology.next_hop(pkt.at, pkt.dst);
    Tick& free_at = wire_free.try_emplace(wire_key(pkt.at, next), 0).first->second;
    const Tick ready =
        config.switching == Switching::kStoreAndForward ? pkt.tail : now;
    const Tick start = std::max(free_at, ready);
    if (injector && ops.crashed(pkt.at, start)) {
      // The relay died before it could serialize: the packet dies with it.
      ++stats.faults.drops_crash;
      stats.faults.events.push_back(FaultEvent{FaultEvent::Kind::kDropCrash,
                                               ops.rat(start), pkt.at, pkt.dst});
      continue;
    }
    free_at = start + ops.wire;
    ++stats.hops_total;
    WireUse& use = wire_use.try_emplace(wire_key(pkt.at, next),
                                        WireUse{pkt.at, next, 0, Rational(0)})
                       .first->second;
    ++use.packets;
    Tick jit = 0;
    if (jitter_on) {
      ++stats.jitter_draws;
      // Uniform multiple of jitter_max/64 keeps arithmetic exactly rational.
      const auto k = static_cast<std::int64_t>(rng.uniform(0, 64));
      jit = ops.jitter_amount(k);
    }
    Tick flight = ops.prop(wire_propagation(pkt.at, next)) + jit;
    if (injector && injector->has_spikes()) {
      const Tick extra = ops.spike_extra(start);
      if (extra > 0) {
        flight += extra;
        ++stats.faults.spikes_applied;
        stats.faults.events.push_back(
            FaultEvent{FaultEvent::Kind::kSpike, ops.rat(start), pkt.at, next});
      }
    }
    if (injector && injector->has_losses() && injector->lose(pkt.at, next)) {
      // The wire ate the serialization: occupancy is charged, nothing
      // comes out the far end.
      ++stats.faults.drops_loss;
      stats.faults.events.push_back(FaultEvent{FaultEvent::Kind::kDropLoss,
                                               ops.rat(start + ops.wire), next,
                                               pkt.at});
      continue;
    }
    pkt.tail = start + ops.wire + flight;
    const Tick head = config.switching == Switching::kCutThrough
                          ? start + ops.header + flight
                          : pkt.tail;
    pkt.at = next;
    queue.push(head, pkt);
  }

  // Busy totals are integer occupancy counts folded exactly at the end --
  // identical to summing per event (Rational arithmetic is exact), cheaper.
  stats.egress_busy_total =
      Rational(static_cast<std::int64_t>(egress_count)) * config.send_overhead;
  stats.ingress_busy_total =
      Rational(static_cast<std::int64_t>(ingress_count)) * config.recv_overhead;
  stats.wires.reserve(wire_use.size());
  for (auto& kv : wire_use) {
    kv.second.busy =
        Rational(static_cast<std::int64_t>(kv.second.packets)) * config.wire_time;
    stats.wires.push_back(kv.second);
  }
  std::sort(stats.wires.begin(), stats.wires.end(),
            [](const WireUse& a, const WireUse& b) {
              return std::tie(a.from, a.to) < std::tie(b.from, b.to);
            });

  std::sort(deliveries.begin(), deliveries.end(),
            [](const NetDelivery& a, const NetDelivery& b) {
              if (a.delivered != b.delivered) return a.delivered < b.delivered;
              return std::tie(a.src, a.dst, a.msg) < std::tie(b.src, b.dst, b.msg);
            });
  stats.packets_delivered = deliveries.size();
  stats.makespan = net_makespan(deliveries);
  return deliveries;
}

/// Put the whole run on one int64 tick grid: fold a common denominator q
/// over every config time, link propagation, submit time, and fault-plan
/// time, convert them all, and check a generous static bound so the hot
/// loop needs no overflow checks. Raises OverflowError when the grid, a
/// tick count, or the bound does not fit int64.
NetTickPlan probe_net_ticks(const Topology& topology, const NetConfig& config,
                            const FaultInjector* injector,
                            const std::vector<Rational>& submits) {
  constexpr const char* kSite = "PacketNetwork::run";
  std::int64_t q = 1;
  for (const Rational* r : {&config.send_overhead, &config.recv_overhead,
                            &config.wire_time, &config.header_time}) {
    q = fold_grid(q, *r, kSite);
  }
  const bool jitter_on = config.jitter_max > Rational(0);
  Rational jitter_quantum(0);
  if (jitter_on) {
    // Jitter draws are multiples of jitter_max/64; fold that quantum.
    std::int64_t d64 = 0;
    if (__builtin_mul_overflow(config.jitter_max.den(), std::int64_t{64}, &d64)) {
      throw_grid_overflow(kSite, "jitter quantum denominator exceeds int64");
    }
    jitter_quantum = Rational(config.jitter_max.num(), d64);
    q = fold_grid(q, jitter_quantum, kSite);
  }
  const std::uint64_t n = topology.n();
  for (NodeId u = 0; u < n; ++u) {
    for (const NetLink& link : topology.links(u)) {
      q = fold_grid(q, link.propagation, kSite);
    }
  }
  for (const Rational& t : submits) q = fold_grid(q, t, kSite);
  if (injector) {
    for (NodeId p = 0; p < n; ++p) {
      const auto& c = injector->crash_time(p);
      if (c.has_value()) q = fold_grid(q, *c, kSite);
    }
    for (const LatencySpike& s : injector->plan().spikes) {
      q = fold_grid(fold_grid(fold_grid(q, s.from, kSite), s.until, kSite), s.extra,
                    kSite);
    }
  }

  NetTickPlan plan;
  plan.ops.dom = TickDomain(q);
  const TickDomain& dom = plan.ops.dom;
  plan.ops.send_oh = grid_ticks(dom, config.send_overhead, kSite);
  plan.ops.recv_oh = grid_ticks(dom, config.recv_overhead, kSite);
  plan.ops.wire = grid_ticks(dom, config.wire_time, kSite);
  plan.ops.header = grid_ticks(dom, config.header_time, kSite);
  if (jitter_on) plan.ops.jitter_quantum = grid_ticks(dom, jitter_quantum, kSite);

  __extension__ using int128 = __int128;
  int128 max_prop = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (const NetLink& link : topology.links(u)) {
      max_prop = std::max<int128>(max_prop, grid_ticks(dom, link.propagation, kSite));
    }
  }
  int128 max_submit = 0;
  plan.submit.reserve(submits.size());
  for (const Rational& t : submits) {
    plan.submit.push_back(grid_ticks(dom, t, kSite));
    max_submit = std::max<int128>(max_submit, plan.submit.back());
  }
  int128 extra_sum = 0;
  if (injector) {
    plan.ops.crash.resize(n);
    for (NodeId p = 0; p < n; ++p) {
      const auto& c = injector->crash_time(p);
      if (c.has_value()) plan.ops.crash[p] = grid_ticks(dom, *c, kSite);
    }
    for (const LatencySpike& s : injector->plan().spikes) {
      plan.ops.spikes.push_back(NetSpikeTicks{grid_ticks(dom, s.from, kSite),
                                              grid_ticks(dom, s.until, kSite),
                                              grid_ticks(dom, s.extra, kSite)});
      extra_sum += plan.ops.spikes.back().extra;
    }
  }

  // Every packet advances some clock by at most `step` per queue event and
  // visits at most n nodes, so all times stay below this product; only
  // runs that leave int64 headroom proceed (then the hot loop's raw adds
  // cannot overflow).
  const int128 step = static_cast<int128>(q) + plan.ops.send_oh + plan.ops.recv_oh +
                      plan.ops.wire + max_prop +
                      64 * static_cast<int128>(plan.ops.jitter_quantum) + extra_sum;
  const int128 bound =
      max_submit + (static_cast<int128>(submits.size()) + 1) *
                       (static_cast<int128>(n) + 4) * step;
  if (bound >= (int128{1} << 62)) {
    throw_grid_overflow(kSite, "tick bound for the traffic exceeds int64");
  }
  return plan;
}

}  // namespace

std::vector<NetDelivery> PacketNetwork::run() {
  stats_ = NetRunStats();
  std::vector<Rational> submits;
  submits.reserve(pending_.size());
  for (const Pending& p : pending_) submits.push_back(p.t);
  const NetTickPlan plan = probe_net_ticks(topology_, config_, injector_.get(), submits);
  if (injector_) {
    injector_->reset();
    for (NodeId p = 0; p < topology_.n(); ++p) {
      const auto& c = injector_->crash_time(p);
      if (c.has_value()) {
        ++stats_.faults.crashes_applied;
        stats_.faults.events.push_back(
            FaultEvent{FaultEvent::Kind::kCrash, *c, p, p});
      }
    }
  }

  TickNetQueue queue;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const Pending& p = pending_[i];
    const Tick t = plan.submit[i];
    queue.push(t, Traveling{p.src, p.src, p.dst, p.msg, t, t, /*injected=*/false});
  }
  pending_.clear();
  return run_net(topology_, config_, injector_.get(), plan.ops, queue, stats_);
}

Rational net_makespan(const std::vector<NetDelivery>& deliveries) {
  Rational latest(0);
  for (const NetDelivery& d : deliveries) latest = rmax(latest, d.delivered);
  return latest;
}

}  // namespace postal
