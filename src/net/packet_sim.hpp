// A store-and-forward packet-network simulator.
//
// This is the "hardware" substitute for the paper's 1992 machines: a
// concrete network under the complete-graph abstraction. The model per
// packet:
//
//   source software   -- occupies the sender's egress for `send_overhead`
//                        (one packet at a time, FIFO);
//   each routed hop   -- occupies the directed wire for `wire_time`
//                        (serialization; one packet at a time, FIFO), then
//                        flies for the wire's propagation delay, plus an
//                        optional uniform jitter in [0, jitter_max];
//   destination sw    -- occupies the receiver's ingress for
//                        `recv_overhead`; the packet is delivered when the
//                        ingress finishes.
//
// With send_overhead as the postal "unit of time", an idle network realizes
// an effective lambda of
//   (send_overhead + hops*(wire_time + propagation) + recv_overhead)
//     / send_overhead,
// which calibrate.hpp measures empirically instead of assuming.
//
// Fault injection (docs/FAULTS.md): attach_faults() arms a FaultPlan.
// Crashed nodes stop injecting, forwarding, and receiving at their exact
// crash time (a packet in flight dies at the first dead node it reaches),
// lossy wires eat serializations via the same seeded Bernoulli draws the
// Machine uses, and spike windows stretch propagation. All checks are
// guarded by a null injector test: fault-free runs are byte-identical to
// runs without a plan.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "faults/injector.hpp"
#include "model/params.hpp"
#include "net/topology.hpp"
#include "sched/schedule.hpp"
#include "support/prng.hpp"
#include "support/rational.hpp"

namespace postal {

/// How packets traverse multi-hop paths.
enum class Switching {
  kStoreAndForward,  ///< each hop waits for the whole packet: per-hop cost
                     ///< wire_time + propagation
  kCutThrough,       ///< the head streams ahead once received: per-hop cost
                     ///< header_time + propagation, full wire_time paid once
                     ///< at the tail
};

/// Tunables of the packet network.
struct NetConfig {
  Rational send_overhead{1};   ///< sender software time per packet (> 0)
  Rational recv_overhead{1};   ///< receiver software time per packet (> 0)
  Rational wire_time{1};       ///< per-hop serialization time (> 0)
  Rational header_time{1, 4};  ///< cut-through header latching time
                               ///< (0 < header_time <= wire_time)
  Rational jitter_max{0};      ///< max per-hop jitter (0 disables; >= 0)
  Switching switching = Switching::kStoreAndForward;
  std::uint64_t jitter_seed = 0x9e3779b9;

  void validate() const;
};

/// Serialization occupancy of one directed wire over a run.
struct WireUse {
  NodeId from = 0;
  NodeId to = 0;
  std::uint64_t packets = 0;  ///< serializations performed on this wire
  Rational busy;              ///< total occupancy (packets * wire_time, exact)
};

/// Utilization and event counters of one PacketNetwork::run(), collected
/// for free while the run executes. obs::record_net_stats folds them into
/// a metrics registry (per-wire utilization = busy / makespan); see
/// docs/OBSERVABILITY.md for the derived metric names.
struct NetRunStats {
  std::uint64_t packets_delivered = 0;  ///< end-to-end deliveries
  std::uint64_t hops_total = 0;         ///< wire traversals over all packets
  std::uint64_t jitter_draws = 0;       ///< PRNG draws (0 with jitter disabled)
  Rational egress_busy_total;           ///< sender software occupancy, summed
  Rational ingress_busy_total;          ///< receiver software occupancy, summed
  Rational makespan;                    ///< latest delivery time (0 when idle)
  std::vector<WireUse> wires;           ///< per-wire use, sorted by (from, to)
  FaultStats faults;                    ///< faults applied (zero without a plan)
};

/// One completed end-to-end packet delivery.
struct NetDelivery {
  NodeId src = 0;
  NodeId dst = 0;
  MsgId msg = 0;
  Rational requested;  ///< when the sender asked to transmit
  Rational delivered;  ///< when the receiver software finished
};

/// The simulator. Submit traffic, then run() to quiescence.
class PacketNetwork {
 public:
  PacketNetwork(Topology topology, NetConfig config);

  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] const NetConfig& config() const noexcept { return config_; }

  /// Arm `plan` for subsequent run() calls (validated against n; copied).
  /// Plan times are in the network's own clock -- when replaying a postal
  /// schedule, scale postal times by send_overhead to match. Crashes halt a
  /// node's software and forwarding; LinkLoss entries apply per directed
  /// wire (each serialization draws once); spikes stretch propagation of
  /// hops whose serialization starts inside the window. Attaching an empty
  /// plan is equivalent to attaching none.
  void attach_faults(const FaultPlan& plan);

  /// Remove any attached plan; subsequent runs are fault-free.
  void detach_faults() noexcept { injector_.reset(); }

  /// True iff a (non-empty) plan is attached.
  [[nodiscard]] bool has_faults() const noexcept { return injector_ != nullptr; }

  /// Ask node `src` to send one packet to `dst` at time `t`.
  void submit(NodeId src, NodeId dst, MsgId msg, const Rational& t);

  /// Replay a postal schedule: postal time u is mapped to real time
  /// u * send_overhead (the postal unit is one send).
  void submit_schedule(const Schedule& schedule);

  /// Process all submitted traffic; returns deliveries sorted by delivery
  /// time. Resets submitted traffic afterwards (the network object can be
  /// reused). The run executes on int64 ticks at the resolution 1/q that
  /// represents every config, link, submit and fault-plan time exactly
  /// (docs/PERFORMANCE.md); throws OverflowError, leaving the submitted
  /// traffic in place, when that grid cannot fit int64.
  [[nodiscard]] std::vector<NetDelivery> run();

  /// Stats of the most recent run() (empty before the first run).
  [[nodiscard]] const NetRunStats& last_run_stats() const noexcept {
    return stats_;
  }

 private:
  struct Pending {
    NodeId src;
    NodeId dst;
    MsgId msg;
    Rational t;
  };

  Topology topology_;
  NetConfig config_;
  std::unique_ptr<FaultInjector> injector_;
  std::vector<Pending> pending_;
  NetRunStats stats_;
};

/// Latest delivery time in a run (0 when empty).
[[nodiscard]] Rational net_makespan(const std::vector<NetDelivery>& deliveries);

}  // namespace postal
