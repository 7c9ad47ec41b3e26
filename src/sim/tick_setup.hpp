// Shared tick-run setup: the probe that puts a simulation on its int64
// tick grid (docs/PERFORMANCE.md, docs/SIMULATION.md).
//
// Both event engines -- the sequential Machine and the sharded ParMachine
// -- execute on int64 ticks only. A run's grid is the smallest 1/q that
// represents lambda and every fault-plan time exactly; a static overflow
// bound against max_events then proves the hot loops' raw tick arithmetic
// cannot overflow. Keeping the probe in one place keeps the two engines'
// grids identical by construction, which the shard-count-invariance
// differential relies on. Machine re-runs the probe with a finer `grid`
// when a handler arms a timer off the current grid mid-run (the rescale).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "faults/injector.hpp"
#include "model/params.hpp"
#include "support/ticks.hpp"

namespace postal {

// Timer fire times are admitted to a tick queue only up to this cap, and
// the send paths check their port slot against it, so every tick value in
// a run stays below kTickCap + the per-event step budget < 2^62: all tick
// arithmetic in the hot loops is overflow-free without per-op checks.
inline constexpr Tick kTickCap = Tick{1} << 61;

/// A latency-spike window converted to ticks (faults/fault_plan.hpp).
struct SpikeTicks {
  Tick from = 0;
  Tick until = 0;
  Tick extra = 0;
};

/// Everything a tick run needs beyond the params: the resolution, lambda
/// in ticks, and the fault plan's times pre-converted.
struct TickRunSetup {
  std::int64_t q = 1;      ///< resolution denominator (tick = 1/q)
  Tick lambda_ticks = 0;   ///< lambda in ticks
  /// Per-processor crash tick (empty vector when no injector is attached).
  std::vector<std::optional<Tick>> crash_ticks;
  std::vector<SpikeTicks> spike_ticks;
};

/// One queued event of a tick run, the payload of both engines' queues: a
/// packet in flight or a local timer. A packet's Packet is {msg, ctl_a,
/// ctl_b}; a timer keeps its token in ctl_a. 40 bytes, so a queue slot with
/// its seq is 48.
struct InFlight {
  enum class Kind : std::uint8_t {
    kFlight,       ///< packet at its nominal arrival time
    kFlightFinal,  ///< packet re-queued at its serialized arrival time
    kTimer,        ///< local timer (src = dst = owner, token in ctl_a)
  };
  ProcId src = 0;
  ProcId dst = 0;
  MsgId msg = 0;
  Kind kind = Kind::kFlight;
  Tick send_start = 0;
  std::uint64_t ctl_a = 0;
  std::uint64_t ctl_b = 0;
};
static_assert(sizeof(InFlight) == 40, "an in-flight record is 40 bytes");

/// One rank's port bookkeeping in a tick run. The sharded engine writes a
/// rank's record only from the shard that owns the rank. A rank's send
/// count (MachineStats::port_busy) is not kept here: the schedule assembly
/// counts it from the send log.
struct RankPorts {
  Tick port_free = 0;  ///< output port idle from this tick on
  Tick recv_free = 0;  ///< input port idle from this tick on
};
static_assert(sizeof(RankPorts) == 16, "a rank's port record is 16 bytes");

/// Start a run under `injector`'s plan: reset its loss draws and open the
/// run's fault timeline with the plan's crashes, in rank order.
void begin_fault_run(FaultInjector& injector, std::uint64_t n, FaultStats& faults);

/// Up-front capacity of a run's delivery and send logs: the coverage
/// minimum of a broadcast, (n - 1) * messages, capped by the run's event
/// budget (every delivery is one queue event).
[[nodiscard]] inline std::size_t run_log_capacity(std::uint64_t n, std::uint32_t messages,
                                                  std::uint64_t max_events) {
  const std::uint64_t coverage = (n > 0 ? n - 1 : 0) * messages;
  return static_cast<std::size_t>(std::min(coverage, max_events));
}

/// Put one run on its tick grid: fold `grid`, lambda and every time in the
/// (optional) fault plan onto one 1/q, convert, and check the static
/// overflow headroom against `max_events`. Throws OverflowError naming
/// `site` when the grid, a tick count, or the headroom does not fit int64.
[[nodiscard]] TickRunSetup plan_tick_run(const PostalParams& params,
                                         const FaultInjector* injector,
                                         std::uint64_t max_events, const char* site,
                                         std::int64_t grid = 1);

}  // namespace postal
