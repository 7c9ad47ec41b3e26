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

/// Put one run on its tick grid: fold `grid`, lambda and every time in the
/// (optional) fault plan onto one 1/q, convert, and check the static
/// overflow headroom against `max_events`. Throws OverflowError naming
/// `site` when the grid, a tick count, or the headroom does not fit int64.
[[nodiscard]] TickRunSetup plan_tick_run(const PostalParams& params,
                                         const FaultInjector* injector,
                                         std::uint64_t max_events, const char* site,
                                         std::int64_t grid = 1);

}  // namespace postal
