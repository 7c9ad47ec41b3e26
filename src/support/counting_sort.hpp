// Stable counting passes over dense integer keys (docs/PERFORMANCE.md).
//
// With lambda = p/q every engine time is a multiple of 1/q, so the sort
// keys of a schedule -- a send's tick, its source rank -- are small dense
// integers. One counting pass orders n elements by such a key in
// O(n + span) with no comparisons and keeps equal keys in input order, so
// chained passes sort lexicographically (least significant key first).
// Users: Schedule::sort (by tick), RankBlockAssembly -- the schedule
// assembly behind Schedule::from_tick_log and ParMachine's result -- (each
// 2^15-rank block by src) and ParMachine's outbox seal (each run by tick).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace postal {

/// Widest key span a counting pass over `size` elements is worth: past it
/// the count array, not the elements, would dominate the pass, and callers
/// take a comparison sort instead.
[[nodiscard]] constexpr std::uint64_t counting_span_cap(std::uint64_t size) noexcept {
  return 2 * size + (std::uint64_t{1} << 16);
}

/// One stable counting pass. `visit(f)` calls f(element) for every input
/// element in input order, the same way on both of its calls; `key(e)`
/// returns e's bucket in [0, span). Every element is handed to
/// `place(slot, e)` once, with `slot` its rank in (key, input order). On
/// return `ends[k]` is one past bucket k's last slot, so bucket k holds the
/// slots [k == 0 ? 0 : ends[k - 1], ends[k]). `ends` is caller-owned so
/// arenas can keep its capacity.
template <typename Count, typename Visit, typename Key, typename Place>
void counting_pass(std::size_t span, std::vector<Count>& ends, const Visit& visit,
                   const Key& key, const Place& place) {
  ends.assign(span, 0);
  visit([&](auto& e) { ++ends[key(e)]; });
  Count offset = 0;
  for (Count& c : ends) {
    const Count count = c;
    c = offset;
    offset += count;
  }
  visit([&](auto& e) { place(ends[key(e)]++, e); });
}

}  // namespace postal
