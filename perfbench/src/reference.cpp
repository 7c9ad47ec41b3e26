// The reference job: a fixed mix of plain standard-library work that uses
// none of the library, timed next to the passes of a --trace 0 run so that
// a pass can be read relative to the host's speed at that moment.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kRecords = 1u << 19;  ///< records sorted, hashed and queued
constexpr std::uint32_t kTexts = 1u << 16;    ///< records formatted as text

/// splitmix64: the reference job's own generator, with a constant seed,
/// so the job is the same in every run whatever the workload seed.
std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

double Reference::run_s() {
  const std::int64_t start = now_ns();
  struct Item {
    std::uint64_t key;
    std::uint32_t rank;
  };
  std::uint64_t state = 0x5eed;
  std::vector<Item> items(kRecords);
  for (std::uint32_t i = 0; i < kRecords; ++i) items[i] = {splitmix(state) >> 24, i};
  // Sort, hash and look up, as the validator orders and indexes events.
  std::stable_sort(items.begin(), items.end(),
                   [](const Item& a, const Item& b) { return a.key < b.key; });
  std::unordered_map<std::uint64_t, std::uint32_t> index;
  for (const Item& item : items) index.emplace((item.key << 20) | item.rank, item.rank);
  std::uint64_t hits = 0;
  for (const Item& item : items) hits += index.count((item.key << 20) | item.rank);
  // A binary-tree broadcast on a binary heap, as the engines run events.
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::vector<std::uint64_t> arrival(kRecords);
  queue.emplace(0, 0);
  std::uint32_t informed = 1;
  while (!queue.empty()) {
    const auto [t, rank] = queue.top();
    queue.pop();
    arrival[rank] = t;
    for (std::uint64_t k = 0; k < 2 && informed < kRecords; ++k) queue.emplace(t + 2 + k, informed++);
  }
  // Text, as reports and violation messages are built.
  std::size_t chars = 0;
  for (std::uint32_t i = 0; i < kTexts; ++i) {
    std::ostringstream out;
    out << "rank " << items[i].rank << " at " << arrival[items[i].rank] << '/' << items[i].key;
    chars += out.str().size();
  }
  sink_ += hits + chars + arrival[kRecords - 1];
  return static_cast<double>(now_ns() - start) / 1e9;
}

}  // namespace perfbench
