#include "sched/model_check.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <sstream>

#include "support/ticks.hpp"

namespace postal {

namespace {

// The loop runs on int64 ticks of one grid 1/Q (docs/PERFORMANCE.md): Q
// folds the schedule's grid, w and every lambda the spec can return, and a
// 128-bit bound proves no tick expression of the loop can overflow.

/// A rank that does not hold the message yet.
constexpr Tick kNever = std::numeric_limits<Tick>::max();

/// lambda(src, dst) in ticks by the two-level rule.
struct RuleLatency {
  std::uint64_t cluster;
  Tick intra;
  Tick inter;

  Tick operator()(ProcId a, ProcId b) const {
    return intra == inter || a / cluster == b / cluster ? intra : inter;
  }
};

/// lambda(src, dst) in ticks by the n x n table, converted per send: the
/// probe folded every entry a send reads into the grid.
struct MatrixLatency {
  std::uint64_t n;
  std::span<const Rational> matrix;
  TickDomain dom;

  Tick operator()(ProcId a, ProcId b) const {
    return dom.to_ticks(matrix[a * n + b]).value();
  }
};

/// The checker's grid: ticks of 1/Q, Q / q of them per schedule tick.
struct Grid {
  TickDomain dom{1};
  Tick scale = 1;
  Tick window = 0;
};

// Send port. Sends are visited in tick order, so a rank's accepted starts
// are ascending and the windows still open at t are its latest ones. Every
// window is w long, so the (k+1)-th overlapping window appears exactly when
// the k-th latest accepted start is still open at t: sim/validator.cpp's
// one-window argument with k slots.
bool send_clash(std::vector<Tick>& starts, Tick t, Tick w, std::uint64_t k) {
  if (starts.size() >= k && starts[starts.size() - k] + w > t) return true;
  starts.push_back(t);
  return false;
}

// Receive port. Accepted windows are pairwise disjoint and all w long, so
// their sorted starts are at least w apart and a new [lo, lo + w) can only
// overlap the first start >= lo or the one before it. Under a constant
// lambda a port's windows come in nondecreasing lo and the accept is a
// push_back.
bool receive_clash(std::vector<Tick>& starts, Tick lo, Tick w) {
  auto next = starts.end();
  if (!starts.empty() && starts.back() > lo) {
    next = std::lower_bound(starts.begin(), starts.end(), lo);
  }
  if (next != starts.end() && *next < lo + w) return true;
  if (next != starts.begin() && *std::prev(next) + w > lo) return true;
  starts.insert(next, lo);
  return false;
}

template <class Latency>
void check_events(const Schedule& schedule, const std::vector<std::size_t>& order,
                  const ModelSpec& spec, const Grid& grid, const Latency& lambda,
                  const ModelClauses& clauses, ModelReport& report) {
  const std::uint64_t n = spec.n;
  const Tick w = grid.window;
  auto violate = [&report](std::string text) {
    report.violations.push_back(std::move(text));
  };
  std::vector<Tick> informed(n, kNever);
  informed[0] = 0;
  std::vector<std::vector<Tick>> sends(n);
  std::vector<std::vector<Tick>> receives(n);
  Tick completion = 0;

  const std::vector<TickSend>& records = schedule.records();
  for (std::size_t k = 0; k < records.size(); ++k) {
    const TickSend& e = records[order.empty() ? k : order[k]];
    // The "[event] " prefix of a violation, formatted only when one fires.
    auto who = [&e, &schedule] {
      std::ostringstream oss;
      oss << "[" << SendEvent{e.src, e.dst, e.msg, Rational(e.tick, schedule.q())}
          << "] ";
      return oss.str();
    };
    if (e.src >= n || e.dst >= n) {
      violate(who() + "processor id out of range");
      continue;
    }
    const Tick t = e.tick * grid.scale;
    if (t < informed[e.src]) violate(who() + clauses.uninformed);
    if (send_clash(sends[e.src], t, w, spec.send_ports)) {
      violate(who() + clauses.send_clash);
    }
    const Tick arrive = t + lambda(e.src, e.dst);
    if (receive_clash(receives[e.dst], arrive - w, w)) {
      violate(who() + clauses.recv_clash);
    }
    informed[e.dst] = std::min(informed[e.dst], arrive);
    completion = std::max(completion, arrive);
  }
  for (ProcId p = 0; p < n; ++p) {
    if (informed[p] == kNever) violate("p" + std::to_string(p) + " never informed");
  }
  report.completion = grid.dom.to_rational(completion);
}

}  // namespace

ModelReport check_model(const Schedule& schedule, const ModelSpec& spec,
                        const ModelClauses& clauses) {
  const std::uint64_t n = spec.n;
  const char* site = spec.site;
  POSTAL_REQUIRE(n >= 1, "check_model: need at least one rank");
  POSTAL_REQUIRE(spec.send_ports >= 1, "check_model: need at least one send port");
  POSTAL_REQUIRE(spec.window > Rational(0), "check_model: the port window must be > 0");
  POSTAL_REQUIRE(spec.cluster >= 1, "check_model: cluster size must be >= 1");
  const bool by_table = !spec.matrix.empty();
  POSTAL_REQUIRE(!by_table || spec.matrix.size() == n * n,
                 "check_model: the latency matrix must be n x n");

  // Fold the schedule's grid, w and every lambda a send can read onto one
  // grid. Under a matrix those are the entries of the in-range sends only,
  // so the probe is O(sends), not O(n^2).
  const std::vector<TickSend>& records = schedule.records();
  std::int64_t q = fold_grid(schedule.q(), spec.window, site);
  Rational max_lambda = by_table ? Rational(0) : spec.intra;
  if (by_table) {
    for (const TickSend& e : records) {
      if (e.src >= n || e.dst >= n) continue;
      POSTAL_REQUIRE(e.src != e.dst, "check_model: a latency matrix has no self-latency");
      const Rational& lambda = spec.matrix[e.src * n + e.dst];
      q = fold_grid(q, lambda, site);
      max_lambda = rmax(max_lambda, lambda);
    }
  } else {
    q = fold_grid(q, spec.intra, site);
    if (spec.cluster < n) {
      q = fold_grid(q, spec.inter, site);
      max_lambda = rmax(max_lambda, spec.inter);
    }
  }
  Grid grid;
  grid.dom = TickDomain(q);
  grid.scale = q / schedule.q();
  grid.window = grid_ticks(grid.dom, spec.window, site);

  // Bound every tick the loop forms: the latest send scaled to the grid,
  // plus the largest lambda, plus one window.
  // Tick order: every arrival that enables a send at t was recorded at a
  // send before t.
  const std::vector<std::size_t> order = tick_visit_order(records);
  const Tick max_tick =
      records.empty() ? 0
                      : records[order.empty() ? records.size() - 1 : order.back()].tick;
  __extension__ using int128 = __int128;
  const int128 bound = static_cast<int128>(max_tick) * grid.scale +
                       grid_ticks(grid.dom, max_lambda, site) + grid.window;
  if (bound >= (int128{1} << 62)) {
    throw_grid_overflow(site, "tick bound for the schedule exceeds int64");
  }

  ModelReport report;
  if (by_table) {
    check_events(schedule, order, spec, grid, MatrixLatency{n, spec.matrix, grid.dom},
                 clauses, report);
  } else {
    const Tick intra = grid_ticks(grid.dom, spec.intra, site);
    const Tick inter = spec.cluster < n ? grid_ticks(grid.dom, spec.inter, site) : intra;
    check_events(schedule, order, spec, grid, RuleLatency{spec.cluster, intra, inter},
                 clauses, report);
  }
  report.ok = report.violations.empty();
  return report;
}

}  // namespace postal
