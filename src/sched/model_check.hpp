// The Section 5 model variants' checker: more send ports, LogP's o/g
// windows, and "hierarchies of latency parameters" up to a per-link
// latency matrix (Cidon-Mokryn). validate_kported, validate_logp_schedule,
// simulate_hetero and simulate_two_level each build a ModelSpec and map its
// three clauses to their own wording.
//
// The model is the one sched/tick_check.hpp states, whose per-send loop and
// tick probe check_model runs (as validate_schedule does): a single-message
// broadcast from p0 that must inform every rank. The postal variants have
// w = 1; LogP has w = G = max(o, g) and lambda = 2o + L (docs/MODEL.md).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "sched/schedule.hpp"
#include "support/rational.hpp"

namespace postal {

/// A model variant as the checker reads it.
struct ModelSpec {
  std::uint64_t n = 1;          ///< ranks; p0 is the origin
  std::uint64_t send_ports = 1; ///< k: send windows one rank may have open at once
  Rational window{1};           ///< w: length of every port window, > 0
  /// lambda(src, dst) by rule: `intra` within a cluster of `cluster`
  /// consecutive ranks, `inter` across. cluster >= n (the default) is the
  /// scalar lambda = intra.
  std::uint64_t cluster = std::numeric_limits<std::uint64_t>::max();
  Rational intra{1};
  Rational inter{1};
  /// lambda(src, dst) by table: when non-empty, the n x n row-major matrix
  /// replaces the rule. Its diagonal is never read; a self-send under a
  /// matrix raises InvalidArgument.
  std::span<const Rational> matrix;
  /// The public entry point an OverflowError names when the times, lambda
  /// and w have no common int64 tick grid.
  const char* site = "check_model";
};

/// The wording of the three rule violations; every other message ("processor
/// id out of range", "pN never informed") is shared.
struct ModelClauses {
  const char* uninformed;  ///< sender does not hold the message yet
  const char* send_clash;  ///< more than k overlapping send windows
  const char* recv_clash;  ///< overlapping receive windows
};

/// Verdict of one check.
struct ModelReport {
  bool ok = false;
  std::vector<std::string> violations;
  Rational completion;  ///< latest arrival t + lambda over in-range sends
};

/// Check `schedule` under `spec`. Sends are visited in time order (ties in
/// schedule order); per send, in this order: ids in range, causality, the
/// k-port send rule, the receive window, then the receiver's hold time.
/// Coverage is checked last. Rejected windows are not kept.
[[nodiscard]] ModelReport check_model(const Schedule& schedule, const ModelSpec& spec,
                                      const ModelClauses& clauses);

}  // namespace postal
