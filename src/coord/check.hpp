// The coordination validator's verdict type (docs/COORDINATION.md).
// Split from coord/validator.hpp so the election/log reports can
// embed a verdict without a circular include.
#pragma once

#include <string>
#include <vector>

namespace postal::coord {

/// Result of checking a coordination run against its safety and (guarded)
/// liveness clauses; mirrors sim::SimReport's violation-string style.
struct CoordCheck {
  bool ok = false;
  /// True iff the guarded liveness clauses were applicable (the run was
  /// settled and, for the log, a quorum survived) and therefore checked.
  bool liveness_checked = false;
  std::vector<std::string> violations;

  /// "ok", or the joined violation text for test failure messages.
  [[nodiscard]] std::string summary() const;
};

}  // namespace postal::coord
