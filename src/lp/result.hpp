// What one LP solve reports: its status, point, objective, work counters
// and, on optimality, the basis a nearby solve can warm-start from.
#pragma once

#include <memory>
#include <vector>

#include "lp/counters.hpp"

namespace rfp::lp {

namespace sparse {
struct Basis;
}  // namespace sparse

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterLimit, kTimeLimit };

[[nodiscard]] inline const char* toString(LpStatus s) noexcept {
  switch (s) {
    case LpStatus::kOptimal: return "optimal";
    case LpStatus::kInfeasible: return "infeasible";
    case LpStatus::kUnbounded: return "unbounded";
    case LpStatus::kIterLimit: return "iteration-limit";
    case LpStatus::kTimeLimit: return "time-limit";
  }
  return "?";
}

struct LpResult {
  LpStatus status = LpStatus::kIterLimit;
  double objective = 0.0;          ///< valid when status == kOptimal
  std::vector<double> x;           ///< primal values (model variable order)
  double seconds = 0.0;
  /// The work of this solve. `warm_start_hits` is 1 when a caller-provided
  /// basis was adopted, `dual_reopts` 1 when the dual simplex produced the
  /// result.
  LpCounters counters;
  /// On optimality: the optimal basis, reusable as a warm start for a
  /// nearby solve (branch & bound child nodes). Opaque.
  std::shared_ptr<const sparse::Basis> basis;
};

}  // namespace rfp::lp
