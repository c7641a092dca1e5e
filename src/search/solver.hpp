// Exact branch-and-bound floorplanner for columnar devices.
//
// Solves the same problem semantics as the MILP formulations in src/fp —
// cross-checked against them by tests on small instances — but enumerates
// tile-aligned rectangles directly, which is what makes the paper-scale
// SDR2/SDR3 experiments (5-hour commercial-solver runs in the paper) finish
// in seconds-to-minutes here (DESIGN.md §3 substitution 2).
//
// Two objective modes:
//  * kLexicographic — the evaluation's objective (Sec. VI): minimize wasted
//    frames first, then wire length; relocation requests are hard
//    constraints (Sec. IV).
//  * kWeighted — Eq. 14: q1·WL/WLmax + q2·P/Pmax + q3·R/Rmax + q4·RL/RLmax;
//    soft relocation requests may stay unplaced at cost cw_c (Sec. V).
//
// The search is exhaustive with admissible bounds, so a completed run is a
// proof of optimality (or of infeasibility).
#pragma once

#include <atomic>
#include <vector>

#include "model/floorplan.hpp"
#include "model/outcome.hpp"
#include "model/problem.hpp"

namespace rfp::driver {
class SharedIncumbent;  // driver/incumbent.hpp
}

namespace rfp::telemetry {
struct Context;  // support/telemetry/trace.hpp
}

namespace rfp::search {

enum class ObjectiveMode { kLexicographic, kWeighted };

/// perfbench's name for the floorplanning status; it goes with the next
/// perfbench change.
using SearchStatus = model::SolveStatus;
/// The search reports the common floorplanning outcome.
using SearchResult = model::SolveOutcome;

struct SearchOptions {
  ObjectiveMode mode = ObjectiveMode::kLexicographic;
  double time_limit_seconds = 0.0;  ///< <= 0: none
  long node_limit = 0;              ///< <= 0: none
  int num_threads = 1;              ///< work-stealing workers when > 1
  bool feasibility_only = false;    ///< stop at the first feasible floorplan
  long waste_budget = -1;           ///< hard cap on total wasted frames (< 0: none)
  bool optimize_wirelength = true;  ///< lexicographic tiebreak on wire length
  /// Cooperative external cancellation: when non-null and set, the search
  /// stops at the next poll point and reports a truncated status (never a
  /// proof). The pointee must outlive solve(). Used by driver portfolios.
  std::atomic<bool>* stop = nullptr;
  /// Incumbent exchange channel (driver portfolios): externally published
  /// floorplans are adopted as the search incumbent — seeding the
  /// bound-pruning cutoff at the root and at every poll point — and every
  /// improving incumbent the search finds is published back. Ignored in
  /// feasibility_only mode. The pointee must outlive solve().
  driver::SharedIncumbent* incumbent = nullptr;
  /// Solve-scoped observability (support/telemetry): node-batch spans,
  /// steal/incumbent instants, live node counters for the progress ticker.
  /// Null (the default) keeps every instrumentation site branch-only.
  const telemetry::Context* telemetry = nullptr;
};

class ColumnarSearchSolver {
 public:
  ColumnarSearchSolver() = default;
  explicit ColumnarSearchSolver(SearchOptions options) : options_(options) {}

  [[nodiscard]] SearchResult solve(const model::FloorplanProblem& problem) const;

  /// The paper's Sec. VI feasibility analysis: for each region, can at least
  /// one free-compatible area be reserved (with every region still placed)?
  /// Returns one flag per region. Existing relocation requests on `problem`
  /// are ignored; each region is tested in isolation.
  [[nodiscard]] std::vector<bool> feasibilityAnalysis(
      const model::FloorplanProblem& problem) const;

  [[nodiscard]] const SearchOptions& options() const noexcept { return options_; }

 private:
  SearchOptions options_;
};

}  // namespace rfp::search
