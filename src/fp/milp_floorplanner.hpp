// The O and HO floorplanning algorithms (Sec. I / [10]) with the paper's
// relocation extension, driven by the from-scratch MILP solver.
//
//  O  — Optimal: the full MILP is solved over the whole solution space.
//  HO — Heuristic Optimal: a first feasible solution (constructive
//       heuristic) is extracted into a sequence pair, which is added as a
//       constraint to shrink the search space; the heuristic solution warm-
//       starts branch & bound. The sequence pair covers the free-compatible
//       areas too (Sec. II-A).
//
// Both algorithms support relocation as a constraint (Sec. IV) and as a
// metrics (Sec. V). The objective is the problem's own: the Sec. VI
// lexicographic mode (minimize wasted frames, then wire length) is solved
// in two stages, the Eq. 14 weighted sum in one.
#pragma once

#include <optional>
#include <string>

#include "lp/counters.hpp"
#include "milp/bb.hpp"
#include "model/floorplan.hpp"
#include "model/outcome.hpp"
#include "model/problem.hpp"

namespace rfp::driver {
class SharedIncumbent;  // driver/incumbent.hpp
}

namespace rfp::fp {

enum class Algorithm { kO, kHO };

struct MilpFloorplannerOptions {
  Algorithm algorithm = Algorithm::kO;
  milp::MilpSolver::Options milp;
  /// Overall wall-clock budget across all stages (heuristic + both MILP
  /// stages); <= 0: none. The warm-start heuristic runs on its default
  /// settings within this budget. Each MILP stage receives the remaining
  /// budget (and at most `milp.time_limit_seconds` when that is also set);
  /// when the budget runs out between stages the best stage result so far
  /// is returned as kFeasible. `milp.stop` cancels all stages cooperatively.
  double time_limit_seconds = 0.0;
  /// Declines to solve (kNoSolution, with a "declined:" detail note) when
  /// the LP engine's working set for this formulation would exceed this
  /// many GiB. The sparse revised simplex is billed per constraint-matrix
  /// nonzero (lp::LpSolver::sparseFootprintGib, ~0.1 GiB on SDR2), so
  /// paper-scale instances pass the default cap. <= 0: no cap.
  double max_lp_gib = 1.0;
  /// Incumbent exchange channel (driver portfolios). For O, a published
  /// plan better than the heuristic's is adopted as the warm start (HO
  /// keeps its own construction — its sequence pair defines the restricted
  /// space and must not silently change); each MILP stage polls the channel
  /// at node boundaries — encoding snapshots into the stage's model as
  /// feasibility-gated cutoffs — and every improving incumbent the stages
  /// find is published back. The pointee must outlive solve().
  driver::SharedIncumbent* incumbent = nullptr;
};

/// The common floorplanning outcome (`nodes`, `workers` and `exchange`
/// summed over the MILP stages, workers by id) plus the stage diagnostics
/// and the LP work.
struct FpResult : model::SolveOutcome {
  std::string detail;  ///< per-stage diagnostics
  lp::LpCounters lp;   ///< LP work, summed over the MILP stages
};

class MilpFloorplanner {
 public:
  MilpFloorplanner() = default;
  explicit MilpFloorplanner(MilpFloorplannerOptions options) : options_(std::move(options)) {}

  [[nodiscard]] FpResult solve(const model::FloorplanProblem& problem) const;

 private:
  MilpFloorplannerOptions options_;
};

}  // namespace rfp::fp
