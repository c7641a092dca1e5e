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
// metrics (Sec. V), and the Sec. VI lexicographic objective (minimize
// wasted frames, then wire length) via two-stage solving.
#pragma once

#include <optional>
#include <string>

#include "fp/formulation.hpp"
#include "fp/heuristic.hpp"
#include "milp/bb.hpp"
#include "model/floorplan.hpp"
#include "model/problem.hpp"

namespace rfp::driver {
class SharedIncumbent;  // driver/incumbent.hpp
}

namespace rfp::fp {

enum class Algorithm { kO, kHO };

enum class FpStatus { kOptimal, kFeasible, kInfeasible, kNoSolution };

[[nodiscard]] const char* toString(FpStatus s) noexcept;

struct MilpFloorplannerOptions {
  Algorithm algorithm = Algorithm::kO;
  FormulationOptions formulation;
  milp::MilpSolver::Options milp;
  bool lexicographic = true;  ///< two-stage (waste, then WL); else Eq. 14
  HeuristicOptions heuristic; ///< HO first-solution settings
  /// Overall wall-clock budget across all stages (heuristic + both MILP
  /// stages); <= 0: none. Each MILP stage receives the remaining budget (and
  /// at most `milp.time_limit_seconds` when that is also set); when the
  /// budget runs out between stages the best stage result so far is returned
  /// as kFeasible. `milp.stop` cancels all stages cooperatively.
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

struct FpResult {
  FpStatus status = FpStatus::kNoSolution;
  model::Floorplan plan;
  model::FloorplanCosts costs;
  double seconds = 0.0;
  long nodes = 0;
  std::string detail;  ///< per-stage diagnostics
  // LP substrate telemetry, aggregated over the MILP stages.
  long lp_solves = 0;
  long lp_iterations = 0;
  long lp_warm_hits = 0;
  long lp_refactorizations = 0;
  long lp_primal_pivots = 0;
  long lp_dual_pivots = 0;
  long lp_bound_flips = 0;
  long lp_ft_updates = 0;
  long lp_dual_reopts = 0;  ///< node solves answered by the dual fast path
  // Hyper-sparse kernel telemetry: triangular-solve path taken and exact
  // steepest-edge weight recurrence applications.
  long lp_ftran_sparse = 0;
  long lp_ftran_dense = 0;
  long lp_btran_sparse = 0;
  long lp_btran_dense = 0;
  long lp_dse_updates = 0;
  // In-solve work-stealing telemetry (one entry per MILP worker): per-worker
  // figures summed by worker id across the MILP stages, plus the steal total.
  std::vector<milp::MipWorkerStats> workers;
  long steals = 0;
  // Incumbent-exchange telemetry (zero without a channel).
  long published = 0;        ///< incumbents offered to the channel
  long adopted = 0;          ///< external incumbents adopted as cutoffs
  long external_prunes = 0;  ///< MILP nodes pruned against an external cutoff

  [[nodiscard]] bool hasSolution() const noexcept {
    return status == FpStatus::kOptimal || status == FpStatus::kFeasible;
  }
};

class MilpFloorplanner {
 public:
  MilpFloorplanner() = default;
  explicit MilpFloorplanner(MilpFloorplannerOptions options) : options_(std::move(options)) {}

  [[nodiscard]] FpResult solve(const model::FloorplanProblem& problem) const;

  [[nodiscard]] const MilpFloorplannerOptions& options() const noexcept { return options_; }

 private:
  MilpFloorplannerOptions options_;
};

}  // namespace rfp::fp
