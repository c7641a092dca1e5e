// MILP presolve: iterated activity-based bound tightening and integer bound
// rounding, plus knapsack cover-cut separation.
//
// Commercial branch-and-cut solvers (the substrate the paper outsources to,
// DESIGN.md §3 substitution 1) owe much of their speed to root-node
// reductions:
//
//  * Bound tightening — each row's minimal activity implies per-variable
//    bounds; iterated to a fixed point. MilpSolver runs it once at the root.
//  * Cover cuts — for knapsack rows Σ a_j x_j ≤ b over binaries with
//    a_j > 0, a *cover* C (Σ_{j∈C} a_j > b) yields the valid inequality
//    Σ_{j∈C} x_j ≤ |C| − 1. MilpSolver does not separate them: no
//    floorplanning formulation ever yielded one.
#pragma once

#include <string>
#include <vector>

#include "lp/model.hpp"

namespace rfp::milp {

struct PresolveResult {
  bool infeasible = false;     ///< a row's minimal activity exceeds its rhs
  std::string detail;          ///< infeasibility description (when set)
  int tightened_bounds = 0;    ///< number of bound changes applied
  int rounds = 0;              ///< fixed-point iterations performed
};

/// Tightens `lb`/`ub` in place for `model`'s constraints. Integer variables'
/// bounds are rounded inward. Returns infeasible=true when some row cannot
/// be satisfied within the (tightened) bounds.
[[nodiscard]] PresolveResult tightenBounds(const lp::Model& model, std::vector<double>& lb,
                                           std::vector<double>& ub, int max_rounds = 10);

/// A separated cover cut: Σ_{j∈vars} x_j ≤ rhs.
struct CoverCut {
  std::vector<int> vars;
  double rhs = 0.0;
  double violation = 0.0;  ///< Σ x*_j − rhs at the separation point
};

/// Separates violated minimal-cover inequalities from knapsack-shaped rows
/// (≤ rows whose support is all-binary with positive coefficients) at the
/// fractional point `x`. Returns up to `max_cuts` cuts ordered by violation.
/// No solver calls this: its one caller is perfbench, which times it as the
/// per-layer metric `milp.cuts_ms` (ROADMAP item 1(c)).
[[nodiscard]] std::vector<CoverCut> separateCoverCuts(const lp::Model& model,
                                                      std::span<const double> x,
                                                      int max_cuts = 16,
                                                      double min_violation = 1e-4);

}  // namespace rfp::milp
