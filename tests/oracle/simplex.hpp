// Two-phase primal simplex for LPs with bounded variables: the dense
// reference engine. Production solves (branch & bound, the MILP
// floorplanner) run on the sparse revised simplex behind `LpSolver`
// (lp/lp_solver.hpp); this tableau is the independent oracle the tests and
// `bench_lp_sparse` check the sparse engines against. It is built outside
// the library (the `rfp_oracle` target), so no production code can call it.
//
// Algorithm: full-tableau primal simplex in standard form with
//  * finite lower bounds shifted to zero,
//  * upper bounds handled by the classic column-flip technique (a nonbasic
//    variable may sit at either bound; flipping substitutes x := U - x),
//  * phase 1 with artificial variables minimizing total infeasibility,
//  * Dantzig pricing with an automatic switch to Bland's rule after a run of
//    degenerate pivots (anti-cycling).
//
// Its working set is (m+1) x (n+2m) doubles, so it suits the small models
// of unit tests, not paper-scale formulations.
#pragma once

#include <span>

#include "lp/lp_solver.hpp"
#include "lp/model.hpp"
#include "lp/result.hpp"

namespace rfp::lp {

class SimplexSolver {
 public:
  SimplexSolver() = default;
  /// The limits and the stop flag apply; the tableau emits no telemetry.
  explicit SimplexSolver(LpSolver::Options options) : options_(options) {}

  /// Solves the continuous relaxation of `model` (integrality ignored).
  [[nodiscard]] LpResult solve(const Model& model) const;

  /// Solves with per-variable bound overrides; `lb`/`ub` must have
  /// `model.numVars()` entries.
  [[nodiscard]] LpResult solve(const Model& model, std::span<const double> lb,
                               std::span<const double> ub) const;

 private:
  LpSolver::Options options_;
};

}  // namespace rfp::lp
