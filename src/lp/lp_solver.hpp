// The LP entry point: every production relaxation (branch & bound, the
// MILP floorplanner) solves through `LpSolver`, which runs the sparse
// revised simplex over CSC storage with a Markowitz-factorized,
// Forrest–Tomlin-updated basis (lp/sparse/). Memory scales with the nonzero
// count (~10 MB for an SDR2 formulation, where a dense tableau would need
// ~25 GiB) and it accepts basis warm starts, which branch & bound uses to
// reoptimize child nodes. The dense tableau (lp/simplex.hpp) is only the
// reference the tests compare against.
//
// Warm reoptimization rides a fast path: when a warm basis is supplied (a
// branch & bound child differing from its parent only in variable bounds)
// the bounded-variable *dual* simplex runs first — the parent basis stays
// dual feasible under bound changes, so a handful of dual pivots usually
// restores optimality — and the primal engine is the fallback whenever no
// dual-feasible start exists. Callers can also pass a cached CSC matrix so
// a tree of solves shares one build.
//
// The engine's memory estimate is also exported so the admission gate
// (MilpFloorplannerOptions::max_lp_gib) can decline a formulation before
// allocating it.
#pragma once

#include <span>

#include "lp/simplex.hpp"
#include "lp/sparse/basis.hpp"
#include "lp/sparse/dual_simplex.hpp"
#include "lp/sparse/revised_simplex.hpp"

namespace rfp::lp {

class LpSolver {
 public:
  struct Options {
    /// Tolerances and limits (the struct the dense reference shares).
    SimplexSolver::Options core;
    /// Refactorization triggers on Forrest–Tomlin stability failures and
    /// factor fill growth, plus this hard update-count cap (<= 0 disables
    /// the cap; warm reoptimizations finish far below it, so the B&B hot
    /// path is refactorization-free either way).
    int refactor_interval = 100;
    /// With a warm basis, reoptimize with the dual simplex first and fall
    /// back to the primal when no dual-feasible start exists. Off forces
    /// every solve through the primal engine (A/B tests and the cold-path
    /// oracle; results are identical either way).
    bool dual_reopt = true;
    sparse::BasisLu::Options lu;
  };

  LpSolver() = default;
  explicit LpSolver(Options options) : options_(options) {}

  /// Solves the continuous relaxation of `model` (integrality ignored).
  [[nodiscard]] LpResult solve(const Model& model) const;

  /// Solves with per-variable bound overrides. `warm` is a basis from an
  /// earlier solve; the result's `warm_start_hits` counter reports whether
  /// it was adopted, and `dual_reopts` whether the dual fast path produced
  /// the result. `csc`, when non-null, must be the CSC form of `model`'s constraint
  /// matrix — branch & bound builds it once per tree and passes it to every
  /// node solve.
  [[nodiscard]] LpResult solve(const Model& model, std::span<const double> lb,
                               std::span<const double> ub,
                               const sparse::Basis* warm = nullptr,
                               const sparse::CscMatrix* csc = nullptr) const;

  /// Nonzero-based working-set estimate: CSC storage plus LU fill and
  /// update headroom per nonzero, plus the per-variable working vectors. Deliberately conservative (real use is lower).
  [[nodiscard]] static double sparseFootprintGib(const Model& model);

  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  Options options_;
};

}  // namespace rfp::lp
