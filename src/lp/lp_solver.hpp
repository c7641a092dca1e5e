// The LP entry point: every production relaxation (branch & bound, the
// MILP floorplanner) solves through `LpSolver`, which runs the sparse
// revised simplex over CSC storage with a Markowitz-factorized,
// Forrest–Tomlin-updated basis (lp/sparse/). Memory scales with the nonzero
// count (~10 MB for an SDR2 formulation, where a dense tableau would need
// ~25 GiB) and it accepts basis warm starts, which branch & bound uses to
// reoptimize child nodes. The tests check it against a dense tableau kept
// outside the library (tests/oracle/).
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

#include <atomic>
#include <span>

#include "lp/model.hpp"
#include "lp/result.hpp"
#include "lp/sparse/basis.hpp"

namespace rfp::telemetry {
struct Context;  // support/telemetry/trace.hpp
}

namespace rfp::lp {

namespace sparse {
struct CscMatrix;
}  // namespace sparse

class LpSolver {
 public:
  /// The limits and hooks of one solve, and the only LP options type: the
  /// sparse engines (lp/sparse/) take it as is. Tolerances and
  /// factorization settings are constants of the engines.
  struct Options {
    long max_iterations = 200000;
    double time_limit_seconds = 0.0;  ///< <= 0: no limit
    /// Cooperative cancellation, polled inside the pivot loop (a paper-scale
    /// sparse solve runs for tens of seconds — callers like the driver
    /// portfolio cannot wait for a node boundary). When set, the solve
    /// returns kTimeLimit at the next poll. The pointee must outlive solve().
    std::atomic<bool>* stop = nullptr;
    /// Solve-scoped observability (support/telemetry). The sparse engines
    /// emit refactorization instants and per-pivot samples (rate set by
    /// Context::detail_sample); null keeps the pivot loop branch-only.
    const telemetry::Context* telemetry = nullptr;
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

 private:
  Options options_;
};

}  // namespace rfp::lp
