// Two-phase primal simplex for LPs with bounded variables: the dense
// reference engine. Production solves (branch & bound, the MILP
// floorplanner) run on the sparse revised simplex behind `LpSolver`
// (lp/lp_solver.hpp); this tableau is kept as the independent oracle the
// tests and `bench_lp_sparse` check the sparse engines against. The file
// also owns the types both engines share: `LpStatus`, `LpResult` and the
// tolerance struct `SimplexSolver::Options`.
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

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lp/counters.hpp"
#include "lp/model.hpp"
#include "support/timer.hpp"

namespace rfp::telemetry {
struct Context;  // support/telemetry/trace.hpp
}

namespace rfp::lp {

namespace sparse {
struct Basis;
}  // namespace sparse

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterLimit, kTimeLimit };

[[nodiscard]] const char* toString(LpStatus s) noexcept;

struct LpResult {
  LpStatus status = LpStatus::kIterLimit;
  double objective = 0.0;          ///< valid when status == kOptimal
  std::vector<double> x;           ///< primal values (model variable order)
  double seconds = 0.0;
  /// The work of this solve (the dense tableau fills only `solves` and
  /// `iterations`). `warm_start_hits` is 1 when a caller-provided basis was
  /// adopted, `dual_reopts` 1 when the dual simplex produced the result.
  LpCounters counters;
  /// Sparse engine, on optimality: the optimal basis, reusable as a warm
  /// start for a nearby solve (branch & bound child nodes). Opaque.
  std::shared_ptr<const sparse::Basis> basis;
};

class SimplexSolver {
 public:
  struct Options {
    double feas_tol = 1e-7;     ///< bound/row feasibility tolerance
    double cost_tol = 1e-7;     ///< reduced-cost optimality tolerance
    double pivot_tol = 1e-9;    ///< minimum |pivot| magnitude
    long max_iterations = 200000;
    double time_limit_seconds = 0.0;  ///< <= 0: no limit
    int bland_after_degenerate = 40;  ///< switch to Bland after this many
                                      ///< consecutive degenerate pivots
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

  SimplexSolver() = default;
  explicit SimplexSolver(Options options) : options_(options) {}

  /// Solves the continuous relaxation of `model` (integrality ignored).
  [[nodiscard]] LpResult solve(const Model& model) const;

  /// Solves with per-variable bound overrides (used by branch & bound);
  /// `lb`/`ub` must have `model.numVars()` entries.
  [[nodiscard]] LpResult solve(const Model& model, std::span<const double> lb,
                               std::span<const double> ub) const;

  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  Options options_;
};

}  // namespace rfp::lp
