#include "lp/lp_solver.hpp"

#include <vector>

#include "lp/sparse/csc.hpp"

namespace rfp::lp {

double LpSolver::sparseFootprintGib(const Model& model) {
  const double nnz = static_cast<double>(sparse::countNonzeros(model));
  const double vars = static_cast<double>(model.numVars()) + model.numConstrs();
  // 96 B/nonzero covers CSC (12 B) plus Markowitz working copies, LU fill
  // and Forrest–Tomlin update growth between refactorizations; 160 B/variable
  // covers the dozen dense working vectors (bounds, costs, weights,
  // FTRAN/BTRAN scratch, basis arrays).
  return (nnz * 96.0 + vars * 160.0) / (1024.0 * 1024.0 * 1024.0);
}

LpResult LpSolver::solve(const Model& model) const {
  std::vector<double> lb(static_cast<std::size_t>(model.numVars()));
  std::vector<double> ub(static_cast<std::size_t>(model.numVars()));
  for (int j = 0; j < model.numVars(); ++j) {
    lb[static_cast<std::size_t>(j)] = model.var(j).lb;
    ub[static_cast<std::size_t>(j)] = model.var(j).ub;
  }
  return solve(model, lb, ub);
}

LpResult LpSolver::solve(const Model& model, std::span<const double> lb,
                         std::span<const double> ub, const sparse::Basis* warm,
                         const sparse::CscMatrix* csc) const {
  // Without a caller-provided cache, build the CSC matrix once here: a
  // declined dual attempt would otherwise build it a second time for the
  // primal fallback.
  sparse::CscMatrix local;
  if (!csc) {
    local = sparse::CscMatrix::fromModel(model);
    csc = &local;
  }
  LpResult declined;
  if (warm && options_.dual_reopt) {
    // Warm reoptimization fast path: a bound change leaves the supplied
    // basis dual feasible, so the dual simplex usually finishes in a few
    // pivots. It declines (nullopt) when the basis is not dual feasible
    // after bound-flip repair; the primal engine then takes over.
    sparse::DualSimplexSolver::Options dopt;
    dopt.core = options_.core;
    dopt.refactor_interval = options_.refactor_interval;
    dopt.lu = options_.lu;
    if (std::optional<LpResult> dual =
            sparse::DualSimplexSolver(dopt).solve(model, lb, ub, *warm, csc, &declined))
      return *std::move(dual);
  }
  sparse::RevisedSimplexSolver::Options sopt;
  sopt.core = options_.core;
  sopt.refactor_interval = options_.refactor_interval;
  sopt.pricing = options_.pricing;
  sopt.lu = options_.lu;
  LpResult res = sparse::RevisedSimplexSolver(sopt).solve(model, lb, ub, warm, csc);
  // Fold the declined dual attempt's effort into the report so the
  // telemetry reflects actual solver work, not just the engine that won.
  res.counters += declined.counters;
  return res;
}

}  // namespace rfp::lp
