#include "milp/bb.hpp"

#include <algorithm>

#include "milp/bb_detail.hpp"
#include "milp/presolve.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"

namespace rfp::milp {

const char* toString(MipStatus s) noexcept {
  switch (s) {
    case MipStatus::kOptimal: return "optimal";
    case MipStatus::kFeasible: return "feasible";
    case MipStatus::kInfeasible: return "infeasible";
    case MipStatus::kNoSolution: return "no-solution";
    case MipStatus::kUnbounded: return "unbounded";
  }
  return "?";
}

namespace {

using detail::cappedLpOptions;

/// Boundary guard for the non-search return paths (pure LP, root presolve):
/// a solve that ends with the external stop flag set is a cancellation, and
/// a cancelled run must never hand the caller a proof.
void downgradeIfCancelled(MipResult& res, const MilpSolver::Options& opt) {
  if (!opt.stop || !opt.stop->load(std::memory_order_relaxed)) return;
  if (res.status == MipStatus::kOptimal) res.status = MipStatus::kFeasible;
  else if (res.status == MipStatus::kInfeasible) res.status = MipStatus::kNoSolution;
}

}  // namespace

MipResult MilpSolver::solve(const lp::Model& model,
                            std::optional<std::vector<double>> warm_start) const {
  MipResult res;
  if (!model.hasIntegerVars()) {
    // Pure LP: solve the relaxation directly (with the MILP-level budget and
    // stop flag threaded into the pivot loop).
    lp::LpSolver solver(cappedLpOptions(options_, options_.time_limit_seconds));
    lp::LpResult rel = solver.solve(model);
    detail::LpFold(options_.telemetry).add(res.lp, rel);
    res.seconds = rel.seconds;
    switch (rel.status) {
      case lp::LpStatus::kOptimal:
        res.status = MipStatus::kOptimal;
        res.x = std::move(rel.x);
        res.objective = rel.objective;
        res.best_bound = rel.objective;
        res.gap = 0.0;
        break;
      case lp::LpStatus::kInfeasible: res.status = MipStatus::kInfeasible; break;
      case lp::LpStatus::kUnbounded: res.status = MipStatus::kUnbounded; break;
      default: res.status = MipStatus::kNoSolution; break;
    }
    downgradeIfCancelled(res, options_);
    return res;
  }
  // Working copy: presolve tightens its variable bounds, which preserves
  // every integer-feasible point, so a warm start remains valid and
  // optimality claims are unaffected. The wall-clock budget covers presolve
  // + search; the tree's root node then solves the presolved model's root
  // LP once, cold.
  Stopwatch root_watch;
  lp::Model work = model;
  {
    telemetry::Span presolve_span(options_.telemetry, "milp", "presolve");
    std::vector<double> lb(static_cast<std::size_t>(work.numVars()));
    std::vector<double> ub(static_cast<std::size_t>(work.numVars()));
    for (int j = 0; j < work.numVars(); ++j) {
      lb[static_cast<std::size_t>(j)] = work.var(j).lb;
      ub[static_cast<std::size_t>(j)] = work.var(j).ub;
    }
    if (tightenBounds(work, lb, ub).infeasible) {
      res.status = MipStatus::kInfeasible;
      res.seconds = root_watch.seconds();
      downgradeIfCancelled(res, options_);
      return res;
    }
    for (int j = 0; j < work.numVars(); ++j)
      work.setVarBounds(j, lb[static_cast<std::size_t>(j)], ub[static_cast<std::size_t>(j)]);
  }

  Options search_opt = options_;
  if (search_opt.time_limit_seconds > 0)
    search_opt.time_limit_seconds =
        std::max(0.01, search_opt.time_limit_seconds - root_watch.seconds());
  res = detail::runSearch(work, search_opt, std::move(warm_start));
  res.seconds = root_watch.seconds();  // include presolve time
  return res;
}

}  // namespace rfp::milp
