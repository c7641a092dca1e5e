#include "milp/bb.hpp"

#include <algorithm>
#include <memory>

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
using detail::clampedRemaining;

/// Boundary guard for the non-search return paths (pure LP, root presolve):
/// a solve that ends with the external stop flag set is a cancellation, and
/// a cancelled run must never hand the caller a proof.
void downgradeIfCancelled(MipResult& res, const MilpSolver::Options& opt) {
  if (!opt.stop || !opt.stop->load(std::memory_order_relaxed)) return;
  if (res.status == MipStatus::kOptimal) res.status = MipStatus::kFeasible;
  else if (res.status == MipStatus::kInfeasible) res.status = MipStatus::kNoSolution;
}

/// `basis` grown to a model with `rows` rows, every appended row entering
/// with its slack basic. The reduced costs are unchanged (slacks cost
/// nothing), so the grown basis stays dual feasible: a violated cut only
/// makes its own slack primal infeasible, which the dual simplex repairs.
std::shared_ptr<const lp::sparse::Basis> withBasicSlacks(const lp::sparse::Basis& basis,
                                                         int rows) {
  auto grown = std::make_shared<lp::sparse::Basis>(basis);
  for (int i = basis.rows; i < rows; ++i) {
    grown->basic.push_back(basis.cols + i);
    grown->status.push_back(lp::sparse::VarStatus::kBasic);
  }
  grown->rows = rows;
  return grown;
}

}  // namespace

MipResult MilpSolver::solve(const lp::Model& model,
                            std::optional<std::vector<double>> warm_start) const {
  MipResult res;
  const detail::LpFold fold(options_.telemetry);
  if (!model.hasIntegerVars()) {
    // Pure LP: solve the relaxation directly (with the MILP-level budget and
    // stop flag threaded into the pivot loop).
    lp::LpSolver solver(cappedLpOptions(options_, options_.time_limit_seconds));
    lp::LpResult rel = solver.solve(model);
    fold.add(res.lp, rel);
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
  // Working copy: presolve tightens its variable bounds; cover cuts append
  // rows. Both transformations preserve every integer-feasible point, so a
  // warm start remains valid and optimality claims are unaffected. The
  // wall-clock budget covers presolve + cuts + search: root work at paper
  // scale is LP-solve-heavy, so the search receives whatever remains.
  Stopwatch root_watch;
  const Deadline cut_deadline(options_.time_limit_seconds);
  lp::Model work = model;
  std::vector<double> lb(static_cast<std::size_t>(work.numVars()));
  std::vector<double> ub(static_cast<std::size_t>(work.numVars()));
  for (int j = 0; j < work.numVars(); ++j) {
    lb[static_cast<std::size_t>(j)] = work.var(j).lb;
    ub[static_cast<std::size_t>(j)] = work.var(j).ub;
  }

  if (options_.enable_presolve) {
    telemetry::Span presolve_span(options_.telemetry, "milp", "presolve");
    const PresolveResult pr = tightenBounds(work, lb, ub);
    if (pr.infeasible) {
      res.status = MipStatus::kInfeasible;
      res.seconds = root_watch.seconds();
      downgradeIfCancelled(res, options_);
      return res;
    }
    for (int j = 0; j < work.numVars(); ++j)
      work.setVarBounds(j, lb[static_cast<std::size_t>(j)], ub[static_cast<std::size_t>(j)]);
  }

  // The root relaxation is one warm chain: each cut round re-solves from
  // the previous round's optimal basis grown by the appended cover rows,
  // and the last round's basis warm-starts the tree's root — a round that
  // found no cuts already *is* the root optimum. lp_warm_start=false keeps
  // every round and the root cold.
  std::shared_ptr<const lp::sparse::Basis> root_basis;
  if (options_.enable_cover_cuts) {
    telemetry::Span cuts_span(options_.telemetry, "milp", "cover_cuts");
    for (int round = 0; round < options_.cut_rounds; ++round) {
      if (cut_deadline.expired() ||
          (options_.stop && options_.stop->load(std::memory_order_relaxed)))
        break;
      const lp::LpSolver solver(cappedLpOptions(options_, clampedRemaining(cut_deadline)));
      const lp::LpResult rel = solver.solve(work, lb, ub, root_basis.get());
      fold.add(res.lp, rel);
      root_basis = options_.lp_warm_start ? rel.basis : nullptr;
      if (rel.status != lp::LpStatus::kOptimal) break;
      const std::vector<CoverCut> cuts = separateCoverCuts(work, rel.x);
      if (cuts.empty()) break;
      for (const CoverCut& cut : cuts) {
        lp::LinExpr expr;
        for (const int j : cut.vars) expr.addTerm(lp::Var{j}, 1.0);
        work.addConstr(expr, lp::Sense::kLessEqual, cut.rhs, "cover_cut");
      }
      if (root_basis) root_basis = withBasicSlacks(*root_basis, work.numConstrs());
    }
  }

  Options search_opt = options_;
  if (search_opt.time_limit_seconds > 0)
    search_opt.time_limit_seconds =
        std::max(0.01, search_opt.time_limit_seconds - root_watch.seconds());
  res = detail::runSearch(work, search_opt, std::move(warm_start), std::move(root_basis),
                          std::move(res));
  res.seconds = root_watch.seconds();  // include presolve + cut time
  return res;
}

}  // namespace rfp::milp
