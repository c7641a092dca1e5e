#include "fp/milp_floorplanner.hpp"

#include <algorithm>
#include <sstream>

#include "driver/incumbent.hpp"
#include "fp/seqpair.hpp"
#include "lp/lp_solver.hpp"
#include "lp/sparse/csc.hpp"
#include "partition/columnar.hpp"
#include "support/check.hpp"
#include "support/log.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"

namespace rfp::fp {

const char* toString(FpStatus s) noexcept {
  switch (s) {
    case FpStatus::kOptimal: return "optimal";
    case FpStatus::kFeasible: return "feasible";
    case FpStatus::kInfeasible: return "infeasible";
    case FpStatus::kNoSolution: return "no-solution";
  }
  return "?";
}

namespace {

FpStatus fromMip(milp::MipStatus s) {
  switch (s) {
    case milp::MipStatus::kOptimal: return FpStatus::kOptimal;
    case milp::MipStatus::kFeasible: return FpStatus::kFeasible;
    case milp::MipStatus::kInfeasible: return FpStatus::kInfeasible;
    default: return FpStatus::kNoSolution;
  }
}

}  // namespace

FpResult MilpFloorplanner::solve(const model::FloorplanProblem& problem) const {
  Stopwatch watch;
  Deadline deadline(options_.time_limit_seconds);
  const auto cancelled = [this] {
    return options_.milp.stop && options_.milp.stop->load(std::memory_order_relaxed);
  };
  FpResult result;
  std::ostringstream detail;
  const auto accumulateStage = [&result](const milp::MipResult& mip) {
    result.adopted += mip.external_adoptions;
    result.external_prunes += mip.cutoff_prunes;
    result.lp += mip.lp;
    result.steals += mip.steals;
    for (const milp::MipWorkerStats& w : mip.workers) {
      const auto i = static_cast<std::size_t>(w.id);
      if (result.workers.size() <= i) result.workers.resize(i + 1);
      milp::MipWorkerStats& acc = result.workers[i];
      acc.id = w.id;
      acc.nodes += w.nodes;
      acc.steals += w.steals;
      acc.stolen_nodes += w.stolen_nodes;
      acc.lp_solves += w.lp_solves;
      acc.lp_warm_hits += w.lp_warm_hits;
      acc.idle_seconds += w.idle_seconds;
    }
  };

  const auto part = partition::columnarPartition(problem.dev());
  RFP_CHECK_MSG(part.has_value(),
                "device '" << problem.dev().name() << "' is not columnar-partitionable");

  // First feasible solution from the constructive heuristic. HO requires it
  // (the sequence pair is extracted from it, Sec. II-A); O merely uses it as
  // a warm-start incumbent, which prunes the branch & bound early without
  // restricting the explored space — optimality claims are unaffected.
  std::optional<model::Floorplan> warm;
  std::optional<SequencePair> sp;
  HeuristicOptions hopt = options_.heuristic;
  if (!hopt.stop) hopt.stop = options_.milp.stop;  // one flag cancels all stages
  hopt.incumbent = options_.incumbent;  // the construction is a publishable incumbent
  if (options_.time_limit_seconds > 0)
    hopt.time_limit_seconds = hopt.time_limit_seconds > 0
                                  ? std::min(hopt.time_limit_seconds, options_.time_limit_seconds)
                                  : options_.time_limit_seconds;
  {
    telemetry::Span heur_span(options_.milp.telemetry, "milp", "heuristic_stage");
    warm = constructiveFloorplan(problem, hopt);
    if (heur_span.active()) heur_span.note("found", warm ? "yes" : "no");
  }
  // O only: a floorplan already in the exchange channel (a faster engine's,
  // or a staged portfolio's first slice) that beats the construction makes
  // the better warm start — the paper's heuristic-feeds-exact-MILP
  // combination. HO keeps its own construction: swapping in the channel
  // plan would also swap the sequence pair, silently changing HO's
  // restricted search space (and possibly for the worse, breaking the
  // portfolio's exchange-never-worse guarantee); the channel plan still
  // reaches HO through the feasibility-gated mid-run poll below.
  if (options_.incumbent && options_.algorithm == Algorithm::kO) {
    model::Floorplan chan_plan;
    model::FloorplanCosts chan_costs;
    if (options_.incumbent->best(&chan_plan, &chan_costs) &&
        (!warm || model::strictlyBetter(problem, chan_costs, model::evaluate(problem, *warm))))
      warm = std::move(chan_plan);
  }
  if (options_.algorithm == Algorithm::kHO) {
    if (!warm) {
      result.status = FpStatus::kNoSolution;
      result.detail = "HO: constructive heuristic found no feasible first solution";
      result.seconds = watch.seconds();
      return result;
    }
    // Sequence pair over regions and *placed* FC areas; the extraction
    // requires disjoint rects, which model::check guaranteed.
    std::vector<device::Rect> rects = warm->regions;
    for (const model::FcArea& a : warm->fc_areas)
      rects.push_back(a.placed ? a.rect : warm->regions[static_cast<std::size_t>(a.region)]);
    // Unplaced (soft) areas mirror their region; drop them from the pair by
    // keeping them but their constraints are relaxed through v_c anyway.
    // The extended pair (Sec. II-A) covers regions and FC areas; it is only
    // well-defined when every FC is placed (unplaced soft areas mirror their
    // region and would overlap). Otherwise no pair constraints are added and
    // HO degenerates to O with a warm start.
    bool fc_all_placed = true;
    for (const model::FcArea& a : warm->fc_areas) fc_all_placed = fc_all_placed && a.placed;
    if (fc_all_placed) sp = extractSequencePair(rects);
    detail << "HO: heuristic waste="
           << model::evaluate(problem, *warm).wasted_frames << "; ";
  }

  const auto buildAndSolve = [&](ObjectiveKind objective, std::optional<long> waste_cap,
                                 std::optional<std::vector<double>> start) {
    FormulationOptions fopt = options_.formulation;
    fopt.objective = objective;
    MilpFormulation formulation(problem, *part, fopt);
    if (waste_cap) formulation.addWasteCap(*waste_cap);
    if (sp && static_cast<int>(sp->s1.size()) == formulation.numAreas())
      formulation.addSequencePairConstraints(sp->s1, sp->s2);

    // Admission gate: the LP engine's working set, billed by constraint-
    // matrix nonzeros. Allocating past the gate would eat the memory before
    // any deadline or stop flag is ever polled, so oversized formulations
    // decline up front.
    if (options_.max_lp_gib > 0) {
      const lp::Model& mdl = formulation.model();
      const double est_gib = lp::LpSolver::sparseFootprintGib(mdl);
      if (est_gib > options_.max_lp_gib) {
        milp::MipResult declined;
        declined.status = milp::MipStatus::kNoSolution;
        detail << "declined: LP ~" << est_gib
               << " GiB (vars=" << mdl.numVars() << " constrs=" << mdl.numConstrs()
               << " nnz=" << lp::sparse::countNonzeros(mdl)
               << ") exceeds max_lp_gib=" << options_.max_lp_gib << "; ";
        return std::make_pair(std::move(declined), std::move(formulation));
      }
    }

    std::optional<std::vector<double>> encoded;
    if (start) {
      encoded = std::move(start);
    } else if (warm) {
      encoded = formulation.encode(*warm);
    }
    milp::MilpSolver::Options mopt = options_.milp;
    if (options_.time_limit_seconds > 0) {
      const double remaining = std::max(0.01, deadline.remaining());
      mopt.time_limit_seconds =
          mopt.time_limit_seconds > 0 ? std::min(mopt.time_limit_seconds, remaining) : remaining;
    }
    if (options_.incumbent) {
      // Bridge the floorplan-level channel to the solver's encoded points.
      // The lambdas bind this stage's formulation; they are only invoked
      // inside solver.solve(), while `formulation` is alive. A snapshot that
      // violates this stage's extra rows (waste cap, sequence pair) is
      // rejected by the solver's feasibility gate, not here.
      driver::SharedIncumbent* chan = options_.incumbent;
      const char* source = options_.algorithm == Algorithm::kO ? "milp-o" : "milp-ho";
      mopt.incumbent_poll = [chan, &formulation,
                             seen = std::uint64_t{0}]() mutable -> std::optional<std::vector<double>> {
        model::Floorplan plan;
        if (!chan->snapshotNewer(&seen, &plan, nullptr)) return std::nullopt;
        return formulation.encode(plan);
      };
      mopt.incumbent_publish = [chan, &formulation, &problem, &result,
                                source](const std::vector<double>& x) {
        const model::Floorplan plan = formulation.extract(x);
        ++result.published;
        chan->publish(plan, model::evaluate(problem, plan), source);
      };
    }
    milp::MilpSolver solver(mopt);
    milp::MipResult mip = solver.solve(formulation.model(), std::move(encoded));
    return std::make_pair(std::move(mip), std::move(formulation));
  };

  if (!options_.lexicographic) {
    auto [mip, formulation] = buildAndSolve(ObjectiveKind::kWeighted, std::nullopt, std::nullopt);
    result.nodes = mip.nodes;
    accumulateStage(mip);
    result.status = fromMip(mip.status);
    detail << "weighted: " << milp::toString(mip.status) << " obj=" << mip.objective;
    if (mip.hasSolution()) {
      result.plan = formulation.extract(mip.x);
      result.costs = model::evaluate(problem, result.plan);
    }
  } else {
    // Stage 1: minimize wasted frames.
    auto [mip1, formulation1] =
        buildAndSolve(ObjectiveKind::kWastedFrames, std::nullopt, std::nullopt);
    result.nodes = mip1.nodes;
    accumulateStage(mip1);
    detail << "stage1(waste): " << milp::toString(mip1.status);
    if (!mip1.hasSolution()) {
      result.status = fromMip(mip1.status);
      result.detail = detail.str();
      result.seconds = watch.seconds();
      return result;
    }
    model::Floorplan stage1_plan = formulation1.extract(mip1.x);
    const long waste_cap =
        model::evaluate(problem, stage1_plan).wasted_frames;
    detail << " waste=" << waste_cap << "; ";

    if (deadline.expired() || cancelled()) {
      // Budget exhausted between stages: stage 1's plan is the best we have,
      // and without stage 2 the wire length is not proven optimal.
      detail << "stage2(wl): skipped (" << (cancelled() ? "cancelled" : "budget exhausted")
             << ")";
      result.plan = std::move(stage1_plan);
      result.costs = model::evaluate(problem, result.plan);
      result.status = FpStatus::kFeasible;
      result.detail = detail.str();
      result.seconds = watch.seconds();
      return result;
    }

    // Stage 2: minimize wire length among waste-optimal floorplans, warm-
    // started from stage 1's solution.
    auto [mip2, formulation2] = buildAndSolve(
        ObjectiveKind::kWireLength, waste_cap,
        std::optional<std::vector<double>>(formulation1.encode(stage1_plan)));
    result.nodes += mip2.nodes;
    accumulateStage(mip2);
    detail << "stage2(wl): " << milp::toString(mip2.status);
    if (mip2.hasSolution()) {
      result.plan = formulation2.extract(mip2.x);
      result.costs = model::evaluate(problem, result.plan);
      const bool both_optimal =
          mip1.status == milp::MipStatus::kOptimal && mip2.status == milp::MipStatus::kOptimal;
      result.status = both_optimal ? FpStatus::kOptimal : FpStatus::kFeasible;
    } else {
      // Stage 2 truncated before finding anything: fall back to stage 1.
      result.plan = std::move(stage1_plan);
      result.costs = model::evaluate(problem, result.plan);
      result.status = FpStatus::kFeasible;
    }
  }

  // HO explores a restricted space: optimality claims are relative to the
  // sequence pair, so report kFeasible unless the heuristic space was full.
  if (options_.algorithm == Algorithm::kHO && result.status == FpStatus::kOptimal)
    result.status = FpStatus::kFeasible;

  result.detail = detail.str();
  result.seconds = watch.seconds();
  return result;
}

}  // namespace rfp::fp
