// What every floorplanning engine reports: the exact search, the MILP
// floorplanners O/HO and, through the driver, every backend. The engines
// fill one SolveOutcome; the layers above carry it whole (FpResult and
// SolveResponse extend it) instead of copying its fields one by one.
#pragma once

#include <vector>

#include "model/floorplan.hpp"
#include "support/engine_stats.hpp"

namespace rfp::model {

enum class SolveStatus {
  kOptimal,     ///< proven optimal by an exhaustive engine
  kFeasible,    ///< valid floorplan without an optimality proof
  kInfeasible,  ///< proven infeasible by an exhaustive engine
  kNoSolution,  ///< nothing found before the limits hit
};

[[nodiscard]] inline const char* toString(SolveStatus s) noexcept {
  switch (s) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kFeasible: return "feasible";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kNoSolution: return "no-solution";
  }
  return "?";
}

struct SolveOutcome {
  SolveStatus status = SolveStatus::kNoSolution;
  Floorplan plan;        ///< valid when hasSolution()
  FloorplanCosts costs;  ///< evaluated costs of `plan`
  /// The engine's own work measure: B&B nodes (search, MILP; summed over
  /// the lexicographic stages) or annealer iterations.
  long nodes = 0;
  double seconds = 0.0;
  /// One entry per work-stealing worker (the tree engines report one at a
  /// single thread; the incomplete engines none).
  std::vector<WorkerStats> workers;
  ExchangeStats exchange;  ///< incumbent-exchange counts of this run

  [[nodiscard]] bool hasSolution() const noexcept {
    return status == SolveStatus::kOptimal || status == SolveStatus::kFeasible;
  }
};

}  // namespace rfp::model
