// Constructive heuristic floorplanner.
//
// Produces the "first feasible solution" that HO (Sec. II-A) constrains the
// MILP with: regions are placed greedily (largest demand first) on minimal-
// waste candidate rectangles, then each region's free-compatible areas are
// placed on matching footprints. Multiple randomized restarts improve the
// chance of satisfying tight relocation constraints.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "model/floorplan.hpp"
#include "model/problem.hpp"

namespace rfp::driver {
class SharedIncumbent;  // driver/incumbent.hpp
}
namespace rfp::search {
class Occupancy;  // search/occupancy.hpp
}
namespace rfp::telemetry {
struct Context;  // support/telemetry/trace.hpp
}

namespace rfp::fp {

struct HeuristicOptions {
  int restarts = 32;          ///< randomized region orders after the greedy one
  std::uint64_t seed = 1;     ///< RNG seed (deterministic)
  double time_limit_seconds = 0.0;  ///< wall-clock budget, polled between
                                    ///< restarts; <= 0: none
  /// Cooperative external cancellation, polled between restarts; when set the
  /// heuristic gives up (as if every remaining restart failed). The pointee
  /// must outlive the call. Used by driver portfolios.
  std::atomic<bool>* stop = nullptr;
  /// Incumbent exchange channel (driver portfolios): the first feasible
  /// construction is published before it is returned, so the provers see it
  /// even when the caller discards or post-processes the result. The pointee
  /// must outlive the call.
  driver::SharedIncumbent* incumbent = nullptr;
  /// Solve-scoped observability (spans + counters); null = no telemetry.
  /// The pointee must outlive the call.
  const telemetry::Context* telemetry = nullptr;
};

/// Returns a fully feasible floorplan (model::check passes) or std::nullopt
/// when the heuristic fails on every restart. Hard FC requests must all be
/// satisfied for success; soft requests are placed best-effort.
[[nodiscard]] std::optional<model::Floorplan> constructiveFloorplan(
    const model::FloorplanProblem& problem, const HeuristicOptions& options = {});

/// Places the free-compatible areas of `problem` first fit around the region
/// rects `regions`: request by request, each area of `areas` (in
/// expandFcRequests order) on the first of search::appendCompatibleRects'
/// candidates that the regions and the areas placed before it leave free.
/// `forbidden` is the device's forbiddenGrid. A soft request's area with no
/// free candidate is left unplaced; returns false at the first hard one.
[[nodiscard]] bool placeFcAreas(const model::FloorplanProblem& problem,
                                const search::Occupancy& forbidden,
                                const std::vector<device::Rect>& regions,
                                std::vector<model::FcArea>& areas);

}  // namespace rfp::fp
