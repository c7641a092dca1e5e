// Simulated-annealing floorplanner in the style of Bolchini et al. FPL'11
// ([9] in the paper): wire-length-driven stochastic local search over
// candidate placements. Used by the ablation benches as a second baseline
// and as an alternative first-solution generator for HO.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "model/floorplan.hpp"
#include "model/problem.hpp"

namespace rfp::driver {
class SharedIncumbent;  // driver/incumbent.hpp
}
namespace rfp::telemetry {
struct Context;  // support/telemetry/trace.hpp
}

namespace rfp::baseline {

struct AnnealerOptions {
  std::uint64_t seed = 1;
  long iterations = 200000;
  double time_limit_seconds = 0.0;  ///< wall-clock budget; <= 0: none
  /// Cooperative external cancellation, polled every few hundred iterations;
  /// the best floorplan found so far is still returned. The pointee must
  /// outlive the call. Used by driver portfolios.
  std::atomic<bool>* stop = nullptr;
  /// Incumbent exchange channel (driver portfolios): the starting floorplan
  /// and every improving best-so-far are published mid-run, so a concurrent
  /// or subsequent prover can use them as a cutoff long before the annealer
  /// finishes. The pointee must outlive the call.
  driver::SharedIncumbent* incumbent = nullptr;
  /// Solve-scoped observability (spans + counters); null = no telemetry.
  /// The pointee must outlive the call.
  const telemetry::Context* telemetry = nullptr;
};

struct AnnealResult {
  model::Floorplan plan;
  model::FloorplanCosts costs;
  long accepted_moves = 0;
  long iterations = 0;
  long published = 0;  ///< incumbents offered to the exchange channel
};

/// Runs SA starting from a greedy construction, minimizing waste/Rmax +
/// WL/WLmax under geometric cooling from temperature 1 by 0.9995 per
/// iteration. Returns std::nullopt when no feasible starting floorplan
/// exists. Relocation requests are honored by re-placing FC areas greedily
/// after every accepted region move (hard requests keep moves that break
/// them from being accepted).
[[nodiscard]] std::optional<AnnealResult> annealFloorplan(
    const model::FloorplanProblem& problem, const AnnealerOptions& options = {});

}  // namespace rfp::baseline
