#include "baseline/annealer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "driver/incumbent.hpp"
#include "fp/heuristic.hpp"
#include "search/candidates.hpp"
#include "search/occupancy.hpp"
#include "support/rng.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"

namespace rfp::baseline {

namespace {

using device::Rect;

constexpr double kInitialTemperature = 1.0;
constexpr double kCooling = 0.9995;  ///< geometric cooling per iteration

/// waste/Rmax + WL/WLmax: both terms normalized to [0, 1], equally weighted,
/// with WLmax at least 1.
double costOf(const model::FloorplanProblem& problem, const model::ObjectiveMaxima& maxima,
              const model::Floorplan& fp) {
  const model::FloorplanCosts costs = model::evaluate(problem, fp);
  return static_cast<double>(costs.wasted_frames) / maxima.r +
         costs.wire_length / std::max(1.0, maxima.wl);
}

}  // namespace

std::optional<AnnealResult> annealFloorplan(const model::FloorplanProblem& problem,
                                            const AnnealerOptions& options) {
  telemetry::Span run_span(options.telemetry, "annealer", "anneal");
  Deadline deadline(options.time_limit_seconds);
  fp::HeuristicOptions hopt;
  hopt.seed = options.seed;
  hopt.stop = options.stop;
  hopt.time_limit_seconds = options.time_limit_seconds;
  auto start = fp::constructiveFloorplan(problem, hopt);
  if (!start) return std::nullopt;

  std::vector<search::RegionCandidates> cands;
  for (int n = 0; n < problem.numRegions(); ++n)
    cands.push_back(search::enumerateCandidates(problem, n));
  const search::Occupancy forbidden = search::forbiddenGrid(problem.dev());
  const model::ObjectiveMaxima maxima = model::objectiveMaxima(problem);

  Rng rng(options.seed ^ 0x5eedu);
  model::Floorplan current = *start;
  double current_cost = costOf(problem, maxima, current);
  model::Floorplan best = current;
  double best_cost = current_cost;

  AnnealResult result;
  // Publish improving bests mid-run, throttled to the poll cadence so the
  // channel lock is never contended from the hot move loop. `published_cost`
  // tracks what the channel last saw from us.
  double published_cost = std::numeric_limits<double>::infinity();
  const auto publishBest = [&] {
    if (!options.incumbent || best_cost >= published_cost) return;
    published_cost = best_cost;
    ++result.published;
    const model::FloorplanCosts costs = model::evaluate(problem, best);
    options.incumbent->publish(best, costs, "annealer");
    telemetry::instant(options.telemetry, "incumbent", "publish", "waste",
                       static_cast<double>(costs.wasted_frames), "engine", "annealer");
  };
  publishBest();  // the greedy start is already a feasible incumbent

  double temperature = kInitialTemperature;
  for (long it = 0; it < options.iterations; ++it, temperature *= kCooling) {
    if ((it & 255) == 0) {
      if (deadline.expired() || (options.stop && options.stop->load(std::memory_order_relaxed)))
        break;
      publishBest();
    }
    ++result.iterations;
    // Move: pick a region and a random alternative candidate placement.
    const int n = static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(problem.numRegions())));
    const search::RegionCandidates& rc = cands[static_cast<std::size_t>(n)];
    if (rc.shapes.empty()) continue;
    const search::Shape& s =
        rc.shapes[rng.nextBelow(static_cast<std::uint64_t>(rc.shapes.size()))];
    const int y = s.ys[rng.nextBelow(static_cast<std::uint64_t>(s.ys.size()))];
    const Rect cand{s.x, y, s.w, s.h};

    model::Floorplan trial = current;
    trial.regions[static_cast<std::size_t>(n)] = cand;
    // Reject overlapping region placements outright.
    bool overlap = false;
    for (int m = 0; m < problem.numRegions() && !overlap; ++m)
      overlap = m != n && trial.regions[static_cast<std::size_t>(m)].overlaps(cand);
    if (overlap) continue;
    if (!fp::placeFcAreas(problem, forbidden, trial.regions, trial.fc_areas)) continue;

    const double trial_cost = costOf(problem, maxima, trial);
    const double delta = trial_cost - current_cost;
    if (delta <= 0 || rng.nextDouble() < std::exp(-delta / std::max(1e-9, temperature))) {
      current = std::move(trial);
      current_cost = trial_cost;
      ++result.accepted_moves;
      if (current_cost < best_cost) {
        best = current;
        best_cost = current_cost;
      }
    }
  }

  publishBest();  // flush a best found after the last poll point
  result.plan = std::move(best);
  result.costs = model::evaluate(problem, result.plan);
  if (run_span.active()) {
    run_span.arg("iterations", static_cast<double>(result.iterations));
    run_span.arg("accepted", static_cast<double>(result.accepted_moves));
  }
  if (options.telemetry != nullptr && options.telemetry->metrics != nullptr)
    options.telemetry->metrics->counter("annealer.iterations").add(result.iterations);
  return result;
}

}  // namespace rfp::baseline
