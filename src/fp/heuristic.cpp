#include "fp/heuristic.hpp"

#include <algorithm>
#include <numeric>

#include "driver/incumbent.hpp"
#include "search/candidates.hpp"
#include "search/occupancy.hpp"
#include "support/rng.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"

namespace rfp::fp {

namespace {

using device::Rect;

/// One greedy construction attempt with a fixed region order. `shape_skip`
/// (per region) offsets the shape choice away from the cheapest candidate:
/// restarts vary it so that relocation-heavy instances, where the waste-
/// minimal shape starves the free-compatible areas of room, still find a
/// first solution (Sec. II-A requires the HO input to place the FC areas).
std::optional<model::Floorplan> attempt(const model::FloorplanProblem& problem,
                                        const search::Occupancy& forbidden,
                                        const std::vector<int>& order,
                                        const std::vector<search::RegionCandidates>& cands,
                                        const std::vector<std::size_t>& shape_skip) {
  const device::Device& dev = problem.dev();
  search::Occupancy occ(dev.width(), dev.height());
  std::vector<Rect> rects(static_cast<std::size_t>(problem.numRegions()));

  for (const int n : order) {
    bool ok = false;
    const std::vector<search::Shape>& shapes = cands[static_cast<std::size_t>(n)].shapes;
    const std::size_t skip =
        shapes.empty() ? 0 : shape_skip[static_cast<std::size_t>(n)] % shapes.size();
    for (std::size_t si = 0; si < shapes.size() && !ok; ++si) {
      const search::Shape& s = shapes[(si + skip) % shapes.size()];
      for (const int y : s.ys) {
        const Rect r{s.x, y, s.w, s.h};
        if (occ.overlaps(r)) continue;
        occ.fill(r);
        rects[static_cast<std::size_t>(n)] = r;
        ok = true;
        break;
      }
    }
    if (!ok) return std::nullopt;
  }

  model::Floorplan fp;
  fp.regions = rects;
  fp.fc_areas = model::expandFcRequests(problem);
  if (!placeFcAreas(problem, forbidden, fp.regions, fp.fc_areas)) return std::nullopt;
  return fp;
}

}  // namespace

std::optional<model::Floorplan> constructiveFloorplan(const model::FloorplanProblem& problem,
                                                      const HeuristicOptions& options) {
  telemetry::Span run_span(options.telemetry, "heuristic", "construct");
  std::vector<search::RegionCandidates> cands;
  cands.reserve(static_cast<std::size_t>(problem.numRegions()));
  for (int n = 0; n < problem.numRegions(); ++n)
    cands.push_back(search::enumerateCandidates(problem, n));
  const search::Occupancy forbidden = search::forbiddenGrid(problem.dev());

  // Deterministic first order: largest minimum-frame demand first (hardest
  // regions claim space early).
  std::vector<int> order(static_cast<std::size_t>(problem.numRegions()));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return problem.minFrames(a) > problem.minFrames(b);
  });

  Rng rng(options.seed);
  std::vector<std::size_t> shape_skip(static_cast<std::size_t>(problem.numRegions()), 0);
  const Deadline deadline(options.time_limit_seconds);
  for (int attempt_index = 0; attempt_index <= options.restarts; ++attempt_index) {
    if (options.stop && options.stop->load(std::memory_order_relaxed)) return std::nullopt;
    if (attempt_index > 0 && deadline.expired()) return std::nullopt;
    if (attempt_index > 0) {
      // Fisher–Yates shuffle for subsequent restarts, plus random shape
      // offsets so the same order can still explore different geometries.
      for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBelow(i)]);
      for (std::size_t n = 0; n < shape_skip.size(); ++n) {
        const std::size_t num_shapes =
            std::max<std::size_t>(1, cands[n].shapes.size());
        // Bias toward cheap shapes: half the attempts stay at the cheapest.
        shape_skip[n] = rng.nextBool() ? 0 : rng.nextBelow(std::min<std::size_t>(num_shapes, 32));
      }
    }
    auto fp = attempt(problem, forbidden, order, cands, shape_skip);
    if (fp && model::check(problem, *fp).empty()) {
      const model::FloorplanCosts costs = model::evaluate(problem, *fp);
      if (options.incumbent) options.incumbent->publish(*fp, costs, "heuristic");
      telemetry::instant(options.telemetry, "incumbent", "publish", "waste",
                         static_cast<double>(costs.wasted_frames), "engine", "heuristic");
      if (run_span.active()) run_span.arg("restarts", static_cast<double>(attempt_index));
      if (options.telemetry != nullptr && options.telemetry->metrics != nullptr)
        options.telemetry->metrics->counter("heuristic.restarts").add(attempt_index + 1);
      return fp;
    }
  }
  return std::nullopt;
}

bool placeFcAreas(const model::FloorplanProblem& problem, const search::Occupancy& forbidden,
                  const std::vector<Rect>& regions, std::vector<model::FcArea>& areas) {
  const device::Device& dev = problem.dev();
  search::Occupancy occ(dev.width(), dev.height());
  for (const Rect& r : regions) occ.fill(r);
  std::vector<std::uint64_t> rows(static_cast<std::size_t>(forbidden.wordsPerColumn()));
  std::vector<Rect> candidates;
  std::size_t slot = 0;
  for (const model::RelocationRequest& req : problem.relocations()) {
    candidates.clear();
    search::appendCompatibleRects(dev, forbidden, regions[static_cast<std::size_t>(req.region)],
                                  rows.data(), candidates);
    for (int i = 0; i < req.count; ++i, ++slot) {
      model::FcArea& area = areas[slot];
      area.placed = false;
      for (const Rect& cand : candidates) {
        if (occ.overlaps(cand)) continue;
        occ.fill(cand);
        area.rect = cand;
        area.placed = true;
        break;
      }
      if (!area.placed && req.hard) return false;
    }
  }
  return true;
}

}  // namespace rfp::fp
