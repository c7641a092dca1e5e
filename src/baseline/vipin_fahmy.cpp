#include "baseline/vipin_fahmy.hpp"

#include <algorithm>
#include <numeric>

#include "search/candidates.hpp"
#include "search/occupancy.hpp"

namespace rfp::baseline {

namespace {

using device::Rect;

struct Candidate {
  Rect rect;
  long frames = 0;  ///< covered frames (partial-bitstream size)
  long waste = 0;
};

std::vector<Candidate> candidatesFor(const model::FloorplanProblem& problem, int n) {
  const device::Device& dev = problem.dev();
  std::vector<Candidate> out;
  for (const search::Shape& s :
       search::enumerateCandidates(problem, n, /*max_waste=*/-1).shapes) {
    if (s.h % kClockRegionRows != 0) continue;
    for (const int y : s.ys) {
      if (y % kClockRegionRows != 0) continue;  // aligned to clock-region bands
      Candidate c;
      c.rect = Rect{s.x, y, s.w, s.h};
      c.frames = dev.framesInRect(c.rect);
      c.waste = s.waste;
      out.push_back(c);
    }
  }
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    if (a.frames != b.frames) return a.frames < b.frames;
    if (a.waste != b.waste) return a.waste < b.waste;
    if (a.rect.x != b.rect.x) return a.rect.x < b.rect.x;
    return a.rect.y < b.rect.y;
  });
  return out;
}

}  // namespace

std::optional<model::Floorplan> vipinFahmyFloorplan(const model::FloorplanProblem& problem) {
  const device::Device& dev = problem.dev();

  std::vector<int> order(static_cast<std::size_t>(problem.numRegions()));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return problem.minFrames(a) > problem.minFrames(b);
  });

  search::Occupancy occ(dev.width(), dev.height());
  model::Floorplan fp;
  fp.regions.resize(static_cast<std::size_t>(problem.numRegions()));
  for (const int n : order) {
    bool placed = false;
    for (const Candidate& c : candidatesFor(problem, n)) {
      if (occ.overlaps(c.rect)) continue;
      occ.fill(c.rect);
      fp.regions[static_cast<std::size_t>(n)] = c.rect;
      placed = true;
      break;
    }
    if (!placed) return std::nullopt;
  }
  fp.fc_areas = model::expandFcRequests(problem);  // left unplaced: relocation-unaware
  return fp;
}

}  // namespace rfp::baseline
