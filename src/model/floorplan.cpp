#include "model/floorplan.hpp"

#include <algorithm>
#include <sstream>

#include "partition/compatibility.hpp"
#include "support/check.hpp"

namespace rfp::model {

std::vector<FcArea> expandFcRequests(const FloorplanProblem& problem) {
  std::vector<FcArea> out;
  for (const RelocationRequest& req : problem.relocations())
    for (int i = 0; i < req.count; ++i) {
      FcArea area;
      area.region = req.region;
      area.weight = req.weight;
      out.push_back(area);
    }
  return out;
}

long regionWaste(const FloorplanProblem& problem, int n, const device::Rect& r) {
  const device::Device& dev = problem.dev();
  const std::vector<int> hist = dev.tileHistogram(r);
  long waste = 0;
  for (int t = 0; t < dev.numTileTypes(); ++t)
    waste += static_cast<long>(hist[static_cast<std::size_t>(t)] -
                               problem.region(n).required(t)) *
             dev.tileType(t).frames;
  return waste;
}

double wireLength(const FloorplanProblem& problem, const std::vector<device::Rect>& regions) {
  double total = 0;
  for (const Net& net : problem.nets()) {
    double min_x = 1e30, max_x = -1e30, min_y = 1e30, max_y = -1e30;
    for (const int r : net.regions) {
      const device::Rect& rect = regions[static_cast<std::size_t>(r)];
      min_x = std::min(min_x, rect.centerX());
      max_x = std::max(max_x, rect.centerX());
      min_y = std::min(min_y, rect.centerY());
      max_y = std::max(max_y, rect.centerY());
    }
    total += net.weight * ((max_x - min_x) + (max_y - min_y));
  }
  return total;
}

ObjectiveMaxima objectiveMaxima(const FloorplanProblem& problem) {
  const device::Device& dev = problem.dev();
  ObjectiveMaxima m;
  double wl = 0;
  for (const Net& net : problem.nets()) wl += net.weight * (dev.width() + dev.height());
  double rl = 0;  // Eq. 15
  for (const RelocationRequest& req : problem.relocations())
    for (int i = 0; i < req.count; ++i) rl += req.weight;
  if (wl > 0) m.wl = wl;
  m.p = std::max(1.0, 2.0 * problem.numRegions() * (dev.width() + dev.height()));
  m.r = std::max<double>(1.0, static_cast<double>(dev.totalFrames()));
  if (rl > 0) m.rl = rl;
  return m;
}

FloorplanCosts evaluate(const FloorplanProblem& problem, const Floorplan& fp) {
  RFP_CHECK_MSG(static_cast<int>(fp.regions.size()) == problem.numRegions(),
                "floorplan region count mismatch");
  FloorplanCosts costs;
  for (int n = 0; n < problem.numRegions(); ++n) {
    const device::Rect& r = fp.regions[static_cast<std::size_t>(n)];
    costs.wasted_frames += regionWaste(problem, n, r);
    costs.perimeter += 2.0 * (r.w + r.h);
  }
  costs.wire_length = wireLength(problem, fp.regions);
  for (const FcArea& a : fp.fc_areas)
    if (!a.placed) costs.relocation += a.weight;

  const ObjectiveMaxima m = objectiveMaxima(problem);
  const ObjectiveWeights& q = problem.weights();
  costs.objective = 0;
  costs.objective += q.q1_wirelength * costs.wire_length / m.wl;
  costs.objective += q.q2_perimeter * costs.perimeter / m.p;
  costs.objective += q.q3_wasted * static_cast<double>(costs.wasted_frames) / m.r;
  costs.objective += q.q4_relocation * costs.relocation / m.rl;
  return costs;
}

std::string check(const FloorplanProblem& problem, const Floorplan& fp) {
  const device::Device& dev = problem.dev();
  std::ostringstream os;

  if (static_cast<int>(fp.regions.size()) != problem.numRegions())
    return "wrong number of region placements";

  // Region placements: bounds, forbidden areas, coverage.
  for (int n = 0; n < problem.numRegions(); ++n) {
    const device::Rect& r = fp.regions[static_cast<std::size_t>(n)];
    const std::string& name = problem.region(n).name;
    if (r.empty()) return "region '" + name + "' has an empty rectangle";
    if (!dev.bounds().containsRect(r)) return "region '" + name + "' outside device";
    if (dev.rectHitsForbidden(r)) return "region '" + name + "' crosses a forbidden area";
    const std::vector<int> hist = dev.tileHistogram(r);
    for (int t = 0; t < dev.numTileTypes(); ++t)
      if (hist[static_cast<std::size_t>(t)] < problem.region(n).required(t)) {
        os << "region '" << name << "' covers " << hist[static_cast<std::size_t>(t)] << " "
           << dev.tileType(t).name << " tiles, needs " << problem.region(n).required(t);
        return os.str();
      }
  }

  // FC areas: structure, hard requests placed, compatibility, constraints.
  const std::vector<FcArea> expected = expandFcRequests(problem);
  if (fp.fc_areas.size() != expected.size()) return "wrong number of FC area slots";
  std::size_t slot = 0;
  for (const RelocationRequest& req : problem.relocations())
    for (int i = 0; i < req.count; ++i, ++slot) {
      const FcArea& a = fp.fc_areas[slot];
      if (a.region != req.region) return "FC slot bound to the wrong region";
      if (!a.placed) {
        if (req.hard) return "hard relocation request has an unplaced FC area";
        continue;
      }
      const device::Rect& src = fp.regions[static_cast<std::size_t>(a.region)];
      if (!dev.bounds().containsRect(a.rect)) return "FC area outside device";
      if (dev.rectHitsForbidden(a.rect)) return "FC area crosses a forbidden area";
      if (!partition::areCompatible(dev, src, a.rect)) {
        os << "FC area " << a.rect.toString() << " is not compatible with region '"
           << problem.region(a.region).name << "' at " << src.toString();
        return os.str();
      }
    }

  // Pairwise non-overlap across all placed areas (regions + placed FCs).
  std::vector<std::pair<std::string, device::Rect>> all;
  for (int n = 0; n < problem.numRegions(); ++n)
    all.emplace_back(problem.region(n).name, fp.regions[static_cast<std::size_t>(n)]);
  for (std::size_t i = 0; i < fp.fc_areas.size(); ++i)
    if (fp.fc_areas[i].placed)
      all.emplace_back("fc#" + std::to_string(i), fp.fc_areas[i].rect);
  for (std::size_t i = 0; i < all.size(); ++i)
    for (std::size_t j = i + 1; j < all.size(); ++j)
      if (all[i].second.overlaps(all[j].second)) {
        os << "'" << all[i].first << "' overlaps '" << all[j].first << "'";
        return os.str();
      }
  return "";
}

bool strictlyBetter(const FloorplanProblem& problem, const FloorplanCosts& a,
                    const FloorplanCosts& b) {
  if (problem.lexicographic()) {
    if (a.wasted_frames != b.wasted_frames) return a.wasted_frames < b.wasted_frames;
    return a.wire_length < b.wire_length;
  }
  return a.objective < b.objective;
}

}  // namespace rfp::model
