#include "oracle/generator.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace rfp::model {

namespace {

using device::Rect;

/// True when `r` overlaps any rect in `placed` or a forbidden area.
bool blocked(const device::Device& dev, const Rect& r, const std::vector<Rect>& placed) {
  if (dev.rectHitsForbidden(r)) return true;
  for (const Rect& p : placed) {
    const bool disjoint =
        r.x2() <= p.x || p.x2() <= r.x || r.y2() <= p.y || p.y2() <= r.y;
    if (!disjoint) return true;
  }
  return false;
}

}  // namespace

std::optional<FloorplanProblem> generateProblem(const device::Device& dev,
                                                const GeneratorOptions& options) {
  RFP_CHECK_MSG(options.num_regions >= 1, "generator needs at least one region");
  RFP_CHECK_MSG(options.requirement_slack >= 0.0 && options.requirement_slack < 1.0,
                "requirement_slack must be in [0, 1)");
  Rng rng(options.seed);

  // Phase 1: pack non-overlapping rectangles (rejection sampling with a
  // bounded number of attempts per region).
  std::vector<Rect> placed;
  placed.reserve(static_cast<std::size_t>(options.num_regions));
  const int max_w = std::min(options.max_region_width, dev.width());
  const int max_h = std::min(options.max_region_height, dev.height());
  for (int n = 0; n < options.num_regions; ++n) {
    bool ok = false;
    for (int attempt = 0; attempt < 200 && !ok; ++attempt) {
      const int w = 1 + static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(max_w)));
      const int h = 1 + static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(max_h)));
      const int x = static_cast<int>(
          rng.nextBelow(static_cast<std::uint64_t>(dev.width() - w + 1)));
      const int y = static_cast<int>(
          rng.nextBelow(static_cast<std::uint64_t>(dev.height() - h + 1)));
      const Rect r{x, y, w, h};
      if (blocked(dev, r, placed)) continue;
      placed.push_back(r);
      ok = true;
    }
    if (!ok) return std::nullopt;
  }

  // Phase 2: requirements from the packed footprints (shaved by the slack).
  FloorplanProblem problem(&dev);
  for (int n = 0; n < options.num_regions; ++n) {
    const std::vector<int> hist = dev.tileHistogram(placed[static_cast<std::size_t>(n)]);
    std::vector<int> req(hist.size(), 0);
    long total = 0;
    for (std::size_t t = 0; t < hist.size(); ++t) {
      req[t] = static_cast<int>(
          static_cast<double>(hist[t]) * (1.0 - options.requirement_slack));
      total += req[t];
    }
    if (total == 0) {
      // Slack shaved everything; keep one tile of the dominant type so the
      // region is structurally valid.
      const std::size_t dominant = static_cast<std::size_t>(
          std::max_element(hist.begin(), hist.end()) - hist.begin());
      req[dominant] = 1;
    }
    problem.addRegion(RegionSpec{"gen_" + std::to_string(n), std::move(req)});
  }

  // Phase 3: random 2-pin nets (self-loops excluded, duplicates allowed —
  // they model bus width through the weight accumulation in HPWL).
  for (int net_index = 0; net_index < options.num_nets && options.num_regions >= 2;
       ++net_index) {
    const int a = static_cast<int>(
        rng.nextBelow(static_cast<std::uint64_t>(options.num_regions)));
    int b = static_cast<int>(
        rng.nextBelow(static_cast<std::uint64_t>(options.num_regions - 1)));
    if (b >= a) ++b;
    const double weight = 1.0 + static_cast<double>(rng.nextBelow(8));
    problem.addNet(Net{{a, b}, weight, "net_" + std::to_string(net_index)});
  }

  // Phase 4: relocation requests.
  if (options.fc_per_region > 0)
    for (int n = 0; n < options.num_regions; ++n)
      problem.addRelocation(RelocationRequest{n, options.fc_per_region,
                                              /*hard=*/!options.soft_relocation, 1.0});

  problem.setLexicographic(true);
  return problem;
}

}  // namespace rfp::model
