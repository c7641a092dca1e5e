// Tests for the baselines: Vipin–Fahmy reconstruction ([8]) and the
// simulated-annealing floorplanner ([9]-style).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "baseline/annealer.hpp"
#include "baseline/vipin_fahmy.hpp"
#include "device/builders.hpp"
#include "fp/heuristic.hpp"
#include "model/floorplan.hpp"
#include "oracle/generator.hpp"
#include "search/solver.hpp"

namespace rfp::baseline {
namespace {

TEST(VipinFahmy, ProducesValidSdrFloorplan) {
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem sdr = model::makeSdrProblem(dev);
  const auto fp = vipinFahmyFloorplan(sdr);
  ASSERT_TRUE(fp.has_value());
  EXPECT_EQ(model::check(sdr, *fp), "");
}

TEST(VipinFahmy, WastesMoreThanTheExactFloorplanner) {
  // Table II's qualitative gap: the reconfiguration-centric heuristic wastes
  // more frames than the exact MILP/search optimum.
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem sdr = model::makeSdrProblem(dev);
  const auto fp = vipinFahmyFloorplan(sdr);
  ASSERT_TRUE(fp.has_value());
  const long heuristic_waste = model::evaluate(sdr, *fp).wasted_frames;

  search::SearchOptions sopt;
  sopt.num_threads = 8;
  const search::SearchResult opt = search::ColumnarSearchSolver(sopt).solve(sdr);
  ASSERT_EQ(opt.status, model::SolveStatus::kOptimal);
  EXPECT_GT(heuristic_waste, opt.costs.wasted_frames);
}

TEST(VipinFahmy, HeightsAlignToClockRegionGranularity) {
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem sdr = model::makeSdrProblem(dev);
  const auto fp = vipinFahmyFloorplan(sdr);
  ASSERT_TRUE(fp.has_value());
  for (const device::Rect& r : fp->regions) {
    EXPECT_EQ(r.h % 2, 0);
    EXPECT_EQ(r.y % 2, 0);
  }
}

TEST(VipinFahmy, FailsCleanlyWhenDeviceTooSmall) {
  const device::Device dev = device::columnarFromPattern("t", "CC", 2);
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"r", {5, 0, 0}});
  EXPECT_FALSE(vipinFahmyFloorplan(p).has_value());
}

TEST(Annealer, ImprovesOrMatchesConstructiveStart) {
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem sdr = model::makeSdrProblem(dev);
  AnnealerOptions opt;
  opt.iterations = 20000;
  const auto res = annealFloorplan(sdr, opt);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(model::check(sdr, res->plan), "");
  EXPECT_GT(res->accepted_moves, 0);
}

TEST(Annealer, HonorsHardRelocationRequests) {
  const device::Device dev = device::virtex5FX70T();
  model::FloorplanProblem sdr2 = model::makeSdrProblem(dev);
  model::addSdrRelocations(sdr2, 2);
  AnnealerOptions opt;
  opt.iterations = 5000;
  const auto res = annealFloorplan(sdr2, opt);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(model::check(sdr2, res->plan), "");
  EXPECT_EQ(res->plan.placedFcCount(), 6);
}

TEST(Annealer, DeterministicForFixedSeed) {
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem sdr = model::makeSdrProblem(dev);
  AnnealerOptions opt;
  opt.iterations = 3000;
  opt.seed = 7;
  const auto a = annealFloorplan(sdr, opt);
  const auto b = annealFloorplan(sdr, opt);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->costs.wasted_frames, b->costs.wasted_frames);
  EXPECT_DOUBLE_EQ(a->costs.wire_length, b->costs.wire_length);
}

/// 64-bit FNV-1a over the bytes of each added word.
struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void add(const device::Rect& r) {
    for (const int v : {r.x, r.y, r.w, r.h}) add(static_cast<std::uint64_t>(v));
  }
  void add(const model::Floorplan& plan) {
    for (const device::Rect& r : plan.regions) add(r);
    for (const model::FcArea& a : plan.fc_areas) {
      add(a.placed ? 1u : 0u);
      if (a.placed) add(a.rect);
    }
  }
};

TEST(FcPlacement, HeuristicAndAnnealerPlansArePinned) {
  // The plans of the constructive heuristic and of an iteration-bounded
  // annealer, folded into one hash: both place free-compatible areas first
  // fit, so a change in the order their candidates are tried moves a plan
  // here. The paper's SDR, SDR2 and SDR3, then generated problems with hard
  // and soft FC requests, on a device with a forbidden block too.
  const device::Device fx = device::virtex5FX70T();
  std::vector<model::FloorplanProblem> problems;
  for (const int fc_per_region : {0, 2, 3}) {
    model::FloorplanProblem p = model::makeSdrProblem(fx);
    if (fc_per_region > 0) model::addSdrRelocations(p, fc_per_region);
    problems.push_back(p);
  }
  const device::Device wide = device::columnarFromPattern("wide", "CCBCCDCCCCBC", 6);
  device::Device blocked = device::columnarFromPattern("blocked", "CCBCCDCCBCCD", 8);
  blocked.addForbidden(device::Rect{4, 2, 2, 3}, "block");
  struct Config {
    const device::Device* dev;
    int fc_per_region;
    bool soft;
  };
  const Config configs[] = {{&wide, 1, false}, {&wide, 2, false}, {&blocked, 1, false},
                            {&blocked, 1, true}};
  for (const Config& c : configs) {
    model::GeneratorOptions gopt;
    gopt.num_regions = 3;
    gopt.max_region_width = 3;
    gopt.max_region_height = 2;
    gopt.fc_per_region = c.fc_per_region;
    gopt.soft_relocation = c.soft;
    for (gopt.seed = 1; gopt.seed <= 20; ++gopt.seed)
      if (auto p = model::generateProblem(*c.dev, gopt)) problems.push_back(*p);
  }
  ASSERT_EQ(problems.size(), 83u);  // 80 of them generated

  Fnv1a hash;
  int constructed = 0;
  int placed_fc = 0;
  for (const model::FloorplanProblem& p : problems) {
    const std::optional<model::Floorplan> start = fp::constructiveFloorplan(p);
    hash.add(start ? 1u : 0u);
    if (!start) continue;
    ++constructed;
    placed_fc += start->placedFcCount();
    hash.add(*start);
    AnnealerOptions opt;
    opt.iterations = 3000;
    const std::optional<AnnealResult> res = annealFloorplan(p, opt);
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(model::check(p, res->plan), "");
    hash.add(res->plan);
    hash.add(static_cast<std::uint64_t>(res->accepted_moves));
  }
  EXPECT_EQ(constructed, 80);
  EXPECT_EQ(placed_fc, 294);
  EXPECT_EQ(hash.h, 0xeb9dfa9dd87ccfb0ull);
}

}  // namespace
}  // namespace rfp::baseline
