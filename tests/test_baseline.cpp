// Tests for the baselines: Vipin–Fahmy reconstruction ([8]) and the
// simulated-annealing floorplanner ([9]-style).
#include <gtest/gtest.h>

#include "baseline/annealer.hpp"
#include "baseline/vipin_fahmy.hpp"
#include "device/builders.hpp"
#include "model/floorplan.hpp"
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

}  // namespace
}  // namespace rfp::baseline
