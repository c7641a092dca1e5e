// End-to-end tests for the O and HO MILP floorplanning flows.
#include <gtest/gtest.h>

#include <string>

#include "device/builders.hpp"
#include "fp/milp_floorplanner.hpp"
#include "search/solver.hpp"

namespace rfp::fp {
namespace {

model::FloorplanProblem smallProblem(const device::Device& dev) {
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"a", {2, 1, 0}});
  p.addRegion(model::RegionSpec{"b", {2, 0, 0}});
  p.addNet(model::Net{{0, 1}, 1.0, "n"});
  return p;
}

TEST(MilpFloorplanner, OLexicographicMatchesSearch) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCC", 3);
  const model::FloorplanProblem p = smallProblem(dev);

  MilpFloorplannerOptions opt;
  opt.algorithm = Algorithm::kO;
  const FpResult milp_res = MilpFloorplanner(opt).solve(p);
  ASSERT_TRUE(milp_res.hasSolution()) << milp_res.detail;
  EXPECT_EQ(model::check(p, milp_res.plan), "");

  const search::SearchResult sres = search::ColumnarSearchSolver().solve(p);
  ASSERT_EQ(sres.status, search::SearchStatus::kOptimal);
  EXPECT_EQ(milp_res.costs.wasted_frames, sres.costs.wasted_frames);
  EXPECT_NEAR(milp_res.costs.wire_length, sres.costs.wire_length, 1e-6);
}

TEST(MilpFloorplanner, OTwoThreadsMatchesOneThread) {
  // Thread count changes neither status nor cost. The per-worker figures
  // of both lexicographic stages merge by worker id: one worker at one
  // thread, two at two, and their nodes sum to the solve's total.
  const device::Device dev = device::columnarFromPattern("t", "CCBCC", 3);
  const model::FloorplanProblem p = smallProblem(dev);
  std::vector<FpResult> results;
  for (const int threads : {1, 2}) {
    MilpFloorplannerOptions opt;
    opt.algorithm = Algorithm::kO;
    opt.milp.threads = threads;
    const FpResult res = MilpFloorplanner(opt).solve(p);
    ASSERT_TRUE(res.hasSolution()) << threads << " threads: " << res.detail;
    EXPECT_EQ(model::check(p, res.plan), "") << threads << " threads";
    ASSERT_EQ(res.workers.size(), static_cast<std::size_t>(threads));
    long nodes = 0;
    for (const milp::MipWorkerStats& w : res.workers) nodes += w.nodes;
    EXPECT_EQ(nodes, res.nodes) << threads << " threads";
    results.push_back(res);
  }
  EXPECT_EQ(results[0].status, results[1].status);
  EXPECT_EQ(results[0].costs.wasted_frames, results[1].costs.wasted_frames);
  EXPECT_NEAR(results[0].costs.wire_length, results[1].costs.wire_length, 1e-6);
}

TEST(MilpFloorplanner, HoProducesValidSolutionQuickly) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"a", {3, 1, 0}});
  p.addRegion(model::RegionSpec{"b", {2, 0, 1}});
  p.addNet(model::Net{{0, 1}, 4.0, "n"});

  MilpFloorplannerOptions opt;
  opt.algorithm = Algorithm::kHO;
  const FpResult res = MilpFloorplanner(opt).solve(p);
  ASSERT_TRUE(res.hasSolution()) << res.detail;
  EXPECT_EQ(model::check(p, res.plan), "");
}

TEST(MilpFloorplanner, HoNeverWorseThanItsHeuristicStart) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"a", {3, 1, 0}});
  p.addRegion(model::RegionSpec{"b", {2, 0, 1}});
  const auto heuristic = constructiveFloorplan(p);
  ASSERT_TRUE(heuristic.has_value());
  const long heuristic_waste = model::evaluate(p, *heuristic).wasted_frames;

  MilpFloorplannerOptions opt;
  opt.algorithm = Algorithm::kHO;
  const FpResult res = MilpFloorplanner(opt).solve(p);
  ASSERT_TRUE(res.hasSolution());
  EXPECT_LE(res.costs.wasted_frames, heuristic_waste);
}

TEST(MilpFloorplanner, RelocationConstraintEndToEnd) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCC", 4);
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"a", {2, 0, 0}});
  p.addRelocation(model::RelocationRequest{0, 1, true, 1.0});

  MilpFloorplannerOptions opt;
  opt.algorithm = Algorithm::kO;
  const FpResult res = MilpFloorplanner(opt).solve(p);
  ASSERT_TRUE(res.hasSolution()) << res.detail;
  EXPECT_EQ(res.plan.placedFcCount(), 1);
  EXPECT_EQ(model::check(p, res.plan), "");
}

TEST(MilpFloorplanner, WeightedObjectiveMode) {
  const device::Device dev = device::columnarFromPattern("t", "CCCC", 3);
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"a", {2, 0, 0}});
  p.addRelocation(model::RelocationRequest{0, 1, false, 1.0});
  p.setWeights(model::ObjectiveWeights{1, 0, 1, 1});

  MilpFloorplannerOptions opt;
  opt.algorithm = Algorithm::kO;
  opt.lexicographic = false;
  const FpResult res = MilpFloorplanner(opt).solve(p);
  ASSERT_TRUE(res.hasSolution()) << res.detail;
  EXPECT_EQ(model::check(p, res.plan), "");
  EXPECT_EQ(res.plan.placedFcCount(), 1);  // room exists → placing is cheaper
}

TEST(MilpFloorplanner, InfeasibleProblemReported) {
  const device::Device dev = device::columnarFromPattern("t", "CC", 2);
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"r", {4, 0, 0}});
  p.addRelocation(model::RelocationRequest{0, 1, true, 1.0});
  MilpFloorplannerOptions opt;
  opt.algorithm = Algorithm::kO;
  const FpResult res = MilpFloorplanner(opt).solve(p);
  EXPECT_FALSE(res.hasSolution());
}

TEST(MilpFloorplanner, LpMemoryGateDeclinesOverCapAndZeroDisablesIt) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCC", 3);
  const model::FloorplanProblem p = smallProblem(dev);
  MilpFloorplannerOptions opt;
  opt.algorithm = Algorithm::kO;
  opt.max_lp_gib = 1e-6;  // ~1 KiB: below any formulation's estimate
  const FpResult declined = MilpFloorplanner(opt).solve(p);
  EXPECT_EQ(declined.status, FpStatus::kNoSolution);
  EXPECT_NE(declined.detail.find("declined:"), std::string::npos) << declined.detail;
  EXPECT_EQ(declined.lp.solves, 0);

  opt.max_lp_gib = 0;  // no cap
  const FpResult admitted = MilpFloorplanner(opt).solve(p);
  ASSERT_TRUE(admitted.hasSolution()) << admitted.detail;
  EXPECT_EQ(admitted.detail.find("declined:"), std::string::npos) << admitted.detail;
  EXPECT_GT(admitted.lp.solves, 0);
}

TEST(MilpFloorplanner, WarmRootChainMatchesColdPath) {
  // Every fixture above, under default options: warm and cold LP paths give
  // the same answer, and the warm path really is warm on these small
  // models — branching fixtures reoptimize their nodes from the parent
  // basis through the dual simplex.
  const device::Device dev5 = device::columnarFromPattern("t", "CCBCC", 3);
  const device::Device dev8 = device::columnarFromPattern("t", "CCBCCDCC", 4);
  const device::Device dev5r = device::columnarFromPattern("t", "CCBCC", 4);
  const device::Device dev4 = device::columnarFromPattern("t", "CCCC", 3);
  const device::Device dev2 = device::columnarFromPattern("t", "CC", 2);
  std::vector<model::FloorplanProblem> problems;
  problems.push_back(smallProblem(dev5));
  problems.emplace_back(&dev8);
  problems.back().addRegion(model::RegionSpec{"a", {3, 1, 0}});
  problems.back().addRegion(model::RegionSpec{"b", {2, 0, 1}});
  problems.back().addNet(model::Net{{0, 1}, 4.0, "n"});
  problems.emplace_back(&dev5r);
  problems.back().addRegion(model::RegionSpec{"a", {2, 0, 0}});
  problems.back().addRelocation(model::RelocationRequest{0, 1, true, 1.0});
  problems.emplace_back(&dev4);
  problems.back().addRegion(model::RegionSpec{"a", {2, 0, 0}});
  problems.back().addRelocation(model::RelocationRequest{0, 1, false, 1.0});
  problems.back().setWeights(model::ObjectiveWeights{1, 0, 1, 1});
  problems.emplace_back(&dev2);
  problems.back().addRegion(model::RegionSpec{"r", {4, 0, 0}});
  problems.back().addRelocation(model::RelocationRequest{0, 1, true, 1.0});

  int warm_branching_runs = 0;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    for (const Algorithm algo : {Algorithm::kO, Algorithm::kHO}) {
      MilpFloorplannerOptions warm;
      warm.algorithm = algo;
      warm.lexicographic = i != 3;  // the weighted fixture
      MilpFloorplannerOptions cold = warm;
      cold.milp.lp_warm_start = false;
      const FpResult w = MilpFloorplanner(warm).solve(problems[i]);
      const FpResult c = MilpFloorplanner(cold).solve(problems[i]);
      ASSERT_EQ(w.status, c.status) << "fixture " << i;
      EXPECT_EQ(c.lp.warm_start_hits, 0) << "fixture " << i;
      if (w.nodes > 1 && w.lp.warm_start_hits > 0 && w.lp.dual_reopts > 0) ++warm_branching_runs;
      if (!w.hasSolution()) continue;
      EXPECT_EQ(model::check(problems[i], w.plan), "") << "fixture " << i;
      if (warm.lexicographic) {
        EXPECT_EQ(w.costs.wasted_frames, c.costs.wasted_frames) << "fixture " << i;
        EXPECT_NEAR(w.costs.wire_length, c.costs.wire_length, 1e-6) << "fixture " << i;
      } else {
        EXPECT_NEAR(w.costs.objective, c.costs.objective, 1e-6) << "fixture " << i;
      }
    }
  }
  EXPECT_GT(warm_branching_runs, 0);
}

}  // namespace
}  // namespace rfp::fp
