// Instance generator: structural validity, feasibility-by-construction, and
// determinism; plus randomized cross-validation of the exact search solver
// against the MILP floorplanner on generated instances.
#include <gtest/gtest.h>

#include "device/builders.hpp"
#include "fp/milp_floorplanner.hpp"
#include "model/floorplan.hpp"
#include "oracle/generator.hpp"
#include "search/solver.hpp"

namespace rfp::model {
namespace {

TEST(Generator, ProducesStructurallyValidProblems) {
  const device::Device dev = device::virtex5FX70T();
  GeneratorOptions opt;
  opt.num_regions = 5;
  opt.num_nets = 4;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    opt.seed = seed;
    const auto p = generateProblem(dev, opt);
    ASSERT_TRUE(p.has_value()) << "seed " << seed;
    EXPECT_EQ(p->validate(), "") << "seed " << seed;
    EXPECT_EQ(p->numRegions(), 5);
    EXPECT_EQ(p->nets().size(), 4u);
  }
}

TEST(Generator, IsDeterministicPerSeed) {
  const device::Device dev = device::virtex5FX70T();
  GeneratorOptions opt;
  opt.seed = 42;
  const auto a = generateProblem(dev, opt);
  const auto b = generateProblem(dev, opt);
  ASSERT_TRUE(a && b);
  ASSERT_EQ(a->numRegions(), b->numRegions());
  for (int n = 0; n < a->numRegions(); ++n) EXPECT_EQ(a->region(n).tiles, b->region(n).tiles);
  opt.seed = 43;
  const auto c = generateProblem(dev, opt);
  ASSERT_TRUE(c);
  bool any_diff = false;
  for (int n = 0; n < a->numRegions() && !any_diff; ++n)
    any_diff = a->region(n).tiles != c->region(n).tiles;
  EXPECT_TRUE(any_diff) << "different seeds should give different instances";
}

TEST(Generator, GeneratedProblemsAreFeasible) {
  // Feasible-by-construction: the exact solver must find a solution.
  const device::Device dev = device::virtex5FX70T();
  GeneratorOptions opt;
  opt.num_regions = 4;
  search::SearchOptions sopt;
  sopt.feasibility_only = true;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    opt.seed = seed;
    const auto p = generateProblem(dev, opt);
    ASSERT_TRUE(p.has_value());
    const search::SearchResult res = search::ColumnarSearchSolver(sopt).solve(*p);
    EXPECT_TRUE(res.hasSolution()) << "seed " << seed;
  }
}

TEST(Generator, SlackReducesRequirements) {
  const device::Device dev = device::virtex5FX70T();
  GeneratorOptions tight;
  tight.seed = 7;
  GeneratorOptions loose = tight;
  loose.requirement_slack = 0.5;
  const auto a = generateProblem(dev, tight);
  const auto b = generateProblem(dev, loose);
  ASSERT_TRUE(a && b);
  long total_a = 0, total_b = 0;
  for (int n = 0; n < a->numRegions(); ++n)
    for (int t = 0; t < dev.numTileTypes(); ++t) {
      total_a += a->region(n).required(t);
      total_b += b->region(n).required(t);
    }
  EXPECT_LT(total_b, total_a);
}

TEST(Generator, RelocationRequestsAreAttached) {
  const device::Device dev = device::virtex5FX70T();
  GeneratorOptions opt;
  opt.num_regions = 3;
  opt.fc_per_region = 2;
  const auto p = generateProblem(dev, opt);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->totalFcAreas(), 6);
  for (const RelocationRequest& r : p->relocations()) EXPECT_TRUE(r.hard);

  opt.soft_relocation = true;
  const auto q = generateProblem(dev, opt);
  ASSERT_TRUE(q);
  for (const RelocationRequest& r : q->relocations()) EXPECT_FALSE(r.hard);
}

TEST(Generator, FailsGracefullyWhenDeviceTooSmall) {
  const device::Device dev = device::uniformDevice(3, 2);
  GeneratorOptions opt;
  opt.num_regions = 40;  // cannot pack 40 regions on 6 tiles
  EXPECT_FALSE(generateProblem(dev, opt).has_value());
}

// ---- randomized cross-validation -------------------------------------------

struct CrossCheckCase {
  std::uint64_t seed;
  int regions;
};

class SolverCrossCheck : public ::testing::TestWithParam<CrossCheckCase> {};

TEST_P(SolverCrossCheck, MilpMatchesExactSearchOptimum) {
  // Small devices keep the MILP tractable; the exact search is the oracle.
  const device::Device dev = device::columnarFromPattern("x", "CCBCC", 4);
  GeneratorOptions opt;
  opt.num_regions = GetParam().regions;
  opt.max_region_width = 3;
  opt.max_region_height = 2;
  opt.num_nets = 1;
  opt.seed = GetParam().seed;
  const auto p = generateProblem(dev, opt);
  if (!p) GTEST_SKIP() << "packing failed for this seed";

  const search::SearchResult oracle = search::ColumnarSearchSolver().solve(*p);
  ASSERT_EQ(oracle.status, model::SolveStatus::kOptimal);

  fp::MilpFloorplannerOptions mopt;
  mopt.algorithm = fp::Algorithm::kO;
  mopt.milp.time_limit_seconds = 30.0;
  const fp::FpResult milp = fp::MilpFloorplanner(mopt).solve(*p);
  ASSERT_TRUE(milp.hasSolution()) << milp.detail;
  EXPECT_EQ(milp.costs.wasted_frames, oracle.costs.wasted_frames) << milp.detail;
  EXPECT_EQ(model::check(*p, milp.plan), "");
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SolverCrossCheck,
                         ::testing::Values(CrossCheckCase{1, 2}, CrossCheckCase{2, 2},
                                           CrossCheckCase{3, 3}, CrossCheckCase{4, 3},
                                           CrossCheckCase{5, 2}, CrossCheckCase{6, 3}),
                         [](const ::testing::TestParamInfo<CrossCheckCase>& info) {
                           return "seed" + std::to_string(info.param.seed) + "_r" +
                                  std::to_string(info.param.regions);
                         });

}  // namespace
}  // namespace rfp::model
