// Tests for the MILP formulation (the paper's core): encode/solve/extract
// round trips, both offset encodings, relocation constraints and metrics.
#include <gtest/gtest.h>

#include "device/builders.hpp"
#include "fp/formulation.hpp"
#include "support/check.hpp"
#include "milp/bb.hpp"
#include "partition/columnar.hpp"
#include "search/solver.hpp"

namespace rfp::fp {
namespace {

using device::Rect;

struct Fixture {
  device::Device dev;
  model::FloorplanProblem problem;
  partition::ColumnarPartition part;

  explicit Fixture(const std::string& pattern, int rows)
      : dev(device::columnarFromPattern("t", pattern, rows)), problem(&dev),
        part(*partition::columnarPartition(dev)) {}
};

TEST(Formulation, EncodeOfValidFloorplanIsModelFeasible) {
  Fixture f("CCBCC", 4);
  f.problem.addRegion(model::RegionSpec{"a", {2, 1, 0}});
  f.problem.addRegion(model::RegionSpec{"b", {2, 0, 0}});
  f.problem.addNet(model::Net{{0, 1}, 1.0, "n"});
  MilpFormulation formulation(f.problem, f.part);

  model::Floorplan fp;
  fp.regions = {Rect{1, 0, 2, 2}, Rect{3, 2, 2, 1}};
  fp.fc_areas = model::expandFcRequests(f.problem);
  ASSERT_EQ(model::check(f.problem, fp), "");
  const std::vector<double> encoded = formulation.encode(fp);
  EXPECT_TRUE(formulation.model().isFeasible(encoded, 1e-6))
      << formulation.model().toString();
}

TEST(Formulation, EncodeRejectsUnplacedHardFc) {
  Fixture f("CCBCC", 4);
  f.problem.addRegion(model::RegionSpec{"a", {1, 0, 0}});
  f.problem.addRelocation(model::RelocationRequest{0, 1, true, 1.0});
  MilpFormulation formulation(f.problem, f.part);
  model::Floorplan fp;
  fp.regions = {Rect{0, 0, 1, 1}};
  fp.fc_areas = model::expandFcRequests(f.problem);
  EXPECT_THROW((void)formulation.encode(fp), rfp::CheckError);
}

TEST(Formulation, EncodeWithPlacedFcIsFeasibleBothEncodings) {
  for (const OffsetEncoding enc : {OffsetEncoding::kChain, OffsetEncoding::kPaper}) {
    Fixture f("CBCCBC", 3);
    f.problem.addRegion(model::RegionSpec{"r", {1, 1, 0}});
    f.problem.addRelocation(model::RelocationRequest{0, 1, true, 1.0});
    FormulationOptions opt;
    opt.offset = enc;
    MilpFormulation formulation(f.problem, f.part, opt);
    model::Floorplan fp;
    fp.regions = {Rect{0, 0, 2, 1}};
    fp.fc_areas = model::expandFcRequests(f.problem);
    fp.fc_areas[0].placed = true;
    fp.fc_areas[0].rect = Rect{3, 1, 2, 1};
    ASSERT_EQ(model::check(f.problem, fp), "");
    const std::vector<double> encoded = formulation.encode(fp);
    EXPECT_TRUE(formulation.model().isFeasible(encoded, 1e-6))
        << "encoding " << static_cast<int>(enc);
  }
}

TEST(Formulation, EncodeOfIncompatibleFcViolatesModel) {
  Fixture f("CBCCBC", 3);
  f.problem.addRegion(model::RegionSpec{"r", {1, 1, 0}});
  f.problem.addRelocation(model::RelocationRequest{0, 1, true, 1.0});
  MilpFormulation formulation(f.problem, f.part);
  model::Floorplan fp;
  fp.regions = {Rect{0, 0, 2, 1}};  // pattern C B
  fp.fc_areas = model::expandFcRequests(f.problem);
  fp.fc_areas[0].placed = true;
  fp.fc_areas[0].rect = Rect{2, 0, 2, 1};  // pattern C C → incompatible
  const std::vector<double> encoded = formulation.encode(fp);
  EXPECT_FALSE(formulation.model().isFeasible(encoded, 1e-6));
}

TEST(Formulation, MilpSolveMatchesSearchOptimum) {
  // Small instance solved by both the MILP (O) and the exact search: the
  // optimal wasted frames must agree (cross-validation of the two paths).
  Fixture f("CCBCC", 3);
  f.problem.addRegion(model::RegionSpec{"a", {2, 1, 0}});
  f.problem.addRegion(model::RegionSpec{"b", {2, 0, 0}});

  FormulationOptions fopt;
  fopt.objective = ObjectiveKind::kWastedFrames;
  MilpFormulation formulation(f.problem, f.part, fopt);
  const milp::MipResult mip = milp::MilpSolver().solve(formulation.model());
  ASSERT_EQ(mip.status, milp::MipStatus::kOptimal);

  const search::SearchResult sres = search::ColumnarSearchSolver().solve(f.problem);
  ASSERT_EQ(sres.status, model::SolveStatus::kOptimal);

  const model::Floorplan fp = formulation.extract(mip.x);
  EXPECT_EQ(model::check(f.problem, fp), "");
  EXPECT_EQ(model::evaluate(f.problem, fp).wasted_frames, sres.costs.wasted_frames);
}

TEST(Formulation, RelocationConstraintMilpMatchesSearch) {
  Fixture f("CCBCC", 4);
  f.problem.addRegion(model::RegionSpec{"a", {2, 0, 0}});
  f.problem.addRelocation(model::RelocationRequest{0, 1, true, 1.0});

  FormulationOptions fopt;
  fopt.objective = ObjectiveKind::kWastedFrames;
  MilpFormulation formulation(f.problem, f.part, fopt);
  const milp::MipResult mip = milp::MilpSolver().solve(formulation.model());
  ASSERT_EQ(mip.status, milp::MipStatus::kOptimal);
  const model::Floorplan fp = formulation.extract(mip.x);
  ASSERT_EQ(model::check(f.problem, fp), "");
  EXPECT_EQ(fp.placedFcCount(), 1);

  const search::SearchResult sres = search::ColumnarSearchSolver().solve(f.problem);
  EXPECT_EQ(model::evaluate(f.problem, fp).wasted_frames, sres.costs.wasted_frames);
}

TEST(Formulation, InfeasibleRelocationDetectedByMilp) {
  // Device too small for a region + its FC copy.
  Fixture f("CC", 2);
  f.problem.addRegion(model::RegionSpec{"r", {4, 0, 0}});
  f.problem.addRelocation(model::RelocationRequest{0, 1, true, 1.0});
  FormulationOptions fopt;
  fopt.objective = ObjectiveKind::kWastedFrames;
  MilpFormulation formulation(f.problem, f.part, fopt);
  const milp::MipResult mip = milp::MilpSolver().solve(formulation.model());
  EXPECT_EQ(mip.status, milp::MipStatus::kInfeasible);
}

TEST(Formulation, SoftRelocationUsesViolationBinary) {
  // Region fills the device: the soft FC cannot be placed; v_c = 1 keeps the
  // model feasible (Sec. V) and the RL term shows in the objective.
  Fixture f("CC", 2);
  f.problem.addRegion(model::RegionSpec{"r", {4, 0, 0}});
  f.problem.addRelocation(model::RelocationRequest{0, 1, false, 1.0});
  f.problem.setWeights(model::ObjectiveWeights{0, 0, 1, 1});
  FormulationOptions fopt;
  fopt.objective = ObjectiveKind::kWeighted;
  MilpFormulation formulation(f.problem, f.part, fopt);
  EXPECT_TRUE(formulation.hasSoftSlots());
  const milp::MipResult mip = milp::MilpSolver().solve(formulation.model());
  ASSERT_EQ(mip.status, milp::MipStatus::kOptimal);
  const model::Floorplan fp = formulation.extract(mip.x);
  EXPECT_EQ(fp.placedFcCount(), 0);
  EXPECT_EQ(model::check(f.problem, fp), "");
}

TEST(Formulation, TightenedAndBigMTypeMatchAgree) {
  for (const TypeMatchEncoding enc :
       {TypeMatchEncoding::kTightened, TypeMatchEncoding::kBigM}) {
    Fixture f("CBCCBC", 3);
    f.problem.addRegion(model::RegionSpec{"r", {1, 1, 0}});
    f.problem.addRelocation(model::RelocationRequest{0, 1, true, 1.0});
    FormulationOptions opt;
    opt.type_match = enc;
    opt.objective = ObjectiveKind::kWastedFrames;
    MilpFormulation formulation(f.problem, f.part, opt);
    const milp::MipResult mip = milp::MilpSolver().solve(formulation.model());
    ASSERT_EQ(mip.status, milp::MipStatus::kOptimal) << static_cast<int>(enc);
    const model::Floorplan fp = formulation.extract(mip.x);
    EXPECT_EQ(model::check(f.problem, fp), "") << static_cast<int>(enc);
  }
}

TEST(Formulation, WasteCapRestrictsStageTwo) {
  Fixture f("CCCC", 3);
  f.problem.addRegion(model::RegionSpec{"a", {2, 0, 0}});
  FormulationOptions fopt;
  fopt.objective = ObjectiveKind::kWireLength;
  MilpFormulation formulation(f.problem, f.part, fopt);
  formulation.addWasteCap(0);
  const milp::MipResult mip = milp::MilpSolver().solve(formulation.model());
  ASSERT_EQ(mip.status, milp::MipStatus::kOptimal);
  const model::Floorplan fp = formulation.extract(mip.x);
  EXPECT_EQ(model::evaluate(f.problem, fp).wasted_frames, 0);
}

TEST(Formulation, ForbiddenAreasExcludedByEq1Eq2) {
  Fixture f("CCCC", 4);
  const_cast<device::Device&>(f.problem.dev()).addForbidden(Rect{1, 1, 2, 2}, "hard");
  // Re-partition after adding the forbidden area.
  f.part = *partition::columnarPartition(f.problem.dev());
  f.problem.addRegion(model::RegionSpec{"r", {4, 0, 0}});
  FormulationOptions fopt;
  fopt.objective = ObjectiveKind::kWastedFrames;
  MilpFormulation formulation(f.problem, f.part, fopt);
  const milp::MipResult mip = milp::MilpSolver().solve(formulation.model());
  ASSERT_EQ(mip.status, milp::MipStatus::kOptimal);
  const model::Floorplan fp = formulation.extract(mip.x);
  EXPECT_EQ(model::check(f.problem, fp), "");  // checker verifies forbidden avoidance
}

}  // namespace
}  // namespace rfp::fp
