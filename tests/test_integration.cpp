// Integration tests chaining the full pipeline:
// device → partition → floorplan (search / MILP) → check → bitstream
// relocation between the floorplanner's free-compatible areas.
#include <gtest/gtest.h>

#include "baseline/vipin_fahmy.hpp"
#include "bitstream/bitstream.hpp"
#include "device/builders.hpp"
#include "device/parser.hpp"
#include "fp/milp_floorplanner.hpp"
#include "model/floorplan.hpp"
#include "partition/columnar.hpp"
#include "search/solver.hpp"

namespace rfp {
namespace {

TEST(Integration, Sdr2EndToEndWithBitstreamRelocation) {
  // The headline flow: floorplan SDR2 with hard relocation constraints, then
  // actually relocate a bitstream of each relocatable region into each of
  // its reserved free-compatible areas.
  const device::Device dev = device::virtex5FX70T();
  model::FloorplanProblem sdr2 = model::makeSdrProblem(dev);
  model::addSdrRelocations(sdr2, 2);

  search::SearchOptions opt;
  opt.num_threads = 8;
  const search::SearchResult res = search::ColumnarSearchSolver(opt).solve(sdr2);
  ASSERT_EQ(res.status, model::SolveStatus::kOptimal);
  ASSERT_EQ(model::check(sdr2, res.plan), "");
  ASSERT_EQ(res.plan.placedFcCount(), 6);

  for (const model::FcArea& area : res.plan.fc_areas) {
    ASSERT_TRUE(area.placed);
    const device::Rect& src = res.plan.regions[static_cast<std::size_t>(area.region)];
    const bitstream::PartialBitstream bs =
        bitstream::generateBitstream(dev, src, static_cast<std::uint64_t>(area.region));
    const bitstream::PartialBitstream moved = bitstream::relocateBitstream(dev, bs, area.rect);
    EXPECT_EQ(bitstream::verifyBitstream(dev, moved), "");
    EXPECT_EQ(moved.area, area.rect);
  }
}

TEST(Integration, ParsedDeviceBehavesLikeBuiltDevice) {
  // Round-trip the FX70T through the text format and re-run the headline
  // feasibility analysis on the parsed copy.
  const device::Device built = device::virtex5FX70T();
  const device::Device parsed = device::parseDevice(device::formatDevice(built));
  const model::FloorplanProblem sdr = model::makeSdrProblem(parsed);
  search::SearchOptions opt;
  opt.num_threads = 8;
  const std::vector<bool> reloc =
      search::ColumnarSearchSolver(opt).feasibilityAnalysis(sdr);
  EXPECT_FALSE(reloc[model::kMatchedFilter]);
  EXPECT_TRUE(reloc[model::kCarrierRecovery]);
  EXPECT_FALSE(reloc[model::kVideoDecoder]);
}

TEST(Integration, MilpAndSearchAgreeOnRelocationInstances) {
  // Cross-validation on a medium device with one hard FC request.
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 5);
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"a", {3, 0, 1}});
  p.addRegion(model::RegionSpec{"b", {2, 1, 0}});
  p.addNet(model::Net{{0, 1}, 2.0, "n"});
  p.addRelocation(model::RelocationRequest{1, 1, true, 1.0});

  const search::SearchResult sres = search::ColumnarSearchSolver().solve(p);
  ASSERT_EQ(sres.status, model::SolveStatus::kOptimal);

  fp::MilpFloorplannerOptions mopt;
  mopt.algorithm = fp::Algorithm::kO;
  // Stage 1 (waste) is solved to optimality; stage 2 (wire length under the
  // stage-1 waste cap) may stop at the limit with the warm-started incumbent
  // — the waste cap still pins wasted frames to the proven optimum, which is
  // what this cross-check validates.
  mopt.milp.time_limit_seconds = 20.0;
  const fp::FpResult mres = fp::MilpFloorplanner(mopt).solve(p);
  ASSERT_TRUE(mres.hasSolution()) << mres.detail;

  EXPECT_EQ(mres.costs.wasted_frames, sres.costs.wasted_frames);
  EXPECT_EQ(model::check(p, mres.plan), "");
}

TEST(Integration, TableTwoOrdering) {
  // [8] baseline ≥ PA on wasted frames; SDR2 matches the SDR optimum; SDR3
  // is feasible with all 9 areas (Table II shape).
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem sdr = model::makeSdrProblem(dev);

  const auto vf = baseline::vipinFahmyFloorplan(sdr);
  ASSERT_TRUE(vf.has_value());
  const long vf_waste = model::evaluate(sdr, *vf).wasted_frames;

  search::SearchOptions opt;
  opt.num_threads = 8;
  const long sdr_waste = search::ColumnarSearchSolver(opt).solve(sdr).costs.wasted_frames;

  model::FloorplanProblem sdr2 = model::makeSdrProblem(dev);
  model::addSdrRelocations(sdr2, 2);
  const search::SearchResult r2 = search::ColumnarSearchSolver(opt).solve(sdr2);

  model::FloorplanProblem sdr3 = model::makeSdrProblem(dev);
  model::addSdrRelocations(sdr3, 3);
  const search::SearchResult r3 = search::ColumnarSearchSolver(opt).solve(sdr3);

  ASSERT_TRUE(r2.hasSolution());
  ASSERT_TRUE(r3.hasSolution());
  EXPECT_GT(vf_waste, sdr_waste);                       // heuristic gap
  EXPECT_EQ(r2.costs.wasted_frames, sdr_waste);         // SDR2 at the optimum
  EXPECT_GE(r3.costs.wasted_frames, r2.costs.wasted_frames);
  EXPECT_EQ(r2.plan.placedFcCount(), 6);
  EXPECT_EQ(r3.plan.placedFcCount(), 9);
  // Figs. 4 and 5: the SDR2 and SDR3 floorplans pass the independent checker.
  EXPECT_EQ(model::check(sdr2, r2.plan), "");
  EXPECT_EQ(model::check(sdr3, r3.plan), "");
}

TEST(Integration, ColumnarPartitionFeedsFormulationOnV7Style) {
  const device::Device dev = device::virtex7Style();
  const auto part = partition::columnarPartition(dev);
  ASSERT_TRUE(part.has_value());
  EXPECT_EQ(partition::validateColumnarPartition(dev, *part), "");
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"r", {6, 1, 1}});
  const search::SearchResult res = search::ColumnarSearchSolver().solve(p);
  ASSERT_EQ(res.status, model::SolveStatus::kOptimal);
  EXPECT_EQ(model::check(p, res.plan), "");
}

}  // namespace
}  // namespace rfp
