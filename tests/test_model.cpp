// Tests for the floorplanning problem model, cost evaluation (Eq. 14 terms)
// and the independent solution checker.
#include <gtest/gtest.h>

#include "device/builders.hpp"
#include "model/floorplan.hpp"
#include "model/problem.hpp"
#include "support/check.hpp"

namespace rfp::model {
namespace {

using device::Rect;

FloorplanProblem twoRegionProblem(const device::Device& dev) {
  FloorplanProblem p(&dev);
  p.addRegion(RegionSpec{"r0", {4, 0, 0}});
  p.addRegion(RegionSpec{"r1", {2, 1, 0}});
  p.addNet(Net{{0, 1}, 8.0, "bus"});
  return p;
}

TEST(Problem, SdrMatchesTableOne) {
  const device::Device dev = device::virtex5FX70T();
  const FloorplanProblem sdr = makeSdrProblem(dev);
  ASSERT_EQ(sdr.numRegions(), 5);
  EXPECT_EQ(sdr.minFrames(kMatchedFilter), 1040);
  EXPECT_EQ(sdr.minFrames(kCarrierRecovery), 280);
  EXPECT_EQ(sdr.minFrames(kDemodulator), 240);
  EXPECT_EQ(sdr.minFrames(kSignalDecoder), 462);
  EXPECT_EQ(sdr.minFrames(kVideoDecoder), 2180);
  // Total (Table I): 4202 frames.
  long total = 0;
  for (int n = 0; n < 5; ++n) total += sdr.minFrames(n);
  EXPECT_EQ(total, 4202);
  // Per-type tile totals (Table I): 104 CLB, 5 BRAM, 11 DSP.
  const auto tiles = [&](const char* type) {
    const int t = dev.tileTypeId(type);
    int sum = 0;
    for (int n = 0; n < sdr.numRegions(); ++n) sum += sdr.region(n).required(t);
    return sum;
  };
  EXPECT_EQ(tiles("CLB"), 104);
  EXPECT_EQ(tiles("BRAM"), 5);
  EXPECT_EQ(tiles("DSP"), 11);
  EXPECT_EQ(sdr.nets().size(), 4u);  // sequential 64-bit bus
  EXPECT_EQ(sdr.validate(), "");
}

TEST(Problem, SdrRelocationRequests) {
  const device::Device dev = device::virtex5FX70T();
  FloorplanProblem sdr2 = makeSdrProblem(dev);
  addSdrRelocations(sdr2, 2);
  EXPECT_EQ(sdr2.totalFcAreas(), 6);  // SDR2
  FloorplanProblem sdr3 = makeSdrProblem(dev);
  addSdrRelocations(sdr3, 3);
  EXPECT_EQ(sdr3.totalFcAreas(), 9);  // SDR3
}

TEST(Problem, ValidateCatchesOversubscription) {
  const device::Device dev = device::columnarFromPattern("t", "CCD", 2);
  FloorplanProblem p(&dev);
  p.addRegion(RegionSpec{"big", {10, 0, 0}});  // 10 CLB tiles > 4 available
  EXPECT_NE(p.validate(), "");
}

TEST(Problem, RejectsMalformedInputs) {
  const device::Device dev = device::uniformDevice(4, 4);
  FloorplanProblem p(&dev);
  EXPECT_THROW(p.addRegion(RegionSpec{"none", {}}), CheckError);
  p.addRegion(RegionSpec{"a", {1}});
  EXPECT_THROW(p.addNet(Net{{0}, 1.0, "one-pin"}), CheckError);
  EXPECT_THROW(p.addNet(Net{{0, 7}, 1.0, "dangling"}), CheckError);
  EXPECT_THROW(p.addRelocation(RelocationRequest{3, 1, true, 1.0}), CheckError);
  EXPECT_THROW(p.addRelocation(RelocationRequest{0, 0, true, 1.0}), CheckError);
}

TEST(Evaluate, WasteCountsRegionOveruseOnly) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCC", 4);
  FloorplanProblem p(&dev);
  p.addRegion(RegionSpec{"r", {3, 1, 0}});  // 3 CLB + 1 BRAM tiles
  Floorplan fp;
  fp.regions.push_back(Rect{1, 0, 2, 2});  // covers 2 CLB + 2 BRAM
  // CLB covered 2 < 3 → invalid for check, but waste arithmetic still works:
  // waste = (2-3)·36 + (2-1)·30 = -6.
  EXPECT_EQ(regionWaste(p, 0, fp.regions[0]), -6);
  fp.regions[0] = Rect{0, 0, 3, 2};  // 4 CLB + 2 BRAM → waste 36 + 30
  EXPECT_EQ(regionWaste(p, 0, fp.regions[0]), 66);
}

TEST(Evaluate, WireLengthIsWeightedHpwl) {
  const device::Device dev = device::uniformDevice(10, 10);
  FloorplanProblem p(&dev);
  p.addRegion(RegionSpec{"a", {1}});
  p.addRegion(RegionSpec{"b", {1}});
  p.addNet(Net{{0, 1}, 2.0, "n"});
  const std::vector<Rect> regions{Rect{0, 0, 2, 2}, Rect{4, 4, 2, 2}};
  // centers (1,1) and (5,5): HPWL = 4 + 4 = 8, weighted → 16.
  EXPECT_DOUBLE_EQ(wireLength(p, regions), 16.0);
}

TEST(Evaluate, RelocationCostCountsUnplacedWeighted) {
  const device::Device dev = device::uniformDevice(8, 8);
  FloorplanProblem p(&dev);
  p.addRegion(RegionSpec{"a", {1}});
  p.addRelocation(RelocationRequest{0, 2, false, 0.5});
  Floorplan fp;
  fp.regions.push_back(Rect{0, 0, 1, 1});
  fp.fc_areas = expandFcRequests(p);
  fp.fc_areas[0].placed = true;
  fp.fc_areas[0].rect = Rect{2, 0, 1, 1};
  const FloorplanCosts costs = evaluate(p, fp);
  EXPECT_DOUBLE_EQ(costs.relocation, 0.5);  // one of two placed (Eq. 13)
}

TEST(Check, AcceptsValidFloorplan) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCC", 4);
  FloorplanProblem p = twoRegionProblem(dev);
  Floorplan fp;
  fp.regions = {Rect{0, 0, 2, 2}, Rect{1, 2, 2, 2}};
  // r1 covers cols 1,2 rows 2,3: 2 CLB + 2 BRAM ✓ (needs 2 CLB + 1 BRAM)
  fp.fc_areas = expandFcRequests(p);
  EXPECT_EQ(check(p, fp), "");
}

TEST(Check, RejectsCoverageShortfall) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCC", 4);
  FloorplanProblem p = twoRegionProblem(dev);
  Floorplan fp;
  fp.regions = {Rect{0, 0, 2, 1}, Rect{1, 2, 2, 2}};  // r0 covers 2 CLB < 4
  fp.fc_areas = expandFcRequests(p);
  EXPECT_NE(check(p, fp), "");
}

TEST(Check, RejectsOverlapAndForbidden) {
  device::Device dev = device::columnarFromPattern("t", "CCBCC", 4);
  dev.addForbidden(Rect{3, 0, 1, 1}, "f");
  FloorplanProblem p = twoRegionProblem(dev);
  Floorplan fp;
  fp.regions = {Rect{0, 0, 2, 2}, Rect{1, 1, 2, 2}};  // overlap at (1,1)
  fp.fc_areas = expandFcRequests(p);
  EXPECT_NE(check(p, fp), "");
  fp.regions = {Rect{3, 0, 2, 2}, Rect{0, 2, 3, 2}};  // r0 hits forbidden
  EXPECT_NE(check(p, fp), "");
}

TEST(Check, RejectsIncompatibleFcArea) {
  const device::Device dev = device::columnarFromPattern("t", "CBCCBC", 4);
  FloorplanProblem p(&dev);
  p.addRegion(RegionSpec{"r", {1, 1, 0}});
  p.addRelocation(RelocationRequest{0, 1, true, 1.0});
  Floorplan fp;
  fp.regions = {Rect{0, 0, 2, 1}};  // pattern C B
  fp.fc_areas = expandFcRequests(p);
  fp.fc_areas[0].placed = true;
  fp.fc_areas[0].rect = Rect{1, 0, 2, 1};  // pattern B C → incompatible (also overlaps)
  EXPECT_NE(check(p, fp), "");
  fp.fc_areas[0].rect = Rect{3, 0, 2, 1};  // pattern C B ✓ disjoint ✓
  EXPECT_EQ(check(p, fp), "");
}

TEST(Check, HardRequestMustBePlaced) {
  const device::Device dev = device::uniformDevice(8, 8);
  FloorplanProblem p(&dev);
  p.addRegion(RegionSpec{"r", {1}});
  p.addRelocation(RelocationRequest{0, 1, true, 1.0});
  Floorplan fp;
  fp.regions = {Rect{0, 0, 1, 1}};
  fp.fc_areas = expandFcRequests(p);  // unplaced
  EXPECT_NE(check(p, fp), "");
  // Soft request: unplaced is fine.
  FloorplanProblem q(&dev);
  q.addRegion(RegionSpec{"r", {1}});
  q.addRelocation(RelocationRequest{0, 1, false, 1.0});
  fp.fc_areas = expandFcRequests(q);
  EXPECT_EQ(check(q, fp), "");
}

TEST(Check, ObjectiveEq14CombinesNormalizedTerms) {
  const device::Device dev = device::uniformDevice(10, 10);
  FloorplanProblem p(&dev);
  p.addRegion(RegionSpec{"a", {4}});
  p.setWeights(ObjectiveWeights{0.0, 0.0, 1.0, 0.0});  // waste only
  Floorplan fp;
  fp.regions.push_back(Rect{0, 0, 3, 2});  // 6 tiles, needs 4 → waste 2·36
  fp.fc_areas = expandFcRequests(p);
  const FloorplanCosts costs = evaluate(p, fp);
  EXPECT_EQ(costs.wasted_frames, 72);
  EXPECT_NEAR(costs.objective, 72.0 / dev.totalFrames(), 1e-12);
}

}  // namespace
}  // namespace rfp::model
