// Parameterized and randomized property tests spanning modules:
//  * MILP(O) vs exact search agreement on random instances,
//  * encode() of search solutions is always MILP-feasible,
//  * compatibility invariants on random devices,
//  * relocation round trips on random compatible pairs.
#include <gtest/gtest.h>

#include <string>

#include "bitstream/bitstream.hpp"
#include "device/builders.hpp"
#include "driver/driver.hpp"
#include "fp/formulation.hpp"
#include "fp/milp_floorplanner.hpp"
#include "milp/bb.hpp"
#include "model/floorplan.hpp"
#include "oracle/compatibility.hpp"
#include "oracle/generator.hpp"
#include "partition/columnar.hpp"
#include "partition/compatibility.hpp"
#include "search/candidates.hpp"
#include "search/solver.hpp"
#include "support/rng.hpp"

namespace rfp {
namespace {

using device::Rect;

std::string randomPattern(Rng& rng, int min_w, int max_w) {
  const int w = min_w + static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(max_w - min_w + 1)));
  std::string s;
  for (int i = 0; i < w; ++i) {
    const auto roll = rng.nextBelow(10);
    s += roll < 6 ? 'C' : roll < 8 ? 'B' : 'D';
  }
  return s;
}

model::FloorplanProblem randomProblem(const device::Device& dev, Rng& rng, int regions) {
  model::FloorplanProblem p(&dev);
  const std::vector<int> totals = dev.totalTiles(true);
  for (int n = 0; n < regions; ++n) {
    model::RegionSpec spec;
    spec.name = "r" + std::to_string(n);
    spec.tiles.assign(3, 0);
    // Small demands so instances are usually feasible.
    spec.tiles[0] = 1 + static_cast<int>(rng.nextBelow(4));
    if (totals[1] > 4 && rng.nextBool(0.4)) spec.tiles[1] = 1;
    if (totals[2] > 4 && rng.nextBool(0.3)) spec.tiles[2] = 1;
    p.addRegion(spec);
  }
  if (regions >= 2) p.addNet(model::Net{{0, 1}, 1.0, "n"});
  return p;
}

// The central cross-validation property: the from-scratch MILP path and the
// exact combinatorial search must agree on feasibility and on the optimal
// wasted-frame count.
TEST(CrossValidation, MilpAgreesWithSearchOnRandomInstances) {
  Rng rng(4242);
  int solved = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const device::Device dev =
        device::columnarFromPattern("rand", randomPattern(rng, 4, 7), 3);
    model::FloorplanProblem p = randomProblem(dev, rng, 2);
    if (!p.validate().empty()) continue;

    search::SearchResult sres = search::ColumnarSearchSolver().solve(p);

    fp::FormulationOptions fopt;
    fopt.objective = fp::ObjectiveKind::kWastedFrames;
    const auto part = partition::columnarPartition(dev);
    ASSERT_TRUE(part.has_value());
    fp::MilpFormulation formulation(p, *part, fopt);
    milp::MilpSolver::Options mopt;
    mopt.time_limit_seconds = 30;
    const milp::MipResult mip = milp::MilpSolver(mopt).solve(formulation.model());

    if (sres.status == model::SolveStatus::kInfeasible) {
      EXPECT_EQ(mip.status, milp::MipStatus::kInfeasible) << "trial " << trial;
    } else if (sres.status == model::SolveStatus::kOptimal &&
               mip.status == milp::MipStatus::kOptimal) {
      const model::Floorplan fp = formulation.extract(mip.x);
      ASSERT_EQ(model::check(p, fp), "") << "trial " << trial;
      EXPECT_EQ(model::evaluate(p, fp).wasted_frames, sres.costs.wasted_frames)
          << "trial " << trial;
      ++solved;
    }
  }
  EXPECT_GE(solved, 4);  // most trials must actually exercise the comparison
}

// encode() of any checker-valid floorplan must satisfy the MILP model — the
// formulation cannot be tighter than the real constraint set.
TEST(EncodeProperty, SearchSolutionsAreMilpFeasible) {
  Rng rng(777);
  int exercised = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const device::Device dev =
        device::columnarFromPattern("rand", randomPattern(rng, 4, 8), 3);
    model::FloorplanProblem p = randomProblem(dev, rng, 2);
    if (!p.validate().empty()) continue;
    // Half the trials add a hard FC request on region 0.
    if (rng.nextBool()) p.addRelocation(model::RelocationRequest{0, 1, true, 1.0});

    const search::SearchResult sres = search::ColumnarSearchSolver().solve(p);
    if (!sres.hasSolution()) continue;
    ASSERT_EQ(model::check(p, sres.plan), "") << "trial " << trial;

    const auto part = partition::columnarPartition(dev);
    ASSERT_TRUE(part.has_value());
    for (const fp::OffsetEncoding enc :
         {fp::OffsetEncoding::kChain, fp::OffsetEncoding::kPaper}) {
      fp::FormulationOptions fopt;
      fopt.offset = enc;
      fp::MilpFormulation formulation(p, *part, fopt);
      const std::vector<double> encoded = formulation.encode(sres.plan);
      EXPECT_TRUE(formulation.model().isFeasible(encoded, 1e-6))
          << "trial " << trial << " encoding " << static_cast<int>(enc);
    }
    ++exercised;
  }
  EXPECT_GE(exercised, 5);
}

// Compatibility is an equivalence relation on same-shape areas.
TEST(CompatibilityProperty, EquivalenceRelationOnRandomDevices) {
  Rng rng(31337);
  for (int trial = 0; trial < 40; ++trial) {
    const device::Device dev =
        device::columnarFromPattern("rand", randomPattern(rng, 5, 12), 4);
    const int w = 1 + static_cast<int>(rng.nextBelow(3));
    const int h = 1 + static_cast<int>(rng.nextBelow(3));
    const Rect a{static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(dev.width() - w + 1))),
                 static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(dev.height() - h + 1))), w, h};
    EXPECT_TRUE(partition::areCompatible(dev, a, a));  // reflexive
    const auto placements = partition::enumerateCompatiblePlacements(dev, a);
    for (const Rect& b : placements) {
      EXPECT_TRUE(partition::areCompatible(dev, b, a));  // symmetric
      for (const Rect& c : placements)
        EXPECT_TRUE(partition::areCompatible(dev, b, c));  // transitive
    }
  }
}

// Relocating any bitstream around a cycle of compatible areas is lossless.
TEST(BitstreamProperty, RelocationCyclesAreLossless) {
  Rng rng(55);
  const device::Device dev = device::virtex5FX70T();
  int cycles = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const int w = 1 + static_cast<int>(rng.nextBelow(6));
    const int h = 1 + static_cast<int>(rng.nextBelow(4));
    const Rect src{static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(dev.width() - w + 1))),
                   static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(dev.height() - h + 1))), w, h};
    const auto placements = partition::enumerateCompatiblePlacements(dev, src);
    if (placements.size() < 2 || dev.rectHitsForbidden(src)) continue;
    bitstream::PartialBitstream bs = bitstream::generateBitstream(dev, src, trial);
    const std::uint32_t original_crc = bs.crc;
    for (const Rect& stop : placements) bs = bitstream::relocateBitstream(dev, bs, stop);
    bs = bitstream::relocateBitstream(dev, bs, src);
    EXPECT_EQ(bs.crc, original_crc) << "trial " << trial;
    EXPECT_EQ(bitstream::verifyBitstream(dev, bs), "") << "trial " << trial;
    ++cycles;
  }
  EXPECT_GE(cycles, 10);
}

// Candidate enumeration exactness: every enumerated shape covers the
// requirement; nothing cheaper than min_waste exists (checked by scanning
// all rectangles directly).
TEST(CandidateProperty, MinWasteMatchesExhaustiveScan) {
  Rng rng(808);
  for (int trial = 0; trial < 15; ++trial) {
    const device::Device dev =
        device::columnarFromPattern("rand", randomPattern(rng, 4, 8), 3);
    model::FloorplanProblem p = randomProblem(dev, rng, 1);
    if (!p.validate().empty()) continue;
    const search::RegionCandidates cands = search::enumerateCandidates(p, 0);
    long brute_min = LONG_MAX;
    for (int x = 0; x < dev.width(); ++x)
      for (int y = 0; y < dev.height(); ++y)
        for (int w = 1; x + w <= dev.width(); ++w)
          for (int h = 1; y + h <= dev.height(); ++h) {
            const Rect r{x, y, w, h};
            if (dev.rectHitsForbidden(r)) continue;
            const std::vector<int> hist = dev.tileHistogram(r);
            bool ok = true;
            for (int t = 0; t < 3 && ok; ++t) ok = hist[static_cast<std::size_t>(t)] >= p.region(0).required(t);
            if (ok) brute_min = std::min(brute_min, model::regionWaste(p, 0, r));
          }
    if (brute_min == LONG_MAX) {
      EXPECT_TRUE(cands.shapes.empty()) << "trial " << trial;
    } else {
      EXPECT_EQ(cands.min_waste, brute_min) << "trial " << trial;
    }
  }
}

// Cross-engine agreement through the driver's unified dispatch: on seeded
// generator instances, the exact search and the MILP floorplanner (backend
// milp-o, same lexicographic objective) must report the same optimal
// wasted-frame count — the central claim that the engines solve the same
// problem semantics.
TEST(CrossEngineProperty, DriverBackendsAgreeOnGeneratedInstances) {
  const device::Device dev = device::columnarFromPattern("gen", "CCBCCD", 4);
  model::GeneratorOptions gopt;
  gopt.num_regions = 2;
  gopt.max_region_width = 3;
  gopt.max_region_height = 2;
  gopt.num_nets = 1;

  const driver::Driver drv;
  driver::SolveRequest search_req;
  search_req.backend = driver::Backend::kSearch;
  driver::SolveRequest milp_req;
  milp_req.backend = driver::Backend::kMilpO;
  milp_req.deadline_seconds = 60.0;

  int instances = 0;
  int both_optimal = 0;
  for (std::uint64_t seed = 1; instances < 20 && seed < 200; ++seed) {
    gopt.seed = seed;
    const auto p = model::generateProblem(dev, gopt);
    if (!p) continue;
    ++instances;

    const driver::SolveResponse exact = drv.solve(*p, search_req);
    ASSERT_EQ(exact.status, model::SolveStatus::kOptimal) << "seed " << seed;
    ASSERT_EQ(model::check(*p, exact.plan), "") << "seed " << seed;

    const driver::SolveResponse milp = drv.solve(*p, milp_req);
    ASSERT_TRUE(milp.hasSolution()) << "seed " << seed << ": " << milp.detail;
    ASSERT_EQ(model::check(*p, milp.plan), "") << "seed " << seed;
    if (milp.status == model::SolveStatus::kOptimal) {
      EXPECT_EQ(milp.costs.wasted_frames, exact.costs.wasted_frames)
          << "seed " << seed << ": " << milp.detail;
      ++both_optimal;
    } else {
      // A truncated MILP can only overestimate the optimum.
      EXPECT_GE(milp.costs.wasted_frames, exact.costs.wasted_frames) << "seed " << seed;
    }
  }
  EXPECT_EQ(instances, 20) << "generator failed too often on this device";
  EXPECT_GE(both_optimal, 15) << "too few instances reached a MILP optimality proof";
}

}  // namespace
}  // namespace rfp
