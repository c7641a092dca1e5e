// Catalog device models: every entry must be a well-formed columnar device
// whose partition validates, whose forbidden areas are in bounds, and which
// can host floorplanning problems end to end.
#include <gtest/gtest.h>

#include <set>

#include "device/builders.hpp"
#include "device/catalog.hpp"
#include "device/parser.hpp"
#include "partition/columnar.hpp"
#include "search/solver.hpp"

namespace rfp::device {
namespace {

class CatalogDevice : public ::testing::TestWithParam<CatalogEntry> {};

TEST_P(CatalogDevice, BuildsAndIsColumnar) {
  const Device dev = GetParam().build();
  EXPECT_EQ(dev.name(), GetParam().name);
  EXPECT_GT(dev.width(), 0);
  EXPECT_GT(dev.height(), 0);
  EXPECT_TRUE(dev.isColumnar());
}

TEST_P(CatalogDevice, ColumnarPartitionValidates) {
  const Device dev = GetParam().build();
  const auto part = partition::columnarPartition(dev);
  ASSERT_TRUE(part.has_value()) << GetParam().name;
  EXPECT_EQ(partition::validateColumnarPartition(dev, *part), "");
  // Property .3: adjacent portions have different tile types.
  for (std::size_t p = 1; p < part->portions.size(); ++p)
    EXPECT_NE(part->portions[p].type, part->portions[p - 1].type);
}

TEST_P(CatalogDevice, ForbiddenAreasAreWithinBounds) {
  const Device dev = GetParam().build();
  for (const Rect& f : dev.forbidden()) {
    EXPECT_GE(f.x, 0);
    EXPECT_GE(f.y, 0);
    EXPECT_LE(f.x2(), dev.width());
    EXPECT_LE(f.y2(), dev.height());
  }
}

TEST_P(CatalogDevice, HasAllThreeTileTypesWithPositiveFrames) {
  const Device dev = GetParam().build();
  ASSERT_EQ(dev.numTileTypes(), 3);
  const std::vector<int> totals = dev.totalTiles(/*usable_only=*/true);
  for (int t = 0; t < dev.numTileTypes(); ++t) {
    EXPECT_GT(dev.tileType(t).frames, 0);
    EXPECT_GT(totals[static_cast<std::size_t>(t)], 0)
        << GetParam().name << " type " << dev.tileType(t).name;
  }
  // CLB dominates on every real part.
  EXPECT_GT(totals[0], totals[1]);
  EXPECT_GT(totals[0], totals[2]);
}

TEST_P(CatalogDevice, ParserRoundTripPreservesStructure) {
  const Device dev = GetParam().build();
  const Device parsed = parseDevice(formatDevice(dev));
  EXPECT_EQ(parsed.name(), dev.name());
  EXPECT_EQ(parsed.width(), dev.width());
  EXPECT_EQ(parsed.height(), dev.height());
  EXPECT_EQ(parsed.forbidden().size(), dev.forbidden().size());
  for (int x = 0; x < dev.width(); ++x)
    for (int y = 0; y < dev.height(); ++y)
      ASSERT_EQ(parsed.typeAt(x, y), dev.typeAt(x, y)) << "(" << x << "," << y << ")";
}

TEST_P(CatalogDevice, SmallRegionIsPlaceable) {
  const Device dev = GetParam().build();
  model::FloorplanProblem p(&dev);
  // One tile of each type: placeable on every real part.
  p.addRegion(model::RegionSpec{"probe", {4, 1, 1}});
  const search::SearchResult res = search::ColumnarSearchSolver().solve(p);
  EXPECT_EQ(res.status, model::SolveStatus::kOptimal) << GetParam().name;
  EXPECT_EQ(model::check(p, res.plan), "");
}

TEST_P(CatalogDevice, SmallRegionIsRelocatable) {
  // Every catalog model uses a repeated column kernel, so a kernel-sized
  // region must have at least one free-compatible area.
  const Device dev = GetParam().build();
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"probe", {2, 0, 0}});
  p.addRelocation(model::RelocationRequest{0, 1, /*hard=*/true, 1.0});
  search::SearchOptions opt;
  opt.feasibility_only = true;
  const search::SearchResult res = search::ColumnarSearchSolver(opt).solve(p);
  EXPECT_TRUE(res.hasSolution()) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(AllParts, CatalogDevice, ::testing::ValuesIn(catalog()),
                         [](const ::testing::TestParamInfo<CatalogEntry>& info) {
                           return info.param.name;
                         });

TEST(Catalog, NamesAreUniqueAndLookupWorks) {
  std::set<std::string> seen;
  for (const std::string& name : catalogNames()) {
    EXPECT_TRUE(seen.insert(name).second) << "duplicate: " << name;
    const auto dev = buildByName(name);
    ASSERT_TRUE(dev.has_value());
    EXPECT_EQ(dev->name(), name);
  }
  EXPECT_FALSE(buildByName("xc9nonexistent").has_value());
}

TEST(Catalog, PaperDeviceIsTheFirstEntry) {
  ASSERT_FALSE(catalog().empty());
  EXPECT_EQ(catalog().front().name, "xc5vfx70t");
  EXPECT_EQ(catalog().front().family, "virtex5");
}

TEST(Catalog, FamiliesAreGrouped) {
  // Entries of the same family are contiguous (catalog order contract).
  std::set<std::string> closed;
  std::string current;
  for (const CatalogEntry& e : catalog()) {
    if (e.family != current) {
      EXPECT_TRUE(closed.insert(current).second || current.empty()) << e.family;
      current = e.family;
    }
  }
}

TEST(Catalog, Virtex5FamilySharesTileGeometry) {
  // Relocation across same-family parts relies on identical tile types.
  const Device a = virtex5FX70T();
  for (const char* name : {"xc5vlx110t", "xc5vsx95t", "xc5vfx130t"}) {
    const Device b = *buildByName(name);
    ASSERT_EQ(a.numTileTypes(), b.numTileTypes());
    for (int t = 0; t < a.numTileTypes(); ++t) {
      EXPECT_EQ(a.tileType(t).name, b.tileType(t).name);
      EXPECT_EQ(a.tileType(t).frames, b.tileType(t).frames) << name;
    }
  }
}

TEST(Catalog, Fx130tForbiddenBlocksDoNotOverlap) {
  const Device dev = virtex5FX130T();
  ASSERT_EQ(dev.forbidden().size(), 2u);
  const Rect& a = dev.forbidden()[0];
  const Rect& b = dev.forbidden()[1];
  const bool disjoint = a.x2() <= b.x || b.x2() <= a.x || a.y2() <= b.y || b.y2() <= a.y;
  EXPECT_TRUE(disjoint);
}

TEST(Catalog, ZynqPsBlockExcludedFromUsableTiles) {
  const Device dev = zynq7020();
  const std::vector<int> all = dev.totalTiles(/*usable_only=*/false);
  const std::vector<int> usable = dev.totalTiles(/*usable_only=*/true);
  long delta = 0;
  for (std::size_t t = 0; t < all.size(); ++t) delta += all[t] - usable[t];
  EXPECT_EQ(delta, 10 * 2);  // the 10x2 PS rectangle
}

}  // namespace
}  // namespace rfp::device
