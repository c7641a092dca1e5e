// Tests for columnar partitioning (Sec. III-B) and area compatibility
// (Definitions .1/.2, Fig. 1).
#include <gtest/gtest.h>

#include "device/builders.hpp"
#include "partition/columnar.hpp"
#include "partition/compatibility.hpp"

namespace rfp::partition {
namespace {

using device::Device;
using device::Rect;

TEST(Columnar, MergesAdjacentSameTypeColumns) {
  const Device dev = device::columnarFromPattern("t", "CCBBCD", 4);
  const auto part = columnarPartition(dev);
  ASSERT_TRUE(part.has_value());
  ASSERT_EQ(part->portions.size(), 4u);  // CC | BB | C | D
  EXPECT_EQ(part->portions[0].w, 2);
  EXPECT_EQ(part->portions[1].w, 2);
  EXPECT_EQ(part->portions[2].w, 1);
  EXPECT_EQ(part->portions[3].w, 1);
  EXPECT_EQ(validateColumnarPartition(dev, *part), "");
}

TEST(Columnar, PropertyThreeAndFourHold) {
  const auto part = columnarPartition(device::virtex5FX70T());
  ASSERT_TRUE(part.has_value());
  for (std::size_t i = 1; i < part->portions.size(); ++i) {
    EXPECT_NE(part->portions[i].type, part->portions[i - 1].type);  // Property .3
    EXPECT_EQ(part->portions[i].x, part->portions[i - 1].x + part->portions[i - 1].w);
  }
  EXPECT_EQ(validateColumnarPartition(device::virtex5FX70T(), *part), "");
}

TEST(Columnar, Fx70tPortionCount) {
  // Pattern CC B CCCC D CCCCC B CCC B CCCC D CCCCC B CCCCCC B CCCCCCCC
  // → 15 alternating portions.
  const auto part = columnarPartition(device::virtex5FX70T());
  ASSERT_TRUE(part.has_value());
  EXPECT_EQ(part->portions.size(), 15u);
  EXPECT_EQ(part->numTypes(), 3);
}

TEST(Columnar, ForbiddenTilesReplacedBySameColumnType) {
  // Step 1 (Fig. 2b): a forbidden area does not split columnar portions.
  Device dev = device::columnarFromPattern("t", "CCCC", 4);
  dev.addForbidden(Rect{1, 1, 2, 2}, "hard");
  const auto part = columnarPartition(dev);
  ASSERT_TRUE(part.has_value());
  EXPECT_EQ(part->portions.size(), 1u);  // single CLB portion, full device
  ASSERT_EQ(part->forbidden.size(), 1u); // step 6: reported separately
  EXPECT_EQ(part->forbidden[0], (Rect{1, 1, 2, 2}));
}

TEST(Columnar, FailsOnNonColumnarDevice) {
  EXPECT_FALSE(columnarPartition(device::brokenColumnDevice()).has_value());
}

TEST(Columnar, PortionAtLocatesColumns) {
  const Device dev = device::columnarFromPattern("t", "CCBD", 2);
  const auto part = columnarPartition(dev);
  ASSERT_TRUE(part.has_value());
  EXPECT_EQ(part->portionAt(0), 0);
  EXPECT_EQ(part->portionAt(1), 0);
  EXPECT_EQ(part->portionAt(2), 1);
  EXPECT_EQ(part->portionAt(3), 2);
  EXPECT_EQ(part->portionAt(7), -1);
}

// ---- compatibility (Fig. 1) -----------------------------------------------

TEST(Compatibility, Figure1Scenario) {
  // Two-type device mirroring Fig. 1: areas with the same shape/size are
  // compatible iff tile types align at the same relative positions.
  const Device dev = device::columnarFromPattern("t", "CBCCBC", 3);
  // A = columns 0-1 (C B), B-area = columns 3-4 (C B): compatible.
  EXPECT_TRUE(areCompatible(dev, Rect{0, 0, 2, 2}, Rect{3, 0, 2, 2}));
  // C-area = columns 1-2 (B C): same shape and resources, wrong order.
  EXPECT_FALSE(areCompatible(dev, Rect{0, 0, 2, 2}, Rect{1, 0, 2, 2}));
}

TEST(Compatibility, VerticalTranslationAlwaysCompatibleOnColumnarDevices) {
  const Device dev = device::virtex5FX70T();
  const Rect a{5, 0, 4, 3};
  EXPECT_TRUE(areCompatible(dev, a, Rect{5, 3, 4, 3}));
  EXPECT_TRUE(areCompatible(dev, a, Rect{5, 5, 4, 3}));
}

TEST(Compatibility, SizeMismatchIsIncompatible) {
  const Device dev = device::uniformDevice(6, 6);
  EXPECT_FALSE(areCompatible(dev, Rect{0, 0, 2, 2}, Rect{3, 0, 3, 2}));
  EXPECT_FALSE(areCompatible(dev, Rect{0, 0, 2, 2}, Rect{3, 0, 2, 3}));
}

TEST(Compatibility, FreeCompatibleRespectsOccupancyAndForbidden) {
  Device dev = device::uniformDevice(8, 4);
  dev.addForbidden(Rect{6, 0, 2, 2}, "f");
  const Rect src{0, 0, 2, 2};
  const std::vector<Rect> occupied{src, Rect{2, 0, 2, 2}};
  EXPECT_TRUE(isFreeCompatible(dev, src, Rect{4, 0, 2, 2}, occupied));
  EXPECT_FALSE(isFreeCompatible(dev, src, Rect{2, 0, 2, 2}, occupied));  // occupied
  EXPECT_FALSE(isFreeCompatible(dev, src, Rect{6, 0, 2, 2}, occupied));  // forbidden
  EXPECT_FALSE(isFreeCompatible(dev, src, Rect{5, 0, 2, 2}, occupied));  // hits forbidden col 6
}

TEST(Compatibility, EnumerationMatchesDefinition) {
  const Device dev = device::columnarFromPattern("t", "CBCCBC", 3);
  const Rect src{0, 0, 2, 2};
  const auto placements = enumerateCompatiblePlacements(dev, src);
  // Column spans with pattern (C,B): x=0 and x=3; y in {0,1}.
  ASSERT_EQ(placements.size(), 4u);
  for (const Rect& r : placements) {
    EXPECT_TRUE(areCompatible(dev, src, r));
    EXPECT_TRUE(r.x == 0 || r.x == 3);
  }
}

TEST(Compatibility, SelfIsAlwaysCompatible) {
  const Device dev = device::virtex5FX70T();
  const Rect r{7, 2, 6, 5};
  EXPECT_TRUE(areCompatible(dev, r, r));
}

}  // namespace
}  // namespace rfp::partition
