// Tests for the device model, builders and the text-format parser.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "device/builders.hpp"
#include "device/catalog.hpp"
#include "device/parser.hpp"
#include "support/check.hpp"

namespace rfp::device {
namespace {

TEST(Rect, GeometryBasics) {
  const Rect r{2, 1, 3, 2};
  EXPECT_EQ(r.x2(), 5);
  EXPECT_EQ(r.y2(), 3);
  EXPECT_EQ(r.area(), 6);
  EXPECT_TRUE(r.contains(2, 1));
  EXPECT_TRUE(r.contains(4, 2));
  EXPECT_FALSE(r.contains(5, 2));
  EXPECT_DOUBLE_EQ(r.centerX(), 3.5);
}

TEST(Rect, OverlapAndIntersection) {
  const Rect a{0, 0, 4, 4}, b{3, 3, 4, 4}, c{4, 0, 2, 2};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c));
  const Rect i = a.intersect(b);
  EXPECT_EQ(i, (Rect{3, 3, 1, 1}));
  EXPECT_TRUE(a.intersect(c).empty());
}

TEST(Device, Fx70tMatchesPaperResourceMix) {
  const Device dev = virtex5FX70T();
  EXPECT_EQ(dev.width(), 44);
  EXPECT_EQ(dev.height(), 8);
  EXPECT_TRUE(dev.isColumnar());
  const std::vector<int> totals = dev.totalTiles(false);
  EXPECT_EQ(totals[static_cast<std::size_t>(dev.tileTypeId("DSP"))], 16);   // 128 DSP48E
  EXPECT_EQ(totals[static_cast<std::size_t>(dev.tileTypeId("BRAM"))], 40);  // 160 BRAM36 raw
  EXPECT_EQ(dev.forbidden().size(), 1u);  // PPC440
}

TEST(Device, PaperFrameCountsPerTileType) {
  const Device dev = virtex5FX70T();
  EXPECT_EQ(dev.tileType(dev.tileTypeId("CLB")).frames, 36);
  EXPECT_EQ(dev.tileType(dev.tileTypeId("BRAM")).frames, 30);
  EXPECT_EQ(dev.tileType(dev.tileTypeId("DSP")).frames, 28);
}

TEST(Device, TableOneFrameArithmetic) {
  // The paper's Table I last column is reproduced exactly by the model:
  // matched filter 25 CLB + 5 DSP tiles = 25·36 + 5·28 = 1040 frames, etc.
  EXPECT_EQ(25 * 36 + 5 * 28, 1040);
  EXPECT_EQ(7 * 36 + 1 * 28, 280);
  EXPECT_EQ(5 * 36 + 2 * 30, 240);
  EXPECT_EQ(12 * 36 + 1 * 30, 462);
  EXPECT_EQ(55 * 36 + 2 * 30 + 5 * 28, 2180);
}

TEST(Device, HistogramAndFrames) {
  const Device dev = columnarFromPattern("t", "CBD", 2);
  const std::vector<int> hist = dev.tileHistogram(Rect{0, 0, 3, 2});
  EXPECT_EQ(hist[0], 2);
  EXPECT_EQ(hist[1], 2);
  EXPECT_EQ(hist[2], 2);
  EXPECT_EQ(dev.framesInRect(Rect{0, 0, 3, 1}), 36 + 30 + 28);
  EXPECT_EQ(dev.totalFrames(), 2 * (36 + 30 + 28));
}

TEST(Device, ForbiddenAreaQueries) {
  Device dev = uniformDevice(6, 4);
  dev.addForbidden(Rect{2, 1, 2, 2}, "hard");
  EXPECT_TRUE(dev.inForbidden(2, 1));
  EXPECT_TRUE(dev.inForbidden(3, 2));
  EXPECT_FALSE(dev.inForbidden(1, 1));
  EXPECT_TRUE(dev.rectHitsForbidden(Rect{0, 0, 3, 2}));
  EXPECT_FALSE(dev.rectHitsForbidden(Rect{0, 0, 2, 4}));
  EXPECT_THROW(dev.addForbidden(Rect{5, 0, 3, 1}), CheckError);
  // Empty: it forbids no tile but would still "overlap" rects straddling it.
  EXPECT_THROW(dev.addForbidden(Rect{1, 1, 0, 2}), CheckError);
}

TEST(Device, UsableTotalsExcludeForbidden) {
  Device dev = uniformDevice(4, 4);
  dev.addForbidden(Rect{0, 0, 2, 2}, "f");
  EXPECT_EQ(dev.totalTiles(false)[0], 16);
  EXPECT_EQ(dev.totalTiles(true)[0], 12);
}

TEST(Device, BrokenColumnDeviceIsNotColumnar) {
  const Device dev = brokenColumnDevice();
  EXPECT_FALSE(dev.isColumnar());
  EXPECT_THROW((void)dev.columnType(2), CheckError);
}

TEST(Device, ColumnTypeMatchesEveryTileOnCatalogDevices) {
  // columnType reads the per-column types cached at construction; they must
  // agree with the grid at every row.
  for (const CatalogEntry& entry : catalog()) {
    SCOPED_TRACE(entry.name);
    const Device dev = entry.build();
    ASSERT_TRUE(dev.isColumnar());
    for (int x = 0; x < dev.width(); ++x)
      for (int y = 0; y < dev.height(); ++y) ASSERT_EQ(dev.columnType(x), dev.typeAt(x, y));
  }
}

/// The column spans matching columns [x0, x0+w), ascending: every x whose
/// columns have the same types, column by column.
std::vector<int> scanMatchingSpans(const Device& dev, int x0, int w) {
  std::vector<int> out;
  for (int x = 0; x + w <= dev.width(); ++x) {
    bool match = true;
    for (int i = 0; i < w && match; ++i) match = dev.columnType(x + i) == dev.columnType(x0 + i);
    if (match) out.push_back(x);
  }
  return out;
}

TEST(Device, MatchingSpans) {
  const Device dev = columnarFromPattern("t", "CBCCBC", 3);
  const std::span<const int> xs = dev.matchingSpans(0, 2);  // pattern CB
  EXPECT_EQ(std::vector<int>(xs.begin(), xs.end()), (std::vector<int>{0, 3}));
  EXPECT_TRUE(brokenColumnDevice().matchingSpans(0, 1).empty());  // not columnar
}

TEST(Device, MatchingSpansEqualPerQueryScan) {
  // The table built at construction lists exactly what a per-query scan of
  // the column types finds, in the same ascending order, for every span of
  // every catalog device, of a pattern with repeats and of a uniform device.
  std::vector<Device> devices;
  for (const CatalogEntry& entry : catalog()) devices.push_back(entry.build());
  devices.push_back(columnarFromPattern("t", "CCBCCBCCDCCBCC", 3));
  devices.push_back(uniformDevice(9, 4));
  for (const Device& dev : devices) {
    SCOPED_TRACE(dev.name());
    const int W = dev.width();
    for (int x = 0; x < W; ++x)
      for (int w = 1; w <= W; ++w) {
        const std::span<const int> got = dev.matchingSpans(x, w);
        if (x + w > W) {
          ASSERT_TRUE(got.empty()) << "x=" << x << " w=" << w;
          continue;
        }
        ASSERT_EQ(std::vector<int>(got.begin(), got.end()), scanMatchingSpans(dev, x, w))
            << "x=" << x << " w=" << w;
      }
  }
  // On a uniform device every span matches every position it fits.
  const std::span<const int> got = devices.back().matchingSpans(2, 4);
  EXPECT_EQ(std::vector<int>(got.begin(), got.end()), (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(Device, GridConstructorValidation) {
  std::vector<TileType> types = virtex5TileTypes();
  EXPECT_THROW(Device("bad", 2, 2, types, std::vector<int>{0, 0, 0}, true), CheckError);
  EXPECT_THROW(Device("bad", 2, 2, types, std::vector<int>{0, 0, 0, 9}, true), CheckError);
}

TEST(Parser, RoundTripsColumnarDevice) {
  const Device dev = virtex5FX70T();
  const std::string text = formatDevice(dev);
  const Device back = parseDevice(text);
  EXPECT_EQ(back.name(), dev.name());
  EXPECT_EQ(back.width(), dev.width());
  EXPECT_EQ(back.height(), dev.height());
  for (int x = 0; x < dev.width(); ++x)
    EXPECT_EQ(back.tileType(back.columnType(x)).name, dev.tileType(dev.columnType(x)).name);
  ASSERT_EQ(back.forbidden().size(), dev.forbidden().size());
  EXPECT_EQ(back.forbidden()[0], dev.forbidden()[0]);
}

TEST(Parser, ParsesMinimalDevice) {
  const Device dev = parseDevice(R"(
# comment
device demo
rows 4
tiletype C CLB frames=36 CLB=20
tiletype B BRAM frames=30 BRAM36=4
columns CCBCC
forbidden 1 1 2 2 hardblock
)");
  EXPECT_EQ(dev.name(), "demo");
  EXPECT_EQ(dev.width(), 5);
  EXPECT_EQ(dev.height(), 4);
  EXPECT_EQ(dev.tileTypeId("BRAM"), 1);
  EXPECT_EQ(dev.columnType(2), 1);
  EXPECT_EQ(dev.tileType(1).resources.at("BRAM36"), 4);
  EXPECT_TRUE(dev.inForbidden(2, 2));
}

TEST(Parser, RejectsMalformedInput) {
  EXPECT_THROW(parseDevice("rows 4\ncolumns CC\n"), CheckError);  // no tiletypes
  EXPECT_THROW(parseDevice("tiletype C CLB frames=36\ncolumns CX\nrows 2\n"), CheckError);
  EXPECT_THROW(parseDevice("tiletype C CLB frames=36\ncolumns CC\n"), CheckError);  // no rows
  EXPECT_THROW(parseDevice("tiletype C CLB frames=0\ncolumns C\nrows 1\n"), CheckError);
  EXPECT_THROW(parseDevice("bogus keyword\n"), CheckError);
}

TEST(Builders, Virtex7StyleIsColumnarAndLarge) {
  const Device dev = virtex7Style();
  EXPECT_TRUE(dev.isColumnar());
  EXPECT_GT(dev.width(), 80);
  EXPECT_GT(dev.totalFrames(), virtex5FX70T().totalFrames());
}

}  // namespace
}  // namespace rfp::device
