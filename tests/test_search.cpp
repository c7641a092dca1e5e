// Tests for the exact columnar search solver: candidates, occupancy,
// optimality, relocation constraints and the feasibility analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <climits>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "baseline/annealer.hpp"
#include "device/builders.hpp"
#include "driver/incumbent.hpp"
#include "model/floorplan.hpp"
#include "oracle/compatibility.hpp"
#include "oracle/generator.hpp"
#include "search/candidates.hpp"
#include "search/occupancy.hpp"
#include "search/solver.hpp"
#include "support/rng.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/telemetry/trace.hpp"

namespace rfp::search {
namespace {

using device::Rect;

TEST(Occupancy, FillOverlapClear) {
  Occupancy occ(44, 8);
  const Rect r{5, 2, 6, 3};
  EXPECT_FALSE(occ.overlaps(r));
  occ.fill(r);
  EXPECT_TRUE(occ.overlaps(Rect{10, 4, 3, 3}));
  EXPECT_FALSE(occ.overlaps(Rect{11, 2, 3, 3}));
  EXPECT_TRUE(occ.occupied(5, 2));
  EXPECT_FALSE(occ.occupied(4, 2));
  EXPECT_EQ(occ.popcount(), 18);
  occ.clear(r);
  EXPECT_EQ(occ.popcount(), 0);
}

TEST(Occupancy, WordBoundarySpans) {
  Occupancy occ(100, 3);  // rows cross 64-bit word boundaries
  const Rect r{60, 1, 10, 1};
  occ.fill(r);
  EXPECT_EQ(occ.popcount(), 10);
  EXPECT_TRUE(occ.overlaps(Rect{63, 0, 2, 2}));
  EXPECT_FALSE(occ.overlaps(Rect{60, 0, 10, 1}));
}

/// One bool per tile: the reference the bit-parallel Occupancy must match.
class NaiveGrid {
 public:
  NaiveGrid(int width, int height)
      : width_(width), tiles_(static_cast<std::size_t>(width * height), false) {}

  void set(const Rect& r, bool value) {
    for (int y = r.y; y < r.y2(); ++y)
      for (int x = r.x; x < r.x2(); ++x) tiles_[index(x, y)] = value;
  }
  [[nodiscard]] bool occupied(int x, int y) const { return tiles_[index(x, y)]; }
  [[nodiscard]] bool overlaps(const Rect& r) const {
    for (int y = r.y; y < r.y2(); ++y)
      for (int x = r.x; x < r.x2(); ++x)
        if (occupied(x, y)) return true;
    return false;
  }
  [[nodiscard]] int popcount() const {
    int n = 0;
    for (const bool t : tiles_) n += t ? 1 : 0;
    return n;
  }

 private:
  [[nodiscard]] std::size_t index(int x, int y) const {
    return static_cast<std::size_t>(y * width_ + x);
  }
  int width_;
  std::vector<bool> tiles_;
};

Rect randomRect(Rng& rng, int width, int height) {
  const int w = static_cast<int>(rng.nextInt(1, width));
  const int h = static_cast<int>(rng.nextInt(1, height));
  return Rect{static_cast<int>(rng.nextInt(0, width - w)),
              static_cast<int>(rng.nextInt(0, height - h)), w, h};
}

/// Checks orColumns and freeWindows over columns [x, x+w) for window height h
/// against the naive grid, window by window, and returns the number of free
/// windows.
int checkWindows(const Occupancy& occ, const NaiveGrid& naive, int x, int w, int h) {
  std::vector<std::uint64_t> rows(static_cast<std::size_t>(occ.wordsPerColumn()));
  occ.orColumns(x, w, rows.data());
  for (int y = 0; y < occ.height(); ++y)
    EXPECT_EQ(((rows[static_cast<std::size_t>(y / 64)] >> (y % 64)) & 1u) != 0,
              naive.overlaps(Rect{x, y, w, 1}))
        << "row " << y << " of columns [" << x << ", " << x + w << ")";
  occ.freeWindows(rows.data(), h);
  int count = 0;
  for (int y = 0; y < 64 * occ.wordsPerColumn(); ++y) {
    const bool free = y + h <= occ.height() && !naive.overlaps(Rect{x, y, w, h});
    EXPECT_EQ(Occupancy::windowFree(rows.data(), y), free)
        << "window y=" << y << " h=" << h << " of columns [" << x << ", " << x + w << ")";
    count += free ? 1 : 0;
  }
  int bits = 0;
  for (const std::uint64_t word : rows) bits += __builtin_popcountll(word);
  EXPECT_EQ(bits, count) << "h=" << h;
  return count;
}

TEST(Occupancy, MatchesNaiveGridAtEveryHeight) {
  // Heights on both sides of each 64-row word boundary, so multi-word
  // columns, windows straddling row 64 and shifts by >= 64 rows all run.
  for (const int height : {1, 7, 8, 63, 64, 65, 130}) {
    for (const int width : {1, 44, 100}) {
      SCOPED_TRACE("height " + std::to_string(height) + " width " + std::to_string(width));
      Occupancy occ(width, height);
      NaiveGrid naive(width, height);
      Rng rng(static_cast<std::uint64_t>(height * 1000 + width));
      for (int step = 0; step < 300; ++step) {
        const Rect r = randomRect(rng, width, height);
        switch (rng.nextBelow(3)) {
          case 0: occ.fill(r); naive.set(r, true); break;
          case 1: occ.clear(r); naive.set(r, false); break;
          default: ASSERT_EQ(occ.overlaps(r), naive.overlaps(r)) << r.toString(); break;
        }
        if (step % 15 == 0) {
          ASSERT_EQ(occ.popcount(), naive.popcount());
          const int x = static_cast<int>(rng.nextInt(0, width - 1));
          const int y = static_cast<int>(rng.nextInt(0, height - 1));
          ASSERT_EQ(occ.occupied(x, y), naive.occupied(x, y));
          checkWindows(occ, naive, r.x, r.w, static_cast<int>(rng.nextInt(1, height)));
        }
      }
    }
  }
}

TEST(Occupancy, FreeWindowsStraddleTheWordBoundary) {
  Occupancy occ(2, 130);
  NaiveGrid naive(2, 130);
  const Rect blocker{1, 70, 1, 1};
  occ.fill(blocker);
  naive.set(blocker, true);
  // On column 0 alone every window is free; with column 1, 8-row windows
  // at y = 63..70 (rows 63..77) hit row 70, the others survive.
  EXPECT_EQ(checkWindows(occ, naive, 0, 1, 8), 130 - 8 + 1);
  EXPECT_EQ(checkWindows(occ, naive, 0, 2, 8), 130 - 8 + 1 - 8);
  // A window taller than one word: 100 rows fit at y = 0..30, but only
  // those below or above row 70 — none of them here.
  EXPECT_EQ(checkWindows(occ, naive, 0, 2, 100), 0);
  EXPECT_EQ(checkWindows(occ, naive, 0, 2, 59), (70 - 59 + 1) + (130 - 71 - 59 + 1));
  // 128 rows: the doubling shift-AND takes a whole-word (64-row) step.
  EXPECT_EQ(checkWindows(occ, naive, 0, 1, 128), 3);
  EXPECT_EQ(checkWindows(occ, naive, 0, 2, 128), 0);
}

TEST(Candidates, CoverageAndWasteAreExact) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCC", 4);
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"r", {2, 1, 0}});
  const RegionCandidates cands = enumerateCandidates(p, 0);
  ASSERT_FALSE(cands.shapes.empty());
  for (const Shape& s : cands.shapes) {
    const std::vector<int> hist = dev.tileHistogram(Rect{s.x, s.ys[0], s.w, s.h});
    EXPECT_GE(hist[0], 2);
    EXPECT_GE(hist[1], 1);
    const long waste = (hist[0] - 2) * 36 + (hist[1] - 1) * 30 + hist[2] * 28;
    EXPECT_EQ(waste, s.waste);
  }
  // Minimal waste: w=2 h=2 covering col 1-2 (2 CLB + 2 BRAM): waste 30;
  // or w=3 h=1 (2 CLB + 1 BRAM): waste 0.
  EXPECT_EQ(cands.min_waste, 0);
}

TEST(Candidates, WasteBudgetPrunes) {
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem sdr = model::makeSdrProblem(dev);
  const RegionCandidates all = enumerateCandidates(sdr, model::kVideoDecoder, -1);
  const RegionCandidates capped = enumerateCandidates(sdr, model::kVideoDecoder, 90);
  EXPECT_GT(all.shapes.size(), capped.shapes.size());
  for (const Shape& s : capped.shapes) EXPECT_LE(s.waste, 90);
  EXPECT_EQ(capped.min_waste, 90);  // VD's minimum on this device
}

TEST(Candidates, ForbiddenRowsExcluded) {
  device::Device dev = device::uniformDevice(6, 6);
  dev.addForbidden(Rect{0, 2, 6, 2}, "band");
  const Occupancy forbidden = forbiddenGrid(dev);
  std::vector<std::uint64_t> rows(static_cast<std::size_t>(forbidden.wordsPerColumn()));
  std::vector<Rect> rects;
  appendCompatibleRects(dev, forbidden, Rect{0, 0, 2, 2}, rows.data(), rects);
  // h=2 at y: must avoid rows 2-3 → y in {0, 4}, at each of the 5 spans.
  ASSERT_EQ(rects.size(), 10u);
  EXPECT_EQ(rects[0], (Rect{0, 0, 2, 2}));
  EXPECT_EQ(rects[1], (Rect{0, 4, 2, 2}));
}

TEST(Candidates, CompatibleRectsMatchDefinitionScan) {
  // The span-and-bit-grid enumeration lists exactly the Definition .1 scan's
  // placements, in the same (x, y) order: for every candidate rect of every
  // SDR region on the paper's device, and for every minimal-height candidate
  // on a device taller than one 64-row word whose forbidden blocks straddle
  // row 64.
  const device::Device fx = device::virtex5FX70T();
  const model::FloorplanProblem sdr = model::makeSdrProblem(fx);
  device::Device tall = device::columnarFromPattern("tall", "CCBCCDCCBCCD", 90);
  tall.addForbidden(Rect{2, 60, 3, 8}, "straddle");
  tall.addForbidden(Rect{7, 63, 2, 2}, "boundary");
  tall.addForbidden(Rect{0, 20, 1, 50}, "long");
  tall.addForbidden(Rect{10, 64, 2, 26}, "top");
  model::FloorplanProblem tall_problem(&tall);
  tall_problem.addRegion(model::RegionSpec{"a", {40, 4, 0}});
  tall_problem.addRegion(model::RegionSpec{"b", {90, 0, 6}});
  tall_problem.addRegion(model::RegionSpec{"c", {3, 1, 1}});
  const std::pair<const model::FloorplanProblem*, bool> cases[] = {{&sdr, false},
                                                                    {&tall_problem, true}};
  for (const auto& [p, min_height_only] : cases) {
    const Occupancy forbidden = forbiddenGrid(p->dev());
    std::vector<std::uint64_t> rows(static_cast<std::size_t>(forbidden.wordsPerColumn()));
    std::size_t checked = 0;
    for (int n = 0; n < p->numRegions(); ++n) {
      const RegionCandidates cands = enumerateCandidates(*p, n, -1, min_height_only);
      for (const Shape& s : cands.shapes)
        for (const int y : s.ys) {
          const Rect src{s.x, y, s.w, s.h};
          std::vector<Rect> got;
          appendCompatibleRects(p->dev(), forbidden, src, rows.data(), got);
          ASSERT_EQ(got, partition::enumerateCompatiblePlacements(p->dev(), src))
              << p->dev().name() << " region " << n << " " << src.toString();
          ++checked;
        }
    }
    EXPECT_GT(checked, 1000u) << p->dev().name();
  }
}

/// A shape as the per-row scan enumerates it: owned rows and coverage.
struct ScannedShape {
  int x = 0;
  int w = 0;
  int h = 0;
  long waste = 0;
  std::vector<int> ys;
  std::vector<int> covered;
};

/// The reference enumeration: every (x, w, h) tested row by row against the
/// device's forbidden rects, the shapes sorted by waste with the library's
/// comparator (so ties come out in the library's order).
std::vector<ScannedShape> scanCandidates(const model::FloorplanProblem& problem, int n,
                                         long max_waste, bool min_height_only,
                                         long* min_waste) {
  const device::Device& dev = problem.dev();
  const model::RegionSpec& spec = problem.region(n);
  const int T = dev.numTileTypes();
  std::vector<ScannedShape> out;
  *min_waste = LONG_MAX / 4;
  for (int w = 1; w <= dev.width(); ++w)
    for (int x = 0; x + w <= dev.width(); ++x) {
      std::vector<int> count(static_cast<std::size_t>(T), 0);
      for (int i = 0; i < w; ++i) ++count[static_cast<std::size_t>(dev.columnType(x + i))];
      int min_h = 1;
      bool possible = true;
      for (int t = 0; t < T; ++t) {
        const int need = spec.required(t);
        const int c = count[static_cast<std::size_t>(t)];
        if (need == 0) continue;
        if (c == 0) possible = false;
        else min_h = std::max(min_h, (need + c - 1) / c);
      }
      if (!possible || min_h > dev.height()) continue;
      for (int h = min_h; h <= (min_height_only ? min_h : dev.height()); ++h) {
        ScannedShape s{x, w, h, 0, {}, {}};
        for (int t = 0; t < T; ++t) {
          const int c = count[static_cast<std::size_t>(t)];
          s.covered.push_back(c * h);
          s.waste += static_cast<long>(c * h - spec.required(t)) * dev.tileType(t).frames;
        }
        if (max_waste >= 0 && s.waste > max_waste) break;
        for (int y = 0; y + h <= dev.height(); ++y)
          if (!dev.rectHitsForbidden(Rect{x, y, w, h})) s.ys.push_back(y);
        if (s.ys.empty()) continue;
        *min_waste = std::min(*min_waste, s.waste);
        out.push_back(std::move(s));
      }
    }
  std::sort(out.begin(), out.end(),
            [](const ScannedShape& a, const ScannedShape& b) { return a.waste < b.waste; });
  return out;
}

TEST(Candidates, MatchRowScanOracle) {
  // The bit-grid enumeration lists exactly the row scan's shapes, field by
  // field and in the same order, on the paper's device and on a device
  // taller than one 64-row word whose forbidden blocks straddle row 64.
  const device::Device fx = device::virtex5FX70T();
  const model::FloorplanProblem sdr = model::makeSdrProblem(fx);
  device::Device tall = device::columnarFromPattern("tall", "CCBCCDCCBCCD", 90);
  tall.addForbidden(Rect{2, 60, 3, 8}, "straddle");
  tall.addForbidden(Rect{7, 63, 2, 2}, "boundary");
  tall.addForbidden(Rect{0, 20, 1, 50}, "long");
  tall.addForbidden(Rect{10, 64, 2, 26}, "top");
  model::FloorplanProblem tall_problem(&tall);
  tall_problem.addRegion(model::RegionSpec{"a", {40, 4, 0}});
  tall_problem.addRegion(model::RegionSpec{"b", {90, 0, 6}});
  tall_problem.addRegion(model::RegionSpec{"c", {3, 1, 1}});
  const model::FloorplanProblem* const problems[] = {&sdr, &tall_problem};
  for (const model::FloorplanProblem* p : problems)
    for (int n = 0; n < p->numRegions(); ++n)
      for (const bool min_height_only : {false, true})
        for (const long max_waste : {-1L, 200L}) {
          SCOPED_TRACE(p->dev().name() + " region " + std::to_string(n) + " min_height_only " +
                       std::to_string(min_height_only) + " max_waste " +
                       std::to_string(max_waste));
          long want_min = 0;
          const std::vector<ScannedShape> want =
              scanCandidates(*p, n, max_waste, min_height_only, &want_min);
          const RegionCandidates got = enumerateCandidates(*p, n, max_waste, min_height_only);
          EXPECT_EQ(got.min_waste, want_min);
          ASSERT_EQ(got.shapes.size(), want.size());
          for (std::size_t i = 0; i < want.size(); ++i) {
            const Shape& g = got.shapes[i];
            const ScannedShape& e = want[i];
            ASSERT_EQ(std::vector<int>({g.x, g.w, g.h}), std::vector<int>({e.x, e.w, e.h}))
                << "shape " << i;
            EXPECT_EQ(g.waste, e.waste) << "shape " << i;
            EXPECT_EQ(std::vector<int>(g.ys.begin(), g.ys.end()), e.ys) << "shape " << i;
            EXPECT_EQ(std::vector<int>(g.covered.begin(), g.covered.end()), e.covered)
                << "shape " << i;
          }
        }
}

TEST(Solver, FindsOptimalWasteOnTinyInstance) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCC", 4);
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"a", {2, 1, 0}});
  p.addRegion(model::RegionSpec{"b", {2, 0, 0}});
  const SearchResult res = ColumnarSearchSolver().solve(p);
  ASSERT_EQ(res.status, model::SolveStatus::kOptimal);
  EXPECT_EQ(res.costs.wasted_frames, 0);
  EXPECT_EQ(model::check(p, res.plan), "");
}

TEST(Solver, ProvesInfeasibilityWhenRegionsCannotFit) {
  const device::Device dev = device::columnarFromPattern("t", "CC", 2);
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"a", {3, 0, 0}});
  p.addRegion(model::RegionSpec{"b", {2, 0, 0}});
  const SearchResult res = ColumnarSearchSolver().solve(p);
  EXPECT_EQ(res.status, model::SolveStatus::kInfeasible);
}

TEST(Solver, HardRelocationConstraintIsEnforced) {
  // 6-wide uniform device: region needs 4 tiles (2x2); one hard FC area.
  const device::Device dev = device::uniformDevice(6, 4);
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"r", {4}});
  p.addRelocation(model::RelocationRequest{0, 1, true, 1.0});
  const SearchResult res = ColumnarSearchSolver().solve(p);
  ASSERT_EQ(res.status, model::SolveStatus::kOptimal);
  ASSERT_EQ(res.plan.placedFcCount(), 1);
  EXPECT_EQ(model::check(p, res.plan), "");
}

TEST(Solver, HardRelocationInfeasibleWhenNoRoom) {
  // Region consumes the whole device: no FC area can exist.
  const device::Device dev = device::uniformDevice(2, 2);
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"r", {4}});
  p.addRelocation(model::RelocationRequest{0, 1, true, 1.0});
  const SearchResult res = ColumnarSearchSolver().solve(p);
  EXPECT_EQ(res.status, model::SolveStatus::kInfeasible);
}

TEST(Solver, SoftRelocationDegradesGracefully) {
  const device::Device dev = device::uniformDevice(2, 2);
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"r", {4}});
  p.addRelocation(model::RelocationRequest{0, 1, false, 1.0});
  p.setWeights(model::ObjectiveWeights{0, 0, 1, 1});
  SearchOptions opt;
  opt.mode = ObjectiveMode::kWeighted;
  const SearchResult res = ColumnarSearchSolver(opt).solve(p);
  ASSERT_EQ(res.status, model::SolveStatus::kOptimal);
  EXPECT_EQ(res.plan.placedFcCount(), 0);
  EXPECT_DOUBLE_EQ(res.costs.relocation, 1.0);
}

TEST(Solver, WeightedModePlacesFcWhenBeneficial) {
  const device::Device dev = device::uniformDevice(8, 4);
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"r", {4}});
  p.addRelocation(model::RelocationRequest{0, 2, false, 1.0});
  p.setWeights(model::ObjectiveWeights{0, 0, 1, 1});
  SearchOptions opt;
  opt.mode = ObjectiveMode::kWeighted;
  const SearchResult res = ColumnarSearchSolver(opt).solve(p);
  ASSERT_EQ(res.status, model::SolveStatus::kOptimal);
  EXPECT_EQ(res.plan.placedFcCount(), 2);  // space exists → no reason to skip
}

TEST(Solver, LexicographicPrefersLowerWireLengthAtEqualWaste) {
  const device::Device dev = device::uniformDevice(12, 4);
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"a", {4}});
  p.addRegion(model::RegionSpec{"b", {4}});
  p.addNet(model::Net{{0, 1}, 1.0, "n"});
  const SearchResult res = ColumnarSearchSolver().solve(p);
  ASSERT_EQ(res.status, model::SolveStatus::kOptimal);
  EXPECT_EQ(res.costs.wasted_frames, 0);
  // Zero-waste optimum on WL: 1x4 full-height strips in adjacent columns,
  // center distance 1 on x — strictly better than side-by-side 2x2 blocks.
  EXPECT_NEAR(res.costs.wire_length, 1.0, 1e-9);
}

TEST(Solver, ParallelMatchesSerial) {
  const device::Device dev = device::virtex5FX70T();
  model::FloorplanProblem sdr2 = model::makeSdrProblem(dev);
  model::addSdrRelocations(sdr2, 2);
  SearchOptions serial;
  serial.num_threads = 1;
  SearchOptions parallel;
  parallel.num_threads = 8;
  const SearchResult a = ColumnarSearchSolver(serial).solve(sdr2);
  const SearchResult b = ColumnarSearchSolver(parallel).solve(sdr2);
  ASSERT_EQ(a.status, model::SolveStatus::kOptimal);
  ASSERT_EQ(b.status, model::SolveStatus::kOptimal);
  EXPECT_EQ(a.costs.wasted_frames, b.costs.wasted_frames);
  EXPECT_NEAR(a.costs.wire_length, b.costs.wire_length, 1e-9);
  EXPECT_EQ(model::check(sdr2, a.plan), "");
  EXPECT_EQ(model::check(sdr2, b.plan), "");

  // Observability never changes the answer: the same 8-worker solve with
  // tracing and metrics attached returns the same status and costs.
  telemetry::MetricsRegistry metrics;
  telemetry::TraceRecorder trace;
  telemetry::Context ctx;
  ctx.metrics = &metrics;
  ctx.trace = &trace;
  parallel.telemetry = &ctx;
  const SearchResult traced = ColumnarSearchSolver(parallel).solve(sdr2);
  EXPECT_EQ(traced.status, b.status);
  EXPECT_EQ(traced.costs.wasted_frames, b.costs.wasted_frames);
  EXPECT_NEAR(traced.costs.wire_length, b.costs.wire_length, 1e-9);
}

TEST(Solver, WorkerCountAndSeedingAgreeOnTheOptimum) {
  // Children are bounded against the shared cutoff before they are placed,
  // whoever set it: 1 and 4 workers, and 1- and 4-worker runs seeded with
  // the optimum through the channel, return the same answer.
  const device::Device dev = device::virtex5FX70T();
  model::FloorplanProblem sdr2 = model::makeSdrProblem(dev);
  model::addSdrRelocations(sdr2, 2);
  SearchOptions opt;
  opt.num_threads = 1;
  const SearchResult serial = ColumnarSearchSolver(opt).solve(sdr2);
  ASSERT_EQ(serial.status, model::SolveStatus::kOptimal);
  const auto expectSame = [&](const SearchResult& res, const std::string& label) {
    EXPECT_EQ(res.status, serial.status) << label;
    EXPECT_EQ(res.costs.wasted_frames, serial.costs.wasted_frames) << label;
    EXPECT_DOUBLE_EQ(res.costs.wire_length, serial.costs.wire_length) << label;
    EXPECT_EQ(model::check(sdr2, res.plan), "") << label;
  };
  opt.num_threads = 4;
  expectSame(ColumnarSearchSolver(opt).solve(sdr2), "4 workers");
  for (const int threads : {1, 4}) {
    driver::SharedIncumbent channel(sdr2);
    ASSERT_TRUE(channel.publish(serial.plan, serial.costs, "seed"));
    opt.num_threads = threads;
    opt.incumbent = &channel;
    const SearchResult seeded = ColumnarSearchSolver(opt).solve(sdr2);
    expectSame(seeded, "seeded, " + std::to_string(threads) + " workers");
    EXPECT_EQ(seeded.exchange.adopted, 1);
    EXPECT_GT(seeded.exchange.cutoff_prunes, 0);
    EXPECT_LE(seeded.exchange.cutoff_prunes, seeded.nodes);
    if (threads == 1) {
      EXPECT_LT(seeded.nodes, serial.nodes);
    }
  }
}

TEST(Solver, WorkStealingTelemetryIsConsistent) {
  const device::Device dev = device::virtex5FX70T();
  model::FloorplanProblem sdr2 = model::makeSdrProblem(dev);
  model::addSdrRelocations(sdr2, 2);
  SearchOptions opt;
  opt.num_threads = 8;
  const SearchResult res = ColumnarSearchSolver(opt).solve(sdr2);
  ASSERT_EQ(res.status, model::SolveStatus::kOptimal);
  ASSERT_EQ(res.workers.size(), 8u);
  long nodes = 0, tasks = 0, splits = 0, stolen = 0;
  for (const WorkerStats& w : res.workers) {
    nodes += w.nodes;
    tasks += w.tasks;
    splits += w.splits;
    stolen += w.stolen;
  }
  EXPECT_EQ(nodes, res.nodes);
  // A completed solve executed every task exactly once: each root (claimed
  // through the cursor, and counted as a task by the one worker of a serial
  // run, which never splits) plus every split.
  opt.num_threads = 1;
  const SearchResult serial = ColumnarSearchSolver(opt).solve(sdr2);
  ASSERT_EQ(serial.workers.size(), 1u);
  EXPECT_EQ(serial.workers[0].splits, 0);
  EXPECT_GT(serial.workers[0].tasks, 0);
  EXPECT_EQ(tasks - splits, serial.workers[0].tasks);
  // Only split tasks sit in deques, so only they are stolen — but a stolen
  // task may be stolen again, so the bound is tasks, not splits.
  EXPECT_LE(stolen, tasks);
}

TEST(Solver, FeasibilityAnalysisMatchesPaper) {
  // Sec. VI: "no solution exists ... for the matched filter or the video
  // decoder region"; carrier recovery, demodulator and signal decoder are
  // relocatable.
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem sdr = model::makeSdrProblem(dev);
  SearchOptions opt;
  opt.num_threads = 4;
  const std::vector<bool> reloc = ColumnarSearchSolver(opt).feasibilityAnalysis(sdr);
  ASSERT_EQ(reloc.size(), 5u);
  EXPECT_FALSE(reloc[model::kMatchedFilter]);
  EXPECT_TRUE(reloc[model::kCarrierRecovery]);
  EXPECT_TRUE(reloc[model::kDemodulator]);
  EXPECT_TRUE(reloc[model::kSignalDecoder]);
  EXPECT_FALSE(reloc[model::kVideoDecoder]);
}

TEST(Solver, WasteBudgetMakesProblemInfeasible) {
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem sdr = model::makeSdrProblem(dev);
  SearchOptions opt;
  opt.waste_budget = 10;  // below the 90-frame optimum
  const SearchResult res = ColumnarSearchSolver(opt).solve(sdr);
  EXPECT_EQ(res.status, model::SolveStatus::kInfeasible);
}

TEST(Solver, NeverReturnsAPlanWorseThanAPublishedIncumbent) {
  // Regression for the parallel install race: recordSolution used to gate
  // the plan install on `key <= best_key || !has_plan`, and between a peer's
  // best_key CAS and its install both halves of that test could pass for a
  // strictly worse plan — which was then returned (and published) as "best".
  // The install is now keyed on the mutex-guarded best_plan_key, so a search
  // seeded with the known optimum can never end worse than its seed.
  const device::Device dev = device::virtex5FX70T();
  model::FloorplanProblem p = model::makeSdrProblem(dev);
  model::addSdrRelocations(p, 2);
  SearchOptions serial;
  serial.num_threads = 1;
  const SearchResult opt = ColumnarSearchSolver(serial).solve(p);
  ASSERT_EQ(opt.status, model::SolveStatus::kOptimal);

  for (int round = 0; round < 5; ++round) {
    driver::SharedIncumbent channel(p);
    ASSERT_TRUE(channel.publish(opt.plan, opt.costs, "seed"));
    SearchOptions par;
    par.num_threads = 8;
    par.incumbent = &channel;
    const SearchResult res = ColumnarSearchSolver(par).solve(p);
    ASSERT_TRUE(res.hasSolution()) << "round " << round;
    const model::FloorplanCosts got = model::evaluate(p, res.plan);
    EXPECT_LE(got.wasted_frames, opt.costs.wasted_frames) << "round " << round;
    if (got.wasted_frames == opt.costs.wasted_frames) {
      EXPECT_LE(got.wire_length, opt.costs.wire_length + 1e-9) << "round " << round;
    }
  }
}

TEST(Solver, SeededSearchExpandsASubsetOfTheBlindTree) {
  // A single-threaded search seeded with an annealer incumbent starts its
  // cutoff at that cost instead of +inf, so it can only prune more of the
  // same deterministic tree: never more nodes than the blind search, and
  // fewer where the incumbent is good enough to cut anything.
  const device::Device dev = device::columnarFromPattern("gen", "CCBCCDCCCCBC", 6);
  model::GeneratorOptions gopt;
  gopt.num_regions = 4;
  gopt.max_region_width = 4;
  gopt.max_region_height = 3;
  gopt.num_nets = 3;
  gopt.fc_per_region = 1;
  int instances = 0;
  int fewer = 0;
  for (gopt.seed = 1; instances < 3 && gopt.seed < 40; ++gopt.seed) {
    const auto p = model::generateProblem(dev, gopt);
    if (!p) continue;
    baseline::AnnealerOptions aopt;
    aopt.seed = 7;
    aopt.iterations = 20000;
    const auto incumbent = baseline::annealFloorplan(*p, aopt);
    if (!incumbent) continue;
    ++instances;
    SearchOptions opt;
    opt.num_threads = 1;
    const SearchResult blind = ColumnarSearchSolver(opt).solve(*p);
    driver::SharedIncumbent channel(*p);
    ASSERT_TRUE(channel.publish(incumbent->plan, incumbent->costs, "annealer"));
    opt.incumbent = &channel;
    const SearchResult seeded = ColumnarSearchSolver(opt).solve(*p);
    ASSERT_EQ(blind.status, model::SolveStatus::kOptimal) << "seed " << gopt.seed;
    EXPECT_EQ(seeded.status, blind.status) << "seed " << gopt.seed;
    EXPECT_LE(seeded.nodes, blind.nodes) << "seed " << gopt.seed;
    fewer += seeded.nodes < blind.nodes ? 1 : 0;
  }
  ASSERT_EQ(instances, 3);
  EXPECT_GE(fewer, 1) << "the incumbent never pruned anything";
}

/// Pinned work of one single-threaded solve: a change to the traversal, not
/// only to the answer, moves `nodes`. A change that is meant to alter the
/// search's pruning updates these numbers and says why.
struct PinnedWork {
  model::SolveStatus status;
  long nodes;
  long wasted_frames;
  double wire_length;
};

void expectWork(const model::FloorplanProblem& p, SearchOptions opt, const PinnedWork& want,
                const std::string& label) {
  opt.num_threads = 1;
  const SearchResult res = ColumnarSearchSolver(opt).solve(p);
  EXPECT_EQ(res.status, want.status) << label;
  EXPECT_EQ(res.nodes, want.nodes) << label;
  EXPECT_EQ(res.costs.wasted_frames, want.wasted_frames) << label;
  EXPECT_DOUBLE_EQ(res.costs.wire_length, want.wire_length) << label;
  EXPECT_EQ(model::check(p, res.plan), "") << label;
}

TEST(Solver, WorkIsUnchanged) {
  const device::Device fx = device::virtex5FX70T();
  const PinnedWork sdr[] = {{model::SolveStatus::kOptimal, 1001048, 90, 2976.0},
                            {model::SolveStatus::kOptimal, 1001092, 90, 2976.0},
                            {model::SolveStatus::kOptimal, 1000139, 90, 2976.0},
                            {model::SolveStatus::kOptimal, 998290, 90, 3744.0}};
  for (int fc = 0; fc <= 3; ++fc) {
    model::FloorplanProblem p = model::makeSdrProblem(fx);
    if (fc > 0) model::addSdrRelocations(p, fc);
    expectWork(p, {}, sdr[fc], "SDR, " + std::to_string(fc) + " FC areas per region");
  }
  {
    model::FloorplanProblem p = model::makeSdrProblem(fx);
    model::addSdrRelocations(p, 2);
    SearchOptions opt;
    opt.optimize_wirelength = false;
    expectWork(p, opt, {model::SolveStatus::kOptimal, 4931, 90, 5280.0}, "SDR2, waste only");
  }
  {
    const device::Device dev = device::columnarFromPattern("w", "CCBCCDCCBCCC", 6);
    model::FloorplanProblem p(&dev);
    p.addRegion(model::RegionSpec{"a", {6, 1, 0}});
    p.addRegion(model::RegionSpec{"b", {4, 0, 1}});
    p.addRegion(model::RegionSpec{"c", {5, 1, 0}});
    p.addNet(model::Net{{0, 1}, 2.0, "ab"});
    p.addNet(model::Net{{1, 2}, 1.0, "bc"});
    p.addRelocation(model::RelocationRequest{0, 1, false, 2.0});
    p.addRelocation(model::RelocationRequest{2, 2, false, 1.0});
    p.setWeights(model::ObjectiveWeights{1, 0.5, 1, 1});
    SearchOptions opt;
    opt.mode = ObjectiveMode::kWeighted;
    expectWork(p, opt, {model::SolveStatus::kOptimal, 198305, 60, 5.0}, "weighted, soft FC");
  }
  {
    // Later regions can take the last free-compatible area of an earlier
    // one: the FC check must revisit regions placed before.
    const device::Device dev = device::uniformDevice(8, 2);
    model::FloorplanProblem p(&dev);
    p.addRegion(model::RegionSpec{"a", {4}});
    p.addRegion(model::RegionSpec{"b", {4}});
    p.addRegion(model::RegionSpec{"c", {2}});
    p.addNet(model::Net{{0, 1, 2}, 1.0, "n"});
    p.addRelocation(model::RelocationRequest{0, 1, true, 1.0});
    expectWork(p, {}, {model::SolveStatus::kOptimal, 380, 0, 3.0},
               "FC area taken by later regions");
  }
  {
    // Two hard FC areas per region on a small device: FC checks often fail
    // part-way, and a failed check must not vouch for the region later.
    const device::Device dev = device::columnarFromPattern("m", "CCBCCDCCBCCCDC", 6);
    model::FloorplanProblem p(&dev);
    p.addRegion(model::RegionSpec{"a", {2, 0, 0}});
    p.addRegion(model::RegionSpec{"b", {4, 0, 1}});
    p.addRegion(model::RegionSpec{"c", {3, 0, 0}});
    p.addNet(model::Net{{1, 0}, 5.0, "ba"});
    p.addNet(model::Net{{1, 0}, 4.0, "ba2"});
    p.addNet(model::Net{{1, 2}, 2.0, "bc"});
    for (int n = 0; n < 3; ++n) p.addRelocation(model::RelocationRequest{n, 2, true, 1.0});
    expectWork(p, {}, {model::SolveStatus::kOptimal, 26385, 0, 19.5}, "two FC areas per region");
  }
  {
    // 70 rows: two words per column, and the hard block straddles row 64.
    device::Device dev = device::columnarFromPattern("tall", "CCBCCDCCBCC", 70);
    dev.addForbidden(Rect{3, 60, 4, 8}, "hard");
    model::FloorplanProblem p(&dev);
    p.addRegion(model::RegionSpec{"a", {120, 40, 0}});
    p.addRegion(model::RegionSpec{"b", {100, 0, 30}});
    p.addRegion(model::RegionSpec{"c", {80, 20, 0}});
    p.addNet(model::Net{{0, 1, 2}, 1.0, "bus"});
    p.addRelocation(model::RelocationRequest{2, 1, true, 1.0});
    expectWork(p, {}, {model::SolveStatus::kOptimal, 5319, 184, 33.5}, "70-row device");
  }
}

/// FNV-1a over the bytes of 64-bit words.
struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
};

/// `p` with every net re-weighted to a multiple of 0.1, after two random
/// multi-pin nets are added when `multi_pin`. Non-dyadic weights make the
/// wire-length sums round differently when summed in different orders.
model::FloorplanProblem withDecimalNets(const model::FloorplanProblem& p, std::uint64_t seed,
                                        bool multi_pin) {
  model::FloorplanProblem q(&p.dev());
  for (int n = 0; n < p.numRegions(); ++n) q.addRegion(p.region(n));
  Rng rng(seed);
  std::vector<model::Net> nets = p.nets();
  for (int k = 0; multi_pin && k < 2; ++k) {
    model::Net net;
    for (int r = 0; r < p.numRegions(); ++r)
      if (rng.nextBelow(3) != 0) net.regions.push_back(r);
    if (net.regions.size() < 2) net.regions = {k, k + 1};
    nets.push_back(net);
  }
  for (model::Net& net : nets) {
    net.weight = 0.1 * static_cast<double>(1 + rng.nextBelow(30));
    q.addNet(net);
  }
  for (const model::RelocationRequest& r : p.relocations()) q.addRelocation(r);
  q.setLexicographic(true);
  q.setWeights(model::ObjectiveWeights{40.0, 0.3, 1.0, 0.7});
  return q;
}

TEST(Solver, GeneratedWorkIsPinned) {
  // The work of many small single-threaded solves, folded into one hash:
  // a change to a bound's arithmetic that moves a prune at an exact tie
  // moves some node count here.
  const device::Device wide = device::columnarFromPattern("wide", "CCBCCDCCCCBC", 6);
  const device::Device small = device::columnarFromPattern("small", "CCBCDCCB", 4);
  struct Config {
    const char* label;
    const device::Device* dev;
    int num_regions;
    int fc_per_region;
    bool soft;
    bool multi_pin;
    ObjectiveMode mode;
    bool optimize_wirelength;
    int seeds;
  };
  const Config configs[] = {
      {"lexicographic", &wide, 5, 0, false, false, ObjectiveMode::kLexicographic, true, 10},
      {"waste only, hard FC", &wide, 4, 1, false, false, ObjectiveMode::kLexicographic, false, 10},
      {"hard FC", &wide, 4, 1, false, true, ObjectiveMode::kLexicographic, true, 10},
      {"multi-pin nets", &wide, 5, 0, false, true, ObjectiveMode::kLexicographic, true, 10},
      {"weighted, soft FC", &small, 3, 1, true, true, ObjectiveMode::kWeighted, true, 30},
      {"weighted, no FC", &small, 3, 0, false, true, ObjectiveMode::kWeighted, true, 10},
  };
  Fnv1a hash;
  int solved = 0;
  for (const Config& c : configs) {
    model::GeneratorOptions gopt;
    gopt.num_regions = c.num_regions;
    gopt.max_region_width = 3;
    gopt.max_region_height = 2;
    gopt.num_nets = 3;
    gopt.fc_per_region = c.fc_per_region;
    gopt.soft_relocation = c.soft;
    for (gopt.seed = 1; gopt.seed <= static_cast<std::uint64_t>(c.seeds); ++gopt.seed) {
      const std::optional<model::FloorplanProblem> gen = model::generateProblem(*c.dev, gopt);
      if (!gen) continue;
      const model::FloorplanProblem p = withDecimalNets(*gen, gopt.seed, c.multi_pin);
      SearchOptions opt;
      opt.num_threads = 1;
      opt.mode = c.mode;
      opt.optimize_wirelength = c.optimize_wirelength;
      const SearchResult res = ColumnarSearchSolver(opt).solve(p);
      hash.add(static_cast<std::uint64_t>(res.status));
      hash.add(static_cast<std::uint64_t>(res.nodes));
      hash.add(static_cast<std::uint64_t>(res.costs.wasted_frames));
      hash.add(std::bit_cast<std::uint64_t>(res.costs.wire_length));
      if (res.hasSolution()) {
        ++solved;
        EXPECT_EQ(model::check(p, res.plan), "") << c.label << ", seed " << gopt.seed;
      }
    }
  }
  EXPECT_EQ(solved, 78);
  EXPECT_EQ(hash.h, 0xb54183f036e8be08ull);
}

TEST(Solver, ARegionListedTwiceInANetCountsOnce) {
  // A net may name a region twice; its bounding box, and so the whole
  // search, is that of the net naming it once. Regions are placed in the
  // order b, a, c, d (fewest placements first), so "a" is placed with
  // later regions still to come and its second net already live.
  const device::Device dev = device::columnarFromPattern("d", "CCBCCDCCBCCC", 6);
  model::FloorplanProblem once(&dev);
  once.addRegion(model::RegionSpec{"a", {3, 0, 0}});
  once.addRegion(model::RegionSpec{"b", {4, 1, 0}});
  once.addRegion(model::RegionSpec{"c", {2, 0, 0}});
  once.addRegion(model::RegionSpec{"d", {1, 0, 0}});
  model::FloorplanProblem twice = once;
  once.addNet(model::Net{{0, 2}, 2.0, "ac"});
  twice.addNet(model::Net{{0, 2, 0}, 2.0, "ac"});
  for (model::FloorplanProblem* p : {&once, &twice}) {
    p->addNet(model::Net{{1, 0}, 3.0, "ba"});
    p->addNet(model::Net{{2, 3}, 1.0, "cd"});
    p->addNet(model::Net{{3, 1}, 1.0, "db"});
  }
  SearchOptions opt;
  opt.num_threads = 1;
  const SearchResult a = ColumnarSearchSolver(opt).solve(once);
  const SearchResult b = ColumnarSearchSolver(opt).solve(twice);
  ASSERT_EQ(a.status, model::SolveStatus::kOptimal);
  EXPECT_EQ(b.status, a.status);
  EXPECT_EQ(b.nodes, a.nodes);
  EXPECT_EQ(b.costs.wasted_frames, a.costs.wasted_frames);
  EXPECT_DOUBLE_EQ(b.costs.wire_length, a.costs.wire_length);
}

TEST(Solver, StopFlagIsSeenAtTheFirstPoll) {
  // The deadline, stop flag and incumbent channel are polled once per 256
  // expanded nodes, starting with the first poll point: a solve whose stop
  // flag is already set expands only the root task's replayed placement.
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem p = model::makeSdrProblem(dev);
  std::atomic<bool> stop{true};
  SearchOptions opt;
  opt.stop = &stop;
  const SearchResult res = ColumnarSearchSolver(opt).solve(p);
  EXPECT_FALSE(res.status == model::SolveStatus::kOptimal ||
               res.status == model::SolveStatus::kInfeasible);
  EXPECT_EQ(res.nodes, 1);
}

TEST(Solver, SolutionsAlwaysPassTheIndependentChecker) {
  const device::Device dev = device::virtex5FX70T();
  for (int fc = 0; fc <= 3; ++fc) {
    model::FloorplanProblem p = model::makeSdrProblem(dev);
    if (fc > 0) model::addSdrRelocations(p, fc);
    SearchOptions opt;
    opt.num_threads = 8;
    const SearchResult res = ColumnarSearchSolver(opt).solve(p);
    ASSERT_TRUE(res.hasSolution()) << "fc=" << fc;
    EXPECT_EQ(model::check(p, res.plan), "") << "fc=" << fc;
  }
}

}  // namespace
}  // namespace rfp::search
