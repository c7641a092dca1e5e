#include "search/candidates.hpp"

#include <algorithm>
#include <climits>
#include <cstddef>
#include <cstdint>

#include "support/check.hpp"

namespace rfp::search {

namespace {

/// The one definition of valid rows: turns `rows`, an orColumns result of
/// `grid`, into its free h-row windows and calls visit(y) for each window's
/// top row y, ascending.
template <class Visit>
void forEachFreeRow(const Occupancy& grid, std::uint64_t* rows, int h, Visit&& visit) {
  grid.freeWindows(rows, h);
  for (int k = 0; k < grid.wordsPerColumn(); ++k)
    for (std::uint64_t bits = rows[k]; bits != 0; bits &= bits - 1)
      visit(64 * k + __builtin_ctzll(bits));
}

}  // namespace

RegionCandidates enumerateCandidates(const model::FloorplanProblem& problem, int n,
                                     long max_waste, bool min_height_only) {
  const device::Device& dev = problem.dev();
  RFP_CHECK_MSG(dev.isColumnar(), "exact search requires a columnar device");
  const int W = dev.width();
  const int H = dev.height();
  const auto T = static_cast<std::size_t>(dev.numTileTypes());
  const model::RegionSpec& spec = problem.region(n);

  // Prefix sums of column counts per type: cols[x * T + t] = #columns of
  // type t in [0, x).
  std::vector<int> cols((static_cast<std::size_t>(W) + 1) * T, 0);
  for (int x = 0; x < W; ++x) {
    const auto at = static_cast<std::size_t>(x) * T;
    std::copy_n(cols.begin() + static_cast<std::ptrdiff_t>(at), T,
                cols.begin() + static_cast<std::ptrdiff_t>(at + T));
    ++cols[at + T + static_cast<std::size_t>(dev.columnType(x))];
  }

  const Occupancy forbidden = forbiddenGrid(dev);
  const auto words = static_cast<std::size_t>(forbidden.wordsPerColumn());
  // span_or[x * words, (x + 1) * words) is the OR of columns [x, x + w) for
  // the current w: each pass over x widens every span by one column, so all
  // spans cost O(W²) words in all.
  std::vector<std::uint64_t> span_or(static_cast<std::size_t>(W) * words, 0);
  std::vector<std::uint64_t> column(words);
  std::vector<std::uint64_t> windows(words);
  std::vector<int> count(T);  // columns of each type in the span
  std::vector<int> need(T);   // the region's required tiles per type
  std::vector<long> frames(T);
  for (std::size_t t = 0; t < T; ++t) {
    need[t] = spec.required(static_cast<int>(t));
    frames[t] = dev.tileType(static_cast<int>(t)).frames;
  }

  // One record per shape, its ys and covered at pool_[at, at + rows + T).
  struct Record {
    long waste;
    int x, w, h;
    std::size_t at, rows;
  };
  std::vector<Record> records;
  RegionCandidates out;
  out.min_waste = LONG_MAX / 4;
  std::vector<int>& pool = out.pool_;
  for (int w = 1; w <= W; ++w) {
    for (int x = 0; x + w <= W; ++x) {
      std::uint64_t* span = span_or.data() + static_cast<std::size_t>(x) * words;
      forbidden.orColumns(x + w - 1, 1, column.data());
      for (std::size_t k = 0; k < words; ++k) span[k] |= column[k];
      // Tiles of type t covered = colsOfType(t) * h. Find the minimal h that
      // covers every requirement; all h >= that are candidates too (they may
      // trade waste for geometry, e.g. when relocation needs taller areas).
      int min_h = 1;
      bool possible = true;
      for (std::size_t t = 0; t < T && possible; ++t) {
        count[t] = cols[static_cast<std::size_t>(x + w) * T + t] -
                   cols[static_cast<std::size_t>(x) * T + t];
        if (need[t] == 0) continue;
        if (count[t] == 0) possible = false;
        else min_h = std::max(min_h, (need[t] + count[t] - 1) / count[t]);
      }
      if (!possible || min_h > H) continue;
      const int max_h = min_height_only ? min_h : H;
      for (int h = min_h; h <= max_h; ++h) {
        long waste = 0;
        for (std::size_t t = 0; t < T; ++t)
          waste += static_cast<long>(count[t] * h - need[t]) * frames[t];
        if (max_waste >= 0 && waste > max_waste) break;  // waste grows with h
        const std::size_t at = pool.size();
        std::copy_n(span, words, windows.begin());
        forEachFreeRow(forbidden, windows.data(), h, [&](int y) { pool.push_back(y); });
        const std::size_t rows = pool.size() - at;
        if (rows == 0) continue;
        for (std::size_t t = 0; t < T; ++t) pool.push_back(count[t] * h);
        out.min_waste = std::min(out.min_waste, waste);
        records.push_back(Record{waste, x, w, h, at, rows});
      }
    }
  }
  // std::sort's moves follow from the comparison outcomes alone, so sorting
  // the records with the shapes' comparator orders the shapes as sorting
  // the shapes themselves would, ties included.
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.waste < b.waste; });
  // The pool is complete: the views taken below stay valid for its life.
  out.shapes.reserve(records.size());
  for (const Record& r : records)
    out.shapes.push_back(Shape{r.x, r.w, r.h, r.waste, {pool.data() + r.at, r.rows},
                               {pool.data() + r.at + r.rows, T}});
  return out;
}

Occupancy forbiddenGrid(const device::Device& dev) {
  Occupancy grid(dev.width(), dev.height());
  for (const device::Rect& f : dev.forbidden()) grid.fill(f);
  return grid;
}

void appendCompatibleRects(const device::Device& dev, const Occupancy& forbidden,
                           const device::Rect& src, std::uint64_t* rows,
                           std::vector<device::Rect>& out) {
  for (const int x : dev.matchingSpans(src.x, src.w)) {
    forbidden.orColumns(x, src.w, rows);
    forEachFreeRow(forbidden, rows, src.h,
                   [&](int y) { out.push_back(device::Rect{x, y, src.w, src.h}); });
  }
}

}  // namespace rfp::search
