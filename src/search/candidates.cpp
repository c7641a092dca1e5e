#include "search/candidates.hpp"

#include <algorithm>
#include <climits>

#include "support/check.hpp"

namespace rfp::search {

RegionCandidates enumerateCandidates(const model::FloorplanProblem& problem, int n,
                                     long max_waste, bool min_height_only) {
  const device::Device& dev = problem.dev();
  RFP_CHECK_MSG(dev.isColumnar(), "exact search requires a columnar device");
  const int W = dev.width();
  const int H = dev.height();
  const int T = dev.numTileTypes();
  const model::RegionSpec& spec = problem.region(n);

  // Prefix sums of column counts per type: cols[t][x] = #columns of type t
  // in [0, x).
  std::vector<std::vector<int>> cols(static_cast<std::size_t>(T),
                                     std::vector<int>(static_cast<std::size_t>(W) + 1, 0));
  for (int x = 0; x < W; ++x) {
    const int t = dev.columnType(x);
    for (int tt = 0; tt < T; ++tt)
      cols[static_cast<std::size_t>(tt)][static_cast<std::size_t>(x) + 1] =
          cols[static_cast<std::size_t>(tt)][static_cast<std::size_t>(x)] + (tt == t ? 1 : 0);
  }

  RegionCandidates out;
  out.min_waste = LONG_MAX / 4;
  for (int w = 1; w <= W; ++w) {
    for (int x = 0; x + w <= W; ++x) {
      // Tiles of type t covered = colsOfType(t) * h. Find the minimal h that
      // covers every requirement; all h >= that are candidates too (they may
      // trade waste for geometry, e.g. when relocation needs taller areas).
      int min_h = 1;
      bool possible = true;
      for (int t = 0; t < T && possible; ++t) {
        const int c = cols[static_cast<std::size_t>(t)][static_cast<std::size_t>(x + w)] -
                      cols[static_cast<std::size_t>(t)][static_cast<std::size_t>(x)];
        const int need = spec.required(t);
        if (need == 0) continue;
        if (c == 0) {
          possible = false;
          break;
        }
        min_h = std::max(min_h, (need + c - 1) / c);
      }
      if (!possible || min_h > H) continue;
      const int max_h = min_height_only ? min_h : H;
      for (int h = min_h; h <= max_h; ++h) {
        long waste = 0;
        std::vector<int> covered(static_cast<std::size_t>(T), 0);
        for (int t = 0; t < T; ++t) {
          const int c = cols[static_cast<std::size_t>(t)][static_cast<std::size_t>(x + w)] -
                        cols[static_cast<std::size_t>(t)][static_cast<std::size_t>(x)];
          covered[static_cast<std::size_t>(t)] = c * h;
          waste += static_cast<long>(c * h - spec.required(t)) * dev.tileType(t).frames;
        }
        if (max_waste >= 0 && waste > max_waste) break;  // waste grows with h
        Shape s;
        s.x = x;
        s.w = w;
        s.h = h;
        s.waste = waste;
        s.ys = validRows(dev, x, w, h);
        s.covered = std::move(covered);
        if (s.ys.empty()) continue;
        out.min_waste = std::min(out.min_waste, waste);
        out.shapes.push_back(std::move(s));
      }
    }
  }
  std::sort(out.shapes.begin(), out.shapes.end(),
            [](const Shape& a, const Shape& b) { return a.waste < b.waste; });
  return out;
}

std::vector<int> matchingColumnSpans(const device::Device& dev, int x0, int w) {
  std::vector<int> out;
  const device::Rect src{x0, 0, w, 1};
  const std::vector<int> sig = dev.columnSignature(src);
  for (int x = 0; x + w <= dev.width(); ++x) {
    bool match = true;
    for (int i = 0; i < w && match; ++i)
      match = dev.columnType(x + i) == sig[static_cast<std::size_t>(i)];
    if (match) out.push_back(x);
  }
  return out;
}

ColumnSpanTable::ColumnSpanTable(const device::Device& dev) : width_(dev.width()) {
  const auto W = static_cast<std::size_t>(width_);
  std::vector<int> type(W);
  for (std::size_t x = 0; x < W; ++x) type[x] = dev.columnType(static_cast<int>(x));
  // lcp[a * (W+1) + b], with lcp(·, W) = lcp(W, ·) = 0.
  std::vector<std::size_t> lcp((W + 1) * (W + 1), 0);
  for (std::size_t a = W; a-- > 0;)
    for (std::size_t b = 0; b < W; ++b)
      if (type[a] == type[b]) lcp[a * (W + 1) + b] = 1 + lcp[(a + 1) * (W + 1) + b + 1];
  // b belongs to lists (a, 1..lcp(a, b)); ascending b keeps every list
  // ascending. One walk sizes the lists, the second fills them.
  const auto eachMatch = [&](auto&& visit) {
    for (std::size_t a = 0; a < W; ++a)
      for (std::size_t b = 0; b < W; ++b)
        for (std::size_t w = 1; w <= lcp[a * (W + 1) + b]; ++w) visit(a * W + w - 1, b);
  };
  start_.assign(W * W + 1, 0);
  eachMatch([&](std::size_t i, std::size_t) { ++start_[i + 1]; });
  for (std::size_t i = 0; i < W * W; ++i) start_[i + 1] += start_[i];
  xs_.resize(start_.back());
  std::vector<std::size_t> next(start_.begin(), start_.end() - 1);
  eachMatch([&](std::size_t i, std::size_t b) { xs_[next[i]++] = static_cast<int>(b); });
}

std::vector<int> validRows(const device::Device& dev, int x, int w, int h) {
  std::vector<int> ys;
  for (int y = 0; y + h <= dev.height(); ++y)
    if (!dev.rectHitsForbidden(device::Rect{x, y, w, h})) ys.push_back(y);
  return ys;
}

}  // namespace rfp::search
