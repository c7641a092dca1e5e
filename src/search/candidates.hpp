// Candidate placement enumeration for the exact columnar solver.
//
// On a columnar device the tiles covered by a rectangle depend only on
// (x, w, h) — each column contributes h tiles of its column type — so
// candidates factor into *shapes* (x, w, h, waste) × feasible y positions.
// Wasted frames per shape are y-independent; forbidden areas only restrict
// the y list. This factorization is what makes exhaustive search tractable
// at paper scale (DESIGN.md §3 substitution 2).
#pragma once

#include <span>
#include <type_traits>
#include <vector>

#include "device/device.hpp"
#include "model/problem.hpp"
#include "search/occupancy.hpp"

namespace rfp::search {

/// A placement shape for one region: column span and height, with the
/// (y-independent) wasted frames, plus the valid top rows. `ys` and `covered`
/// view the pool of the RegionCandidates that holds the shape.
struct Shape {
  int x = 0;
  int w = 0;
  int h = 0;
  long waste = 0;                ///< wasted frames of any placement of this shape
  std::span<const int> ys;       ///< valid top rows, ascending (forbidden areas excluded)
  std::span<const int> covered;  ///< tiles covered per type id (c_t · h)
};

/// All shapes for one region, sorted by ascending waste. Every shape's rows
/// and coverage sit in one pool owned here, so the set is move-only: a move
/// keeps the pool's buffer and with it the shapes' views, a copy would leave
/// them pointing into the source.
struct RegionCandidates {
  RegionCandidates() = default;
  RegionCandidates(RegionCandidates&&) noexcept = default;
  RegionCandidates& operator=(RegionCandidates&&) noexcept = default;
  RegionCandidates(const RegionCandidates&) = delete;
  RegionCandidates& operator=(const RegionCandidates&) = delete;

  std::vector<Shape> shapes;
  long min_waste = 0;  ///< waste of the cheapest shape (0 shapes: LONG_MAX/4)

  [[nodiscard]] std::size_t totalPlacements() const noexcept {
    std::size_t n = 0;
    for (const Shape& s : shapes) n += s.ys.size();
    return n;
  }

 private:
  friend RegionCandidates enumerateCandidates(const model::FloorplanProblem&, int, long, bool);
  /// Per shape, in enumeration order: its ys, then its covered counts.
  std::vector<int> pool_;
};
static_assert(!std::is_copy_constructible_v<RegionCandidates> &&
                  std::is_nothrow_move_constructible_v<RegionCandidates>,
              "shapes view pool_: a copy would alias the source's pool");

/// Enumerates all shapes whose coverage satisfies region `n` of `problem`,
/// with waste at most `max_waste` (< 0: unlimited). Requires a columnar
/// device (checked).
///
/// With `min_height_only`, only the minimal feasible height per column span
/// is emitted. Taller shapes are strictly dominated whenever the objective
/// is monotone in waste (lexicographic mode, feasibility tests): shrinking
/// every rect of a solution to its span's minimal height preserves
/// disjointness, forbidden-area avoidance, coverage, and FC-area
/// compatibility, while strictly reducing waste.
[[nodiscard]] RegionCandidates enumerateCandidates(const model::FloorplanProblem& problem,
                                                   int n, long max_waste = -1,
                                                   bool min_height_only = false);

/// All x positions whose column-type signature matches columns [x0, x0+w) —
/// the compatible column spans per Definition .1 (y positions are free on a
/// columnar device, up to forbidden areas). Includes x0 itself.
[[nodiscard]] std::vector<int> matchingColumnSpans(const device::Device& dev, int x0, int w);

/// matchingColumnSpans for every column span (x, w) of a columnar device,
/// built in O(W² + output) from one common-prefix pass over the column types:
/// lcp(a, b) = type[a] == type[b] ? 1 + lcp(a+1, b+1) : 0, and x' matches
/// (x, w) iff lcp(x, x') >= w. Each list is ascending, as matchingColumnSpans
/// returns it; spans with x + w > W have an empty list. All lists share one
/// array, so building the table allocates a few times, not once per span.
class ColumnSpanTable {
 public:
  ColumnSpanTable() = default;
  explicit ColumnSpanTable(const device::Device& dev);

  /// The x positions matching columns [x, x+w); 0 <= x < W, 1 <= w <= W.
  [[nodiscard]] std::span<const int> spans(int x, int w) const {
    const std::size_t i = static_cast<std::size_t>(x) * static_cast<std::size_t>(width_) +
                          static_cast<std::size_t>(w) - 1;
    return {xs_.data() + start_[i], xs_.data() + start_[i + 1]};
  }

 private:
  int width_ = 0;
  /// List (x, w) is xs_[start_[i], start_[i+1]) with i = x * W + w - 1.
  std::vector<std::size_t> start_;
  std::vector<int> xs_;
};

/// The device's forbidden tiles as an occupancy grid.
[[nodiscard]] Occupancy forbiddenGrid(const device::Device& dev);

/// Valid top rows, ascending, for an h-tall rect at columns [x, x+w)
/// avoiding forbidden areas: the free h-row windows of forbiddenGrid(dev),
/// found as enumerateCandidates finds a shape's rows.
[[nodiscard]] std::vector<int> validRows(const device::Device& dev, int x, int w, int h);

}  // namespace rfp::search
