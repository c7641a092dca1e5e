// Candidate placement enumeration for the exact columnar solver.
//
// On a columnar device the tiles covered by a rectangle depend only on
// (x, w, h) — each column contributes h tiles of its column type — so
// candidates factor into *shapes* (x, w, h, waste) × feasible y positions.
// Wasted frames per shape are y-independent; forbidden areas only restrict
// the y list. This factorization is what makes exhaustive search tractable
// at paper scale (DESIGN.md §3 substitution 2).
#pragma once

#include <cstdint>
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

/// The device's forbidden tiles as an occupancy grid.
[[nodiscard]] Occupancy forbiddenGrid(const device::Device& dev);

/// The free-compatible candidates of a region placed at `src`: appends to
/// `out`, ascending in (x, y), every rect of src's size at a column span
/// compatible with src's (Definition .1, Device::matchingSpans) whose rows
/// are clear in `forbidden`, the device's forbiddenGrid. src itself is among
/// them when it avoids the forbidden areas. `rows` is
/// forbidden.wordsPerColumn() words of scratch.
void appendCompatibleRects(const device::Device& dev, const Occupancy& forbidden,
                           const device::Rect& src, std::uint64_t* rows,
                           std::vector<device::Rect>& out);

}  // namespace rfp::search
