// Bit-grid occupancy map used by the exact search solver.
//
// One bit per tile, column-major: a word holds 64 rows of one column, and
// each column stores its rows as ceil(height/64) words — one on every device
// up to 64 rows tall. Word k of column x (rows [64k, 64k+64)) sits at
// k·width + x, so the words of a column span are contiguous. A rect
// operation touches one word per column and row word, and the search's hot
// question — which h-row windows of a column span are free? — is one OR
// over the span's columns (orColumns) and a shift-AND over the result
// (freeWindows), after which each window is a bit (windowFree).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "device/geometry.hpp"
#include "support/check.hpp"

namespace rfp::search {

class Occupancy {
 public:
  Occupancy(int width, int height)
      : width_(width), height_(height), words_per_col_((height + 63) / 64) {
    RFP_CHECK(width > 0 && height > 0);
    words_.assign(static_cast<std::size_t>(width) * static_cast<std::size_t>(words_per_col_), 0);
  }

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }
  /// Words per column, and the length of a row-bit buffer (orColumns).
  [[nodiscard]] int wordsPerColumn() const noexcept { return words_per_col_; }

  /// True if any tile of `r` is occupied.
  [[nodiscard]] bool overlaps(const device::Rect& r) const noexcept {
    if (r.empty()) return false;
    std::uint64_t hit = 0;
    for (int k = r.y / 64; k <= (r.y2() - 1) / 64; ++k) {
      const std::uint64_t mask = rowMask(k, r.y, r.y2());
      const std::uint64_t* col = words_.data() + index(r.x, k);
      for (int i = 0; i < r.w; ++i) hit |= col[i] & mask;
    }
    return hit != 0;
  }

  void fill(const device::Rect& r) noexcept {
    if (r.empty()) return;
    for (int k = r.y / 64; k <= (r.y2() - 1) / 64; ++k) {
      const std::uint64_t mask = rowMask(k, r.y, r.y2());
      std::uint64_t* col = words_.data() + index(r.x, k);
      for (int i = 0; i < r.w; ++i) col[i] |= mask;
    }
  }

  void clear(const device::Rect& r) noexcept {
    if (r.empty()) return;
    for (int k = r.y / 64; k <= (r.y2() - 1) / 64; ++k) {
      const std::uint64_t mask = ~rowMask(k, r.y, r.y2());
      std::uint64_t* col = words_.data() + index(r.x, k);
      for (int i = 0; i < r.w; ++i) col[i] &= mask;
    }
  }

  [[nodiscard]] bool occupied(int x, int y) const noexcept {
    return (words_[index(x, y / 64)] >> (y % 64)) & 1u;
  }

  [[nodiscard]] int popcount() const noexcept {
    int n = 0;
    for (const std::uint64_t w : words_) n += __builtin_popcountll(w);
    return n;
  }

  /// Writes the OR of columns [x, x+w) to `rows` (wordsPerColumn() words):
  /// bit y is set iff some tile of row y in those columns is occupied.
  void orColumns(int x, int w, std::uint64_t* rows) const noexcept {
    for (int k = 0; k < words_per_col_; ++k) {
      const std::uint64_t* col = words_.data() + index(x, k);
      std::uint64_t acc = 0;
      for (int i = 0; i < w; ++i) acc |= col[i];
      rows[k] = acc;
    }
  }

  /// Turns an orColumns result into its free h-row windows: afterwards bit
  /// y is set iff rows [y, y+h) are all clear and y + h <= height(). The
  /// free rows are ANDed with themselves shifted down by 1, 2, 4, ... rows
  /// (h-1 rows in all); rows at and past height() count as occupied, so
  /// windows running off the device never survive.
  void freeWindows(std::uint64_t* rows, int h) const noexcept {
    for (int k = 0; k < words_per_col_; ++k) rows[k] = ~rows[k];
    rows[words_per_col_ - 1] &= rowMask(words_per_col_ - 1, 0, height_);
    for (int len = 1; len < h;) {
      const int s = std::min(len, h - len);
      andShiftedDown(rows, s);
      len += s;
    }
  }

  /// True if bit y of a freeWindows result is set: the window at y is free.
  [[nodiscard]] static bool windowFree(const std::uint64_t* windows, int y) noexcept {
    return (windows[y / 64] >> (y % 64)) & 1u;
  }

 private:
  [[nodiscard]] std::size_t index(int x, int k) const noexcept {
    return static_cast<std::size_t>(k) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(x);
  }

  /// Bits of word k covering rows [y0, y1), for a word k the rows meet
  /// (y0/64 <= k <= (y1-1)/64).
  [[nodiscard]] static std::uint64_t rowMask(int k, int y0, int y1) noexcept {
    const int lo = std::max(y0 - 64 * k, 0);
    const int hi = std::min(y1 - 64 * k, 64);
    return (~0ull >> (64 - (hi - lo))) << lo;
  }

  /// rows &= rows >> s over the whole column, s >= 1: bit y is ANDed with
  /// bit y+s (zero past the last word). Ascending k reads only words >= k,
  /// which are still unmodified, so the update runs in place.
  void andShiftedDown(std::uint64_t* rows, int s) const noexcept {
    const int q = s / 64;
    const int r = s % 64;
    for (int k = 0; k < words_per_col_; ++k) {
      const std::uint64_t lo = k + q < words_per_col_ ? rows[k + q] : 0;
      const std::uint64_t hi = k + q + 1 < words_per_col_ ? rows[k + q + 1] : 0;
      rows[k] &= r == 0 ? lo : (lo >> r) | (hi << (64 - r));
    }
  }

  int width_;
  int height_;
  int words_per_col_;
  std::vector<std::uint64_t> words_;
};

}  // namespace rfp::search
