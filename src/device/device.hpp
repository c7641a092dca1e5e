// FPGA device model (Section II/III of the paper).
//
// The minimal unit of reconfiguration is a *tile* (one column wide, one
// clock-region high). A `TileType` realizes Definition .1: two tiles are of
// the same type iff they have the same resources *and* identical
// configuration data, so the type id is the unit of bitstream compatibility.
//
// The paper's Virtex-5 FX70T case study uses CLB/BRAM/DSP tiles with
// 36/30/28 configuration frames respectively (Table I arithmetic confirms
// these numbers exactly). Hard blocks (the PPC440) appear as *forbidden
// areas* that reconfigurable regions and free-compatible areas must avoid.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "device/geometry.hpp"

namespace rfp::device {

/// A tile type per Definition .1. `resources` lists logic primitives
/// contained in one tile (e.g. a Virtex-5 CLB tile holds 20 CLBs); `frames`
/// is the number of configuration frames a column of this type occupies.
struct TileType {
  std::string name;                     ///< "CLB", "BRAM", "DSP", ...
  std::map<std::string, int> resources; ///< primitive name → count per tile
  int frames = 0;                       ///< configuration frames per tile
};

class Device {
 public:
  /// Builds a device from a per-column type map (columnar architectures,
  /// which covers Virtex-5/6/7-style devices; Sec. III-A simplification).
  /// `column_types[x]` is an index into `types` for every tile in column x.
  Device(std::string name, int width, int height, std::vector<TileType> types,
         std::vector<int> column_types);

  /// Fully general constructor with an explicit per-tile type grid
  /// (row-major, `grid[y * width + x]`). Non-columnar devices are accepted;
  /// the columnar partitioning will simply report failure on them.
  Device(std::string name, int width, int height, std::vector<TileType> types,
         std::vector<int> grid, bool row_major_grid);

  // ---- shape -------------------------------------------------------------
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }
  [[nodiscard]] Rect bounds() const noexcept { return Rect{0, 0, width_, height_}; }

  // ---- tile types ----------------------------------------------------------
  [[nodiscard]] int numTileTypes() const noexcept { return static_cast<int>(types_.size()); }
  [[nodiscard]] const TileType& tileType(int id) const { return types_.at(static_cast<std::size_t>(id)); }
  /// Type id by name; -1 when absent.
  [[nodiscard]] int tileTypeId(const std::string& name) const noexcept;

  /// Type id of the tile at (x, y).
  [[nodiscard]] int typeAt(int x, int y) const {
    return grid_.at(static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
                    static_cast<std::size_t>(x));
  }

  /// True when every column has a single tile type (columnar device).
  [[nodiscard]] bool isColumnar() const noexcept;
  /// The type of column x; requires the column to be uniform. O(1): read
  /// from the per-column types computed at construction.
  [[nodiscard]] int columnType(int x) const;

  // ---- forbidden areas -----------------------------------------------------
  /// `r` must lie inside the device and cover at least one tile (checked).
  void addForbidden(Rect r, std::string label = "");
  [[nodiscard]] const std::vector<Rect>& forbidden() const noexcept { return forbidden_; }
  [[nodiscard]] const std::vector<std::string>& forbiddenLabels() const noexcept {
    return forbidden_labels_;
  }
  [[nodiscard]] bool inForbidden(int x, int y) const noexcept;
  [[nodiscard]] bool rectHitsForbidden(const Rect& r) const noexcept;

  // ---- accounting ----------------------------------------------------------
  /// Per-type tile histogram inside `r`.
  [[nodiscard]] std::vector<int> tileHistogram(const Rect& r) const;
  /// Configuration frames spanned by `r` (sum of frames of covered tiles).
  [[nodiscard]] long framesInRect(const Rect& r) const;
  /// Device-wide totals per type (forbidden tiles excluded when
  /// `usable_only`).
  [[nodiscard]] std::vector<int> totalTiles(bool usable_only) const;
  [[nodiscard]] long totalFrames() const;

  /// Column-type signature of `r`: the sequence of tile types, column by
  /// column, of the rectangle's top row. For columnar devices this fully
  /// determines the footprint together with (w, h) — the basis of area
  /// compatibility (Definition .1 / Fig. 1).
  [[nodiscard]] std::vector<int> columnSignature(const Rect& r) const;

 private:
  void validate() const;
  /// Fills `column_type_` from `grid_`; called once by each constructor.
  void computeColumnTypes();

  std::string name_;
  int width_ = 0;
  int height_ = 0;
  std::vector<TileType> types_;
  std::vector<int> grid_;  ///< row-major type ids; never written after construction
  /// Per column: its type when uniform, -1 otherwise. Derived from `grid_`
  /// once in the constructors, so it cannot go stale.
  std::vector<int> column_type_;
  std::vector<Rect> forbidden_;
  std::vector<std::string> forbidden_labels_;
};

}  // namespace rfp::device
