#include "device/device.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace rfp::device {

Device::Device(std::string name, int width, int height, std::vector<TileType> types,
               std::vector<int> column_types)
    : name_(std::move(name)), width_(width), height_(height), types_(std::move(types)) {
  RFP_CHECK_MSG(static_cast<int>(column_types.size()) == width,
                "device '" << name_ << "': column_types size != width");
  grid_.resize(static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_));
  for (int y = 0; y < height_; ++y)
    for (int x = 0; x < width_; ++x)
      grid_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
            static_cast<std::size_t>(x)] = column_types[static_cast<std::size_t>(x)];
  validate();
  computeColumnTables();
}

Device::Device(std::string name, int width, int height, std::vector<TileType> types,
               std::vector<int> grid, bool row_major_grid)
    : name_(std::move(name)),
      width_(width),
      height_(height),
      types_(std::move(types)),
      grid_(std::move(grid)) {
  RFP_CHECK_MSG(row_major_grid, "only row-major grids are supported");
  RFP_CHECK_MSG(grid_.size() ==
                    static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_),
                "device '" << name_ << "': grid size mismatch");
  validate();
  computeColumnTables();
}

void Device::validate() const {
  RFP_CHECK_MSG(width_ > 0 && height_ > 0, "device '" << name_ << "': empty grid");
  RFP_CHECK_MSG(!types_.empty(), "device '" << name_ << "': no tile types");
  for (const int t : grid_)
    RFP_CHECK_MSG(t >= 0 && t < numTileTypes(),
                  "device '" << name_ << "': tile type id " << t << " out of range");
  for (const TileType& t : types_)
    RFP_CHECK_MSG(t.frames > 0, "tile type '" << t.name << "': frames must be positive");
}

void Device::computeColumnTables() {
  column_type_.resize(static_cast<std::size_t>(width_));
  for (int x = 0; x < width_; ++x) {
    int t0 = typeAt(x, 0);
    for (int y = 1; y < height_ && t0 >= 0; ++y)
      if (typeAt(x, y) != t0) t0 = -1;
    column_type_[static_cast<std::size_t>(x)] = t0;
  }
  if (!isColumnar()) return;
  // One common-prefix pass over the column types: lcp(a, b) = type[a] ==
  // type[b] ? 1 + lcp(a+1, b+1) : 0, and b matches (a, w) iff lcp(a, b) >= w.
  // lcp[a * (W+1) + b], with lcp(·, W) = lcp(W, ·) = 0.
  const auto W = static_cast<std::size_t>(width_);
  std::vector<std::size_t> lcp((W + 1) * (W + 1), 0);
  for (std::size_t a = W; a-- > 0;)
    for (std::size_t b = 0; b < W; ++b)
      if (column_type_[a] == column_type_[b])
        lcp[a * (W + 1) + b] = 1 + lcp[(a + 1) * (W + 1) + b + 1];
  // b belongs to lists (a, 1..lcp(a, b)); ascending b keeps every list
  // ascending. One walk sizes the lists, the second fills them, so all lists
  // share one array.
  const auto eachMatch = [&](auto&& visit) {
    for (std::size_t a = 0; a < W; ++a)
      for (std::size_t b = 0; b < W; ++b)
        for (std::size_t w = 1; w <= lcp[a * (W + 1) + b]; ++w) visit(a * W + w - 1, b);
  };
  span_start_.assign(W * W + 1, 0);
  eachMatch([&](std::size_t i, std::size_t) { ++span_start_[i + 1]; });
  for (std::size_t i = 0; i < W * W; ++i) span_start_[i + 1] += span_start_[i];
  span_xs_.resize(span_start_.back());
  std::vector<std::size_t> next(span_start_.begin(), span_start_.end() - 1);
  eachMatch([&](std::size_t i, std::size_t b) { span_xs_[next[i]++] = static_cast<int>(b); });
}

int Device::tileTypeId(const std::string& name) const noexcept {
  for (int i = 0; i < numTileTypes(); ++i)
    if (types_[static_cast<std::size_t>(i)].name == name) return i;
  return -1;
}

bool Device::isColumnar() const noexcept {
  return std::none_of(column_type_.begin(), column_type_.end(),
                      [](int t) { return t < 0; });
}

int Device::columnType(int x) const {
  const int t = column_type_.at(static_cast<std::size_t>(x));
  RFP_CHECK_MSG(t >= 0, "column " << x << " is not uniform");
  return t;
}

void Device::addForbidden(Rect r, std::string label) {
  RFP_CHECK_MSG(bounds().containsRect(r), "forbidden area " << r.toString()
                                                            << " outside device");
  // An empty rect forbids no tile, yet Rect::overlaps reports it crossing any
  // rect that straddles its edge: reject it rather than let tile-level and
  // rect-level forbidden tests disagree.
  RFP_CHECK_MSG(!r.empty(), "forbidden area " << r.toString() << " covers no tile");
  forbidden_.push_back(r);
  forbidden_labels_.push_back(label.empty() ? "f" + std::to_string(forbidden_.size())
                                            : std::move(label));
}

bool Device::inForbidden(int x, int y) const noexcept {
  return std::any_of(forbidden_.begin(), forbidden_.end(),
                     [&](const Rect& f) { return f.contains(x, y); });
}

bool Device::rectHitsForbidden(const Rect& r) const noexcept {
  return std::any_of(forbidden_.begin(), forbidden_.end(),
                     [&](const Rect& f) { return f.overlaps(r); });
}

std::vector<int> Device::tileHistogram(const Rect& r) const {
  std::vector<int> hist(static_cast<std::size_t>(numTileTypes()), 0);
  const Rect c = r.intersect(bounds());
  for (int y = c.y; y < c.y2(); ++y)
    for (int x = c.x; x < c.x2(); ++x)
      ++hist[static_cast<std::size_t>(typeAt(x, y))];
  return hist;
}

long Device::framesInRect(const Rect& r) const {
  const std::vector<int> hist = tileHistogram(r);
  long frames = 0;
  for (int t = 0; t < numTileTypes(); ++t)
    frames += static_cast<long>(hist[static_cast<std::size_t>(t)]) *
              types_[static_cast<std::size_t>(t)].frames;
  return frames;
}

std::vector<int> Device::totalTiles(bool usable_only) const {
  std::vector<int> hist(static_cast<std::size_t>(numTileTypes()), 0);
  for (int y = 0; y < height_; ++y)
    for (int x = 0; x < width_; ++x) {
      if (usable_only && inForbidden(x, y)) continue;
      ++hist[static_cast<std::size_t>(typeAt(x, y))];
    }
  return hist;
}

long Device::totalFrames() const {
  return framesInRect(bounds());
}

}  // namespace rfp::device
