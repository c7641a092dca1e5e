// The Definition .1 reference enumeration of compatible placements.
//
// A tile-by-tile scan over every position, on any device, columnar or not.
// The library enumerates free-compatible candidates from the device's column
// spans and a forbidden bit grid (search::appendCompatibleRects); tests check
// that fast path against this scan.
#pragma once

#include <vector>

#include "device/device.hpp"

namespace rfp::partition {

/// Enumerates every placement of a rectangle compatible with `source`
/// (including `source` itself) that stays on the device and avoids forbidden
/// areas. Ordered by (x, y).
[[nodiscard]] std::vector<device::Rect> enumerateCompatiblePlacements(
    const device::Device& dev, const device::Rect& source);

}  // namespace rfp::partition
