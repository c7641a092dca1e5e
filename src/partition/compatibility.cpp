#include "partition/compatibility.hpp"

namespace rfp::partition {

bool areCompatible(const device::Device& dev, const device::Rect& a, const device::Rect& b) {
  if (a.w != b.w || a.h != b.h) return false;
  if (!dev.bounds().containsRect(a) || !dev.bounds().containsRect(b)) return false;
  for (int dy = 0; dy < a.h; ++dy)
    for (int dx = 0; dx < a.w; ++dx)
      if (dev.typeAt(a.x + dx, a.y + dy) != dev.typeAt(b.x + dx, b.y + dy)) return false;
  return true;
}

}  // namespace rfp::partition
