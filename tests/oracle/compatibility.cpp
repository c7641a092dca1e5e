#include "oracle/compatibility.hpp"

#include "partition/compatibility.hpp"
#include "support/check.hpp"

namespace rfp::partition {

std::vector<device::Rect> enumerateCompatiblePlacements(const device::Device& dev,
                                                        const device::Rect& source) {
  RFP_CHECK_MSG(dev.bounds().containsRect(source),
                "source area " << source.toString() << " outside device");
  std::vector<device::Rect> out;
  for (int x = 0; x + source.w <= dev.width(); ++x)
    for (int y = 0; y + source.h <= dev.height(); ++y) {
      const device::Rect cand{x, y, source.w, source.h};
      if (dev.rectHitsForbidden(cand)) continue;
      if (areCompatible(dev, source, cand)) out.push_back(cand);
    }
  return out;
}

}  // namespace rfp::partition
