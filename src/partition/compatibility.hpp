// Area compatibility (Section II, Definitions .1 and .2, Figure 1).
//
// Two areas are *compatible* when they have the same shape, size and
// relative positioning of tiles of the same type — i.e. a bitstream could be
// moved between them by rewriting frame addresses only. An area is
// *free-compatible* w.r.t. another when additionally it does not overlap any
// region, other free-compatible area, or forbidden area.
#pragma once

#include "device/device.hpp"

namespace rfp::partition {

/// Definition .1: same shape/size and identical tile types at every relative
/// position. (On columnar devices this reduces to equal column signatures.)
[[nodiscard]] bool areCompatible(const device::Device& dev, const device::Rect& a,
                                 const device::Rect& b);

}  // namespace rfp::partition
