// The host-speed probe.
//
// The shared machine this benchmark is meant for changes speed under it:
// identical work ran ~1.5x slower for stretches of seconds to minutes, and a
// whole set of runs read ~30% slower than one made half an hour earlier. No
// amount of work inside one run averages that out. So the benchmark runs a
// fixed piece of its own integer work (a depth-first subset count, ~1 ms)
// between requests and scales every end-to-end time by
// kReferenceProbeSeconds / (the probe's time around it): times read as on a
// host where the probe takes exactly kReferenceProbeSeconds. The probe is
// the benchmark's code, so no change to the library can move it.
#pragma once

namespace perfbench {

inline constexpr double kReferenceProbeSeconds = 1e-3;

/// Runs the probe once and returns its wall time in seconds.
[[nodiscard]] double probeSeconds();

/// `seconds` timed between probe readings `before` and `after`, scaled to
/// the reference host.
[[nodiscard]] double onReferenceHost(double seconds, double before, double after);

/// Tracks the probe between timed sections: each section's time is scaled
/// by the mean of the probe readings just before and just after it.
class HostSpeed {
 public:
  HostSpeed() : last_(probeSeconds()) {}
  /// Scales `seconds`, measured since the previous reading, to the
  /// reference host and takes a new reading.
  double scale(double seconds);

 private:
  double last_;
};

}  // namespace perfbench
