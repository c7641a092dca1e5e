#include "probe.hpp"

#include <chrono>

namespace perfbench {

namespace {

constexpr int kItems = 19;

/// Subsets of w[i..] whose weight fits in `cap`: 2^kItems leaves at most,
/// branchy integer work like the exact search's.
long countSubsets(const int* w, int i, int cap) {
  if (i == kItems) return 1;
  long n = countSubsets(w, i + 1, cap);
  if (w[i] <= cap) n += countSubsets(w, i + 1, cap - w[i]);
  return n;
}

// Read through volatile so the count cannot be folded at compile time.
volatile int g_capacity = 120;
volatile long g_sink = 0;

}  // namespace

double probeSeconds() {
  int w[kItems];
  for (int i = 0; i < kItems; ++i) w[i] = (i * 37) % 23 + 3;
  const int cap = g_capacity;
  const auto t0 = std::chrono::steady_clock::now();
  g_sink = countSubsets(w, 0, cap);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double onReferenceHost(double seconds, double before, double after) {
  return seconds * 2.0 * kReferenceProbeSeconds / (before + after);
}

double HostSpeed::scale(double seconds) {
  const double now = probeSeconds();
  const double scaled = onReferenceHost(seconds, last_, now);
  last_ = now;
  return scaled;
}

}  // namespace perfbench
